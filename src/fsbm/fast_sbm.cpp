#include "fsbm/fast_sbm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "analyzer/embedded_sources.hpp"
#include "analyzer/fusion.hpp"
#include "obs/trace.hpp"
#include "util/constants.hpp"

namespace wrf::fsbm {

namespace c = wrf::constants;

namespace {

using Clock = std::chrono::steady_clock;

bool offloaded_version(Version v) {
  return v == Version::kV2Offload2 || v == Version::kV3Offload3 ||
         v == Version::kV3NaiveCollapse3;
}

/// Group the pass chain under `mode`.  Legality comes from the analyzer:
/// each candidate pair's embedded kernel sources run through the
/// dependence analysis, memoized process-wide per (pass pair, collapse
/// depth) — every rank asks about the same keys, so each distinct
/// analysis runs once.
exec::Schedule fuse_schedule(const exec::PassGraph& graph,
                             exec::FuseMode mode) {
  return graph.schedule(
      mode, [](const exec::PassNode& a, const exec::PassNode& b,
               int collapse) {
        static analyzer::FusionOracle oracle;
        const analyzer::FusionVerdict v =
            oracle.check({a.name, a.kernel_src, a.procedure},
                         {b.name, b.kernel_src, b.procedure}, collapse);
        exec::FusionCheck check;
        check.fusible = v.fusible;
        for (const auto& blk : v.blockers) {
          if (!check.reason.empty()) check.reason += "; ";
          check.reason += blk;
        }
        return check;
      });
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Stack-resident workspace buffer: the C++ analogue of the Fortran
/// automatic arrays fl1(33), g2(33,icemax), g3(33), ... of Listing 7.
struct StackWorkspace {
  float buf[(4 + kIceMax) * kMaxNkr];

  CoalWorkspace view(int nkr) {
    CoalWorkspace w;
    w.fl1 = buf;
    w.g2 = buf + nkr;
    w.g3 = buf + nkr * (1 + kIceMax);
    w.g4 = buf + nkr * (2 + kIceMax);
    w.g5 = buf + nkr * (3 + kIceMax);
    return w;
  }
};

}  // namespace

const char* version_name(Version v) {
  switch (v) {
    case Version::kV0Baseline: return "v0-baseline";
    case Version::kV1LookupOnDemand: return "v1-lookup-on-demand";
    case Version::kV2Offload2: return "v2-offload-collapse2";
    case Version::kV3Offload3: return "v3-offload-collapse3";
    case Version::kV3NaiveCollapse3: return "v3-naive-collapse3";
  }
  return "?";
}

void FsbmStats::merge(const FsbmStats& o) {
  cells_active += o.cells_active;
  cells_coal += o.cells_coal;
  kernel_table_fills += o.kernel_table_fills;
  kernel_entries += o.kernel_entries;
  coal_interactions += o.coal_interactions;
  coal_flops += o.coal_flops;
  cond_flops += o.cond_flops;
  nucl_flops += o.nucl_flops;
  sed_flops += o.sed_flops;
  sed_substeps += o.sed_substeps;
  surface_precip += o.surface_precip;
  wall_total_sec += o.wall_total_sec;
  wall_coal_sec += o.wall_coal_sec;
  kernel_launches += o.kernel_launches;
  launch_latency_ms += o.launch_latency_ms;
  h2d_ms += o.h2d_ms;
  d2h_ms += o.d2h_ms;
  h2d_bytes += o.h2d_bytes;
  d2h_bytes += o.d2h_bytes;
  h2d_transfers += o.h2d_transfers;
  d2h_transfers += o.d2h_transfers;
  shard_cells_device += o.shard_cells_device;
  shard_cells_host += o.shard_cells_host;
  shard_wall_device_sec += o.shard_wall_device_sec;
  shard_wall_host_sec += o.shard_wall_host_sec;
  cells_bin += o.cells_bin;
  cells_bulk += o.cells_bulk;
  promotions += o.promotions;
  demotions += o.demotions;
  bulk_flops += o.bulk_flops;
  bulk_precip += o.bulk_precip;
  if (o.coal_kernel) coal_kernel = o.coal_kernel;
  if (o.cond_kernel) cond_kernel = o.cond_kernel;
}

void FsbmStats::charge_transfer_delta(const gpu::TransferStats& t0,
                                      const gpu::TransferStats& now) {
  const std::uint64_t h2d = now.h2d_bytes - t0.h2d_bytes;
  const std::uint64_t d2h = now.d2h_bytes - t0.d2h_bytes;
  h2d_bytes += h2d;
  d2h_bytes += d2h;
  h2d_transfers += now.h2d_count - t0.h2d_count;
  d2h_transfers += now.d2h_count - t0.d2h_count;
  const double ms = now.modeled_time_ms - t0.modeled_time_ms;
  const double total = static_cast<double>(h2d) + static_cast<double>(d2h);
  if (total > 0) {
    h2d_ms += ms * (static_cast<double>(h2d) / total);
    d2h_ms += ms * (static_cast<double>(d2h) / total);
  }
}

void FsbmStats::publish(obs::Registry& reg) const {
  using Labels = obs::Registry::Labels;
  auto C = [&](const char* n, double v, Labels l = {}) {
    reg.counter(n, v, std::move(l));
  };
  C("wrf_fsbm_cells_active_total", static_cast<double>(cells_active));
  C("wrf_fsbm_cells_coal_total", static_cast<double>(cells_coal));
  C("wrf_fsbm_kernel_table_fills_total",
    static_cast<double>(kernel_table_fills));
  C("wrf_fsbm_kernel_entries_total", static_cast<double>(kernel_entries));
  C("wrf_fsbm_coal_interactions_total",
    static_cast<double>(coal_interactions));
  C("wrf_fsbm_flops_total", coal_flops, {{"pass", "coal"}});
  C("wrf_fsbm_flops_total", cond_flops, {{"pass", "cond"}});
  C("wrf_fsbm_flops_total", nucl_flops, {{"pass", "nucl"}});
  C("wrf_fsbm_flops_total", sed_flops, {{"pass", "sed"}});
  C("wrf_fsbm_flops_total", bulk_flops, {{"pass", "bulk"}});
  C("wrf_fsbm_sed_substeps_total", static_cast<double>(sed_substeps));
  C("wrf_fsbm_surface_precip_total", surface_precip);
  C("wrf_fsbm_bulk_precip_total", bulk_precip);
  C("wrf_fsbm_wall_seconds_total", wall_total_sec, {{"section", "total"}});
  C("wrf_fsbm_wall_seconds_total", wall_coal_sec, {{"section", "coal"}});
  C("wrf_kernel_launches_total", static_cast<double>(kernel_launches));
  C("wrf_kernel_launch_latency_ms_total", launch_latency_ms);
  C("wrf_xfer_bytes_total", static_cast<double>(h2d_bytes),
    {{"dir", "h2d"}});
  C("wrf_xfer_bytes_total", static_cast<double>(d2h_bytes),
    {{"dir", "d2h"}});
  C("wrf_xfer_transfers_total", static_cast<double>(h2d_transfers),
    {{"dir", "h2d"}});
  C("wrf_xfer_transfers_total", static_cast<double>(d2h_transfers),
    {{"dir", "d2h"}});
  C("wrf_xfer_modeled_ms_total", h2d_ms, {{"dir", "h2d"}});
  C("wrf_xfer_modeled_ms_total", d2h_ms, {{"dir", "d2h"}});
  C("wrf_shard_cells_total", static_cast<double>(shard_cells_device),
    {{"shard", "device"}});
  C("wrf_shard_cells_total", static_cast<double>(shard_cells_host),
    {{"shard", "host"}});
  C("wrf_shard_wall_seconds_total", shard_wall_device_sec,
    {{"shard", "device"}});
  C("wrf_shard_wall_seconds_total", shard_wall_host_sec,
    {{"shard", "host"}});
  C("wrf_fidelity_cells_total", static_cast<double>(cells_bin),
    {{"fidelity", "bin"}});
  C("wrf_fidelity_cells_total", static_cast<double>(cells_bulk),
    {{"fidelity", "bulk"}});
  C("wrf_fidelity_transitions_total", static_cast<double>(promotions),
    {{"kind", "promote"}});
  C("wrf_fidelity_transitions_total", static_cast<double>(demotions),
    {{"kind", "demote"}});
}

FastSbm::FastSbm(const grid::Patch& patch, int nkr, Version version,
                 FsbmParams params, gpu::Device* device,
                 exec::ExecSpace* exec)
    : patch_(patch),
      version_(version),
      params_(params),
      device_(device),
      exec_(exec),
      bins_(nkr),
      tables_(bins_),
      call_coal_(patch.im, patch.k, patch.jm, std::uint8_t{0}),
      fidelity_(patch.im, patch.k, patch.jm, kFidelityBin),
      calm_steps_(patch.im, patch.k, patch.jm, std::uint8_t{0}) {
  if (nkr > kMaxNkr) {
    throw ConfigError("FastSbm: nkr exceeds kMaxNkr stack workspace bound");
  }
  if (params_.phys != PhysScheme::kBin) {
    const HybridConfig& hc = params_.hybrid;
    if (hc.rain_bin_cut < 1 || hc.rain_bin_cut >= nkr) {
      throw ConfigError("FastSbm: hybrid rain_bin_cut outside [1, nkr)");
    }
    if (hc.cloud_carrier_bin < 0 || hc.cloud_carrier_bin >= hc.rain_bin_cut ||
        hc.rain_carrier_bin < hc.rain_bin_cut || hc.rain_carrier_bin >= nkr) {
      throw ConfigError(
          "FastSbm: hybrid carrier bins must satisfy cloud < cut <= rain "
          "< nkr");
    }
    if (!(hc.promote_threshold > 0.0) || !(hc.demote_threshold > 0.0) ||
        hc.demote_threshold >= hc.promote_threshold) {
      throw ConfigError(
          "FastSbm: hybrid thresholds need 0 < demote < promote");
    }
    if (hc.demote_patience < 1 || hc.demote_patience > 255) {
      throw ConfigError("FastSbm: hybrid demote_patience outside [1, 255]");
    }
  }
  const bool offloaded = offloaded_version(version_);
  if (offloaded && device_ == nullptr) {
    throw ConfigError("FastSbm: offloaded versions need a gpu::Device");
  }
  hetero_ = dynamic_cast<exec::HeteroSpace*>(exec_);
  if (hetero_ != nullptr && device_ != nullptr &&
      &hetero_->device_shard().device() == device_) {
    // exec=hetero over this scheme's device: the offloaded passes launch
    // through the space's own device shard, so the split pass and the
    // halo plan share one data region and one launch ledger.
    device_space_ = &hetero_->device_shard();
  } else if (device_ != nullptr) {
    device_space_owned_ = std::make_unique<exec::DeviceSpace>(*device_);
    device_space_ = device_space_owned_.get();
  }
  exec_device_ = dynamic_cast<exec::DeviceSpace*>(exec_) != nullptr;
  if (offloaded) {
    // Register the scheme's field table once: every buffer the offloaded
    // passes touch, sized from the patch memory ranges.  Registration
    // allocates nothing; residency policy decides below.
    region_ = &device_space_->region();
    const std::uint64_t cells3 =
        static_cast<std::uint64_t>(patch_.im.size()) * patch_.k.size() *
        patch_.jm.size();
    ids_.call_coal =
        region_->add_field("call_coal", call_coal_.size() * sizeof(std::uint8_t));
    ids_.temp = region_->add_field("temp", cells3 * sizeof(float));
    ids_.qv = region_->add_field("qv", cells3 * sizeof(float));
    ids_.pres = region_->add_field("pres", cells3 * sizeof(float));
    for (int s = 0; s < kNumSpecies; ++s) {
      ids_.ff[static_cast<std::size_t>(s)] = region_->add_field(
          std::string("ff_") + species_name(static_cast<Species>(s)),
          cells3 * static_cast<std::uint64_t>(nkr) * sizeof(float));
    }
    if (params_.residency == mem::ResidencyMode::kPersist) {
      // res=persist: pin the whole domain resident up front, through the
      // capacity check — a domain that does not fit fails here with the
      // paper-style out-of-memory error instead of at the first launch.
      for (int f = 0; f < region_->fields(); ++f) region_->map_alloc(f);
    }
  }
  if (version_ == Version::kV3Offload3) {
    // The temp_arrays module: one pooled slab per automatic array,
    // spanning every grid point of the patch, allocated on the device
    // once via `target enter data map(alloc:)` (Listing 8).
    pool_fl1_ = std::make_unique<Field4D<float>>(nkr, patch.ip, patch.k,
                                                 patch.jp);
    pool_g2_ = std::make_unique<Field4D<float>>(nkr * kIceMax, patch.ip,
                                                patch.k, patch.jp);
    pool_g3_ = std::make_unique<Field4D<float>>(nkr, patch.ip, patch.k,
                                                patch.jp);
    pool_g4_ = std::make_unique<Field4D<float>>(nkr, patch.ip, patch.k,
                                                patch.jp);
    pool_g5_ = std::make_unique<Field4D<float>>(nkr, patch.ip, patch.k,
                                                patch.jp);
    pool_bytes_ = pool_fl1_->bytes() + pool_g2_->bytes() + pool_g3_->bytes() +
                  pool_g4_->bytes() + pool_g5_->bytes();
    device_->enter_data_alloc(pool_bytes_);
  }

  cond_cfg_ = params_.cond;
  cond_cfg_.dt = params_.dt;
  nucl_cfg_ = params_.nucl;
  nucl_cfg_.dt = params_.dt;
  coal_cfg_ = params_.coal;
  coal_cfg_.dt = params_.dt;
  // The per-step pass chain and its fusion schedule: footprints and tile
  // plans are static per run, so both are built once here.
  PassChain chain = declare_passes(
      patch_, nkr, version_, params_, exec_device_,
      hetero_ != nullptr && device_space_ == &hetero_->device_shard());
  graph_ = std::move(chain.graph);
  impls_ = std::move(chain.impls);
  schedule_ = fuse_schedule(graph_, params_.fuse);
}

FastSbm::PassChain FastSbm::declare_passes(const grid::Patch& patch, int nkr,
                                           Version version,
                                           const FsbmParams& params,
                                           bool exec_device,
                                           bool split_coal) {
  const bool offloaded = offloaded_version(version);
  const exec::Range3 cell_range{patch.ip, patch.k, patch.jp};
  PassChain chain;
  {
    exec::PassNode pre;
    pre.collapse = 3;
    pre.range = cell_range;
    pre.reads = {"temp", "qv", "pres", "ff"};
    pre.writes = {"temp", "qv", "call_coal", "ff"};
    PassImpl impl;
    if (offloaded && params.offload_condensation) {
      // §VIII: the condensation loops offloaded "using a similar
      // approach" — fissioned behind their own predicate, one lane per
      // cell, stack workspaces (condensation's automatic arrays fit the
      // register/stack budget, so no pooled variant).
      pre.name = "onecond_loop";
      pre.device = true;
      pre.kernel_src = &analyzer::sources::cond_kernel();
      pre.procedure = "cond_kernel";
      impl.lane = {
          .stem = "onecond",
          .regs_per_thread = params.cond_regs_per_thread,
          .run = &FastSbm::cond_run_cell,
          .trace = &FastSbm::emit_cond_trace,
          .flops =
              [](const LaneCounters& c) {
                return static_cast<double>(c.flops_milli.load() +
                                           c.bulk_flops_milli.load()) /
                       1000.0;
              },
          .fold =
              [](const LaneCounters& c, double /*flops*/, FsbmStats& st) {
                st.cells_active += c.active.load();
                st.cells_coal += c.coal_cells.load();
                st.cond_flops +=
                    static_cast<double>(c.flops_milli.load()) / 1000.0;
                st.bulk_flops +=
                    static_cast<double>(c.bulk_flops_milli.load()) / 1000.0;
              },
      };
    } else {
      pre.name = "pass_physics";  // host nest (inline coal for v0/v1)
      impl.host = &FastSbm::pass_physics;
    }
    chain.graph.add(std::move(pre));
    chain.impls.push_back(impl);
  }
  if (offloaded) {
    // Listing 6: the isolated collision loop behind the predicate array.
    exec::PassNode coal;
    coal.name = "coal_bott_new_loop";
    coal.device = true;
    coal.split = split_coal;
    coal.collapse = version == Version::kV2Offload2 ? 2 : 3;
    coal.range = cell_range;
    coal.reads = {"call_coal", "ff", "temp", "pres"};
    coal.writes = {"ff"};
    coal.kernel_src = &analyzer::sources::coal_kernel();
    coal.procedure = "coal_kernel";
    chain.graph.add(std::move(coal));
    PassImpl impl;
    impl.lane = {
        .stem = "coal",
        .regs_per_thread = params.coal_regs_per_thread,
        // v3's pools replace the automatic arrays; v2 and the naive
        // collapse(3) keep them on the device heap.
        .workspace_bytes_per_thread =
            version == Version::kV3Offload3
                ? 0
                : static_cast<std::uint64_t>(params.automatic_array_count) *
                      static_cast<std::uint64_t>(nkr) * sizeof(float),
        .run = &FastSbm::coal_run_cell,
        .trace = &FastSbm::emit_coal_trace,
        // 24 flops per interaction + 4 per kernel lookup.
        .flops =
            [](const LaneCounters& c) {
              return 24.0 * static_cast<double>(c.interactions.load()) +
                     4.0 * static_cast<double>(c.lookups.load());
            },
        .fold =
            [](const LaneCounters& c, double flops, FsbmStats& st) {
              st.coal_interactions += c.interactions.load();
              st.kernel_entries += c.lookups.load();
              st.coal_flops += flops;
            },
        .collision = true,
    };
    chain.impls.push_back(impl);
  }
  {
    exec::PassNode sed;
    sed.name = "sedimentation";
    sed.device = exec_device;  // modeled as a device nest under exec=device
    sed.collapse = 2;
    sed.range = exec::Range3{patch.ip, Range{0, 0}, patch.jp};
    sed.grain = patch.ip.size();
    sed.reads = {"ff", "rho"};
    sed.writes = {"ff", "precip"};
    sed.kernel_src = &analyzer::sources::sed_kernel();
    sed.procedure = "sed_kernel";
    chain.graph.add(std::move(sed));
    PassImpl impl;
    impl.host = &FastSbm::pass_sedimentation;
    chain.impls.push_back(impl);
  }
  return chain;
}

exec::Schedule FastSbm::plan_schedule(const grid::Patch& patch, int nkr,
                                      Version version,
                                      const FsbmParams& params,
                                      exec::ExecKind exec) {
  const PassChain chain =
      declare_passes(patch, nkr, version, params,
                     exec == exec::ExecKind::kDevice,
                     exec == exec::ExecKind::kHetero);
  return fuse_schedule(chain.graph, params.fuse);
}

void FastSbm::load_workspace(const MicroState& s, int i, int k, int j,
                             const CoalWorkspace& w) {
  const int nkr = s.bins.nkr();
  const auto sz = static_cast<std::size_t>(nkr) * sizeof(float);
  std::memcpy(w.fl1, s.ff[0].slice(i, k, j), sz);
  std::memcpy(w.g2, s.ff[1].slice(i, k, j), sz);
  std::memcpy(w.g2 + nkr, s.ff[2].slice(i, k, j), sz);
  std::memcpy(w.g2 + 2 * nkr, s.ff[3].slice(i, k, j), sz);
  std::memcpy(w.g3, s.ff[4].slice(i, k, j), sz);
  std::memcpy(w.g4, s.ff[5].slice(i, k, j), sz);
  std::memcpy(w.g5, s.ff[6].slice(i, k, j), sz);
}

void FastSbm::store_workspace(MicroState& s, int i, int k, int j,
                              const CoalWorkspace& w) {
  const int nkr = s.bins.nkr();
  const auto sz = static_cast<std::size_t>(nkr) * sizeof(float);
  std::memcpy(s.ff[0].slice(i, k, j), w.fl1, sz);
  std::memcpy(s.ff[1].slice(i, k, j), w.g2, sz);
  std::memcpy(s.ff[2].slice(i, k, j), w.g2 + nkr, sz);
  std::memcpy(s.ff[3].slice(i, k, j), w.g2 + 2 * nkr, sz);
  std::memcpy(s.ff[4].slice(i, k, j), w.g3, sz);
  std::memcpy(s.ff[5].slice(i, k, j), w.g4, sz);
  std::memcpy(s.ff[6].slice(i, k, j), w.g5, sz);
}

void FastSbm::coal_cell(MicroState& state, int i, int k, int j,
                        const KernelSource& ks, CoalStats& cst) {
  StackWorkspace sw;
  CoalWorkspace w;
  if (pool_fl1_ != nullptr) {
    // Listing 8: pointers into pooled slabs indexed by the grid point.
    w.fl1 = pool_fl1_->slice(i, k, j);
    w.g2 = pool_g2_->slice(i, k, j);
    w.g3 = pool_g3_->slice(i, k, j);
    w.g4 = pool_g4_->slice(i, k, j);
    w.g5 = pool_g5_->slice(i, k, j);
  } else {
    w = sw.view(bins_.nkr());
  }
  load_workspace(state, i, k, j, w);
  const CoalStats one =
      coal_bott_new(bins_, state.temp(i, k, j), ks, w, coal_cfg_);
  store_workspace(state, i, k, j, w);
  cst.kernel_lookups += one.kernel_lookups;
  cst.interactions += one.interactions;
  cst.pairs_active += one.pairs_active;
  cst.flops += one.flops;
}

void FastSbm::coal_run_cell(MicroState& state, int i, int k, int j,
                            LaneCounters& c) {
  if (call_coal_(i, k, j) == 0) return;
  // Device code path: nvfortran-style FMA contraction (see get_cw_device).
  const KernelSource ks(tables_, state.pres(i, k, j), /*device_fma=*/true);
  CoalStats cst;
  coal_cell(state, i, k, j, ks, cst);
  c.interactions.fetch_add(cst.interactions, std::memory_order_relaxed);
  c.lookups.fetch_add(cst.kernel_lookups, std::memory_order_relaxed);
}

std::vector<mem::FieldId> FastSbm::fields_of(
    const std::vector<std::string>& names) const {
  std::vector<mem::FieldId> out;
  if (region_ == nullptr) return out;
  for (const std::string& n : names) {
    for (mem::FieldId f = 0; f < region_->fields(); ++f) {
      const std::string& fn = region_->name(f);
      if (fn == n || fn.rfind(n + "_", 0) == 0) out.push_back(f);
    }
  }
  return out;
}

void FastSbm::mark_written(const std::vector<mem::FieldId>& ids,
                           bool on_device, FsbmStats* st) {
  if (!persist()) return;
  const gpu::TransferStats t0 = device_->transfers();
  for (const mem::FieldId f : ids) {
    if (f == mem::kInvalidField) continue;
    if (on_device) {
      // Read coherence: a device kernel consumed current operands, so
      // any pending host-side writes must have crossed h2d before it
      // ran (the first step's initial-state upload lands here; steady
      // state moves nothing).  Only then does its own write advance the
      // device copy.
      region_->update_to(f);
      region_->mark_device_dirty(f);
    } else {
      // Same rule, d2h direction: a host pass consumed current values,
      // so pending device-kernel writes must have crossed d2h before
      // it ran — only then does the host write stale the device copy.
      region_->update_from(f);
      region_->mark_host_dirty(f);
    }
  }
  if (st != nullptr) st->charge_transfer_delta(t0, device_->transfers());
}

void FastSbm::mark_transport_writes(FsbmStats* st) {
  mark_written(fields_of({"qv", "ff"}), exec_device_, st);
}

void FastSbm::mark_coal_writes(const MicroState& state) {
  // Walk in memory order (j slowest, i fastest) so the per-cell slice
  // ranges arrive ascending and adjacent active cells coalesce into one
  // span — cloud regions are i-contiguous.
  const auto& f0 = state.ff[0];
  const std::uint64_t slice_bytes =
      static_cast<std::uint64_t>(bins_.nkr()) * sizeof(float);
  for (int j = patch_.jp.lo; j <= patch_.jp.hi; ++j) {
    for (int k = patch_.k.lo; k <= patch_.k.hi; ++k) {
      for (int i = patch_.ip.lo; i <= patch_.ip.hi; ++i) {
        if (call_coal_(i, k, j) == 0) continue;
        const std::uint64_t off = f0.index(0, i, k, j) * sizeof(float);
        for (const mem::FieldId f : ids_.ff) {
          region_->mark_device_dirty(f, off, slice_bytes);
        }
      }
    }
  }
}

double FastSbm::physics_bulk_cell(MicroState& state, int i, int k, int j) {
  // Same inertness gate as the bin body: cells colder than t_active are
  // skipped at either fidelity.
  if (state.temp(i, k, j) <= params_.t_active) return 0.0;
  const HybridConfig& hc = params_.hybrid;
  double temp = state.temp(i, k, j);
  double qv = state.qv(i, k, j);
  const double pres = state.pres(i, k, j);
  float* liq = state.ff[0].slice(i, k, j);
  bulk::KesslerCell cell;
  cell.qc = liq[hc.cloud_carrier_bin];
  cell.qr = liq[hc.rain_carrier_bin];
  const bulk::KesslerStats ks =
      bulk::kessler_cell(temp, qv, pres, cell, params_.dt, hc.kessler);
  state.temp(i, k, j) = static_cast<float>(temp);
  state.qv(i, k, j) = static_cast<float>(qv);
  liq[hc.cloud_carrier_bin] = static_cast<float>(cell.qc);
  liq[hc.rain_carrier_bin] = static_cast<float>(cell.qr);
  return ks.flops;
}

bool FastSbm::column_all_bulk(int i, int j) const {
  if (params_.phys == PhysScheme::kBin) return false;
  for (int k = patch_.k.lo; k <= patch_.k.hi; ++k) {
    if (fidelity_(i, k, j) != kFidelityBulk) return false;
  }
  return true;
}

double FastSbm::sediment_bulk_column(MicroState& state, int i, int j,
                                     FsbmStats& pt) {
  const int nz = patch_.k.size();
  const int klo = patch_.k.lo;
  const HybridConfig& hc = params_.hybrid;
  auto& liq = state.ff[0];
  thread_local std::vector<double> qr_col;
  thread_local std::vector<double> rho_col;
  qr_col.resize(static_cast<std::size_t>(nz));
  rho_col.resize(static_cast<std::size_t>(nz));
  for (int iz = 0; iz < nz; ++iz) {
    qr_col[static_cast<std::size_t>(iz)] =
        liq(hc.rain_carrier_bin, i, klo + iz, j);
    rho_col[static_cast<std::size_t>(iz)] = state.rho(i, klo + iz, j);
  }
  const bulk::KesslerSedStats ss = bulk::kessler_sediment_column(
      qr_col.data(), rho_col.data(), nz, params_.sed.dz, params_.dt);
  for (int iz = 0; iz < nz; ++iz) {
    liq(hc.rain_carrier_bin, i, klo + iz, j) =
        static_cast<float>(qr_col[static_cast<std::size_t>(iz)]);
  }
  pt.bulk_precip += ss.surface_precip;
  pt.bulk_flops += ss.flops;
  return ss.surface_precip;
}

void FastSbm::pass_fidelity(MicroState& state, FsbmStats& st) {
  const HybridConfig& hc = params_.hybrid;
  const int nkr = bins_.nkr();
  const bool init = !fidelity_initialized_;
  // phys=bulk is the all-bulk override through the same machinery.
  const HybridConfig::Override ov = params_.phys == PhysScheme::kBulk
                                        ? HybridConfig::Override::kAllBulk
                                        : hc.override_mode;

  exec::LaunchParams lp;
  lp.name = "fidelity";
  lp.collapse = 3;
  const FsbmStats sum = exec_space().parallel_reduce<FsbmStats>(
      exec::Range3{patch_.ip, patch_.k, patch_.jp}, lp,
      [&](FsbmStats& pt, int i, int k, int j) {
        std::uint8_t& fid = fidelity_(i, k, j);
        std::uint8_t& calm = calm_steps_(i, k, j);
        float* liq = state.ff[0].slice(i, k, j);
        if (ov == HybridConfig::Override::kAllBin) {
          fid = kFidelityBin;
          calm = 0;
          ++pt.cells_bin;
          return;
        }
        if (ov == HybridConfig::Override::kAllBulk) {
          if (fid == kFidelityBin) ++pt.demotions;
          fid = kFidelityBulk;
          calm = 0;
          demote_liquid(liq, nkr, hc);
          ++pt.cells_bulk;
          return;
        }
        // Adaptive rule: the coal-gate temperature shape (the same cut
        // that drives call_coal_) plus a liquid-mass trigger.  The
        // promote/demote threshold band and the demotion patience
        // counter are the hysteresis that keeps cells from flapping.
        double lm = 0.0;
        for (int n = 0; n < nkr; ++n) lm += liq[n];
        const bool warm = state.temp(i, k, j) > params_.t_coal;
        const bool wants_bin = warm && lm > hc.promote_threshold;
        const bool calm_now = !warm || lm < hc.demote_threshold;
        if (fid == kFidelityBin) {
          bool demote = false;
          if (init) {
            // Cold start: the rule applies directly, no patience — a
            // fresh run should not spend demote_patience steps running
            // every calm cell at bin fidelity.
            demote = !wants_bin;
          } else if (calm_now) {
            if (calm < 255) ++calm;
            demote = calm >= hc.demote_patience;
          } else {
            calm = 0;
          }
          if (demote) {
            fid = kFidelityBulk;
            calm = 0;
            demote_liquid(liq, nkr, hc);
            ++pt.demotions;
            ++pt.cells_bulk;
          } else {
            ++pt.cells_bin;
          }
          return;
        }
        if (wants_bin) {
          promote_liquid(liq, nkr, hc);
          fid = kFidelityBin;
          calm = 0;
          ++pt.promotions;
          ++pt.cells_bin;
          return;
        }
        // Stays bulk: re-collapse what advection smeared off the
        // carriers since last step (idempotent when nothing did).
        demote_liquid(liq, nkr, hc);
        ++pt.cells_bulk;
      });
  st.merge(sum);
  fidelity_initialized_ = true;
  if (obs::TraceSink* sink = obs::active()) {
    sink->instant("fidelity", "census",
                  {{"cells_bin", sum.cells_bin},
                   {"cells_bulk", sum.cells_bulk},
                   {"promotions", sum.promotions},
                   {"demotions", sum.demotions}});
  }
  // Residency: the transforms rewrote (only) the liquid bin field, and
  // only when some cell was or became bulk.  Under the all-bin override
  // nothing is written, so the device traffic stays identical to
  // phys=bin — part of the bitwise regression gate.
  if (sum.cells_bulk > 0 || sum.promotions > 0) {
    mark_written({ids_.ff[0]}, exec_device_, &st);
  }
}

void FastSbm::cond_run_cell(MicroState& state, int i, int k, int j,
                            LaneCounters& cnt) {
  call_coal_(i, k, j) = 0;
  if (params_.phys != PhysScheme::kBin &&
      fidelity_(i, k, j) == kFidelityBulk) {
    // Bulk-fidelity lane: the Kessler cell on the carried moments; the
    // coal predicate stays 0, so bulk cells never reach the collision
    // kernel (and under exec=hetero never join the device shard).
    const double flops = physics_bulk_cell(state, i, k, j);
    cnt.bulk_flops_milli.fetch_add(
        static_cast<std::uint64_t>(flops * 1000.0),
        std::memory_order_relaxed);
    return;
  }
  if (state.temp(i, k, j) <= params_.t_active) return;
  cnt.active.fetch_add(1, std::memory_order_relaxed);
  StackWorkspace sw;
  const CoalWorkspace w = sw.view(bins_.nkr());
  double temp = state.temp(i, k, j);
  double qv = state.qv(i, k, j);
  const double pres = state.pres(i, k, j);
  load_workspace(state, i, k, j, w);
  const NuclStats ns = jernucl01_ks(bins_, temp, qv, pres, w, nucl_cfg_);
  const CondStats cs = temp >= c::kT0
                           ? onecond1(bins_, temp, qv, pres, w, cond_cfg_)
                           : onecond2(bins_, temp, qv, pres, w, cond_cfg_);
  state.temp(i, k, j) = static_cast<float>(temp);
  state.qv(i, k, j) = static_cast<float>(qv);
  store_workspace(state, i, k, j, w);
  cnt.flops_milli.fetch_add(
      static_cast<std::uint64_t>((ns.flops + cs.flops) * 1000.0),
      std::memory_order_relaxed);
  if (temp > params_.t_coal) {
    call_coal_(i, k, j) = 1;
    cnt.coal_cells.fetch_add(1, std::memory_order_relaxed);
  }
}

void FastSbm::emit_cond_trace(const MicroState& state, int i, int k, int j,
                              std::vector<gpu::AccessEvent>& out) const {
  auto addr = [](const void* p) {
    return reinterpret_cast<std::uint64_t>(p);
  };
  out.push_back({addr(&state.temp(i, k, j)), 4, false});
  if (params_.phys != PhysScheme::kBin &&
      fidelity_(i, k, j) == kFidelityBulk) {
    // Bulk lane: thermo plus the two carrier bins — the light access
    // pattern is most of why hybrid lanes are cheap.
    if (state.temp(i, k, j) <= params_.t_active) return;
    out.push_back({addr(&state.qv(i, k, j)), 4, true});
    const float* sl = state.ff[0].slice(i, k, j);
    out.push_back({addr(sl + params_.hybrid.cloud_carrier_bin), 4, true});
    out.push_back({addr(sl + params_.hybrid.rain_carrier_bin), 4, true});
    return;
  }
  if (state.temp(i, k, j) <= params_.t_active) return;
  out.push_back({addr(&state.qv(i, k, j)), 4, true});
  for (int s = 0; s < kNumSpecies; ++s) {
    const float* sl = state.ff[static_cast<std::size_t>(s)].slice(i, k, j);
    for (int n = 0; n < bins_.nkr(); n += 2) {
      out.push_back({addr(sl + n), 4, false});
      out.push_back({addr(sl + n), 4, true});
    }
  }
}

void FastSbm::pass_physics(MicroState& state, FsbmStats& st) {
  const bool inline_coal = version_ == Version::kV0Baseline ||
                           version_ == Version::kV1LookupOnDemand;
  const int nkr = bins_.nkr();

  // Listing 1's j/k/i nest, dispatched through the execution space.
  // Every cell touches only its own state, so the nest parallelizes over
  // tiles; statistics go into per-tile FsbmStats partials merged in tile
  // order, which keeps the result bitwise-identical across executors.
  exec::LaunchParams lp;
  lp.name = "pass_physics";
  lp.collapse = 3;
  const exec::Range3 range{patch_.ip, patch_.k, patch_.jp};
  const auto bin_cell = [&](FsbmStats& pt, int i, int k, int j) {
        if (state.temp(i, k, j) <= params_.t_active) return;
        ++pt.cells_active;

        StackWorkspace sw;
        const CoalWorkspace w = sw.view(nkr);
        double temp = state.temp(i, k, j);
        double qv = state.qv(i, k, j);
        const double pres = state.pres(i, k, j);
        load_workspace(state, i, k, j, w);

        // Nucleation.
        const NuclStats ns =
            jernucl01_ks(bins_, temp, qv, pres, w, nucl_cfg_);
        pt.nucl_flops += ns.flops;

        // Condensation: warm path above freezing, mixed-phase below.
        const CondStats cs =
            temp >= c::kT0
                ? onecond1(bins_, temp, qv, pres, w, cond_cfg_)
                : onecond2(bins_, temp, qv, pres, w, cond_cfg_);
        pt.cond_flops += cs.flops;

        state.temp(i, k, j) = static_cast<float>(temp);
        state.qv(i, k, j) = static_cast<float>(qv);
        store_workspace(state, i, k, j, w);

        // Collision gate (TT > 223.15 in Listing 1).
        if (temp <= params_.t_coal) return;
        if (inline_coal) {
          // No per-cell span (one per cell would swamp the trace): coal
          // wall time goes into the per-tile partials instead.
          const auto t0 = Clock::now();
          CoalStats cst;
          if (version_ == Version::kV0Baseline) {
            // kernals_ks refills the collision arrays for this cell;
            // every entry of all 20 arrays is interpolated whether used
            // or not.  The Fortran original keeps ONE global block (the
            // shared state Codee flagged); one block per executing
            // thread preserves the per-cell refill cost while making the
            // pass dispatchable on any ExecSpace.
            thread_local std::unique_ptr<CollisionArrays> cw;
            if (!cw || cw->nkr != nkr) {
              cw = std::make_unique<CollisionArrays>(nkr);
            }
            pt.kernel_entries += tables_.kernals_ks(pres, *cw);
            ++pt.kernel_table_fills;
            const KernelSource ks(*cw);
            coal_cell(state, i, k, j, ks, cst);
          } else {
            const KernelSource ks(tables_, pres);
            coal_cell(state, i, k, j, ks, cst);
            pt.kernel_entries += cst.kernel_lookups;
          }
          pt.coal_interactions += cst.interactions;
          pt.coal_flops +=
              cst.flops +
              (version_ == Version::kV0Baseline
                   ? 4.0 * kNumPairs * nkr * nkr  // table fill flops
                   : 4.0 * static_cast<double>(cst.kernel_lookups));
          ++pt.cells_coal;
          pt.wall_coal_sec += seconds_since(t0);
        } else {
          call_coal_(i, k, j) = 1;
          ++pt.cells_coal;
        }
  };

  FsbmStats sum;
  if (params_.phys == PhysScheme::kBin) {
    sum = exec_space().parallel_reduce<FsbmStats>(
        range, lp, [&](FsbmStats& pt, int i, int k, int j) {
          call_coal_(i, k, j) = 0;
          bin_cell(pt, i, k, j);
        });
  } else {
    // phys=bulk|hybrid: route the two fidelity populations through the
    // predicate-split dispatch (exec/exec.hpp SplitPlan).  Tiles holding
    // any bin-fidelity cell form one shard, pure-bulk tiles the other;
    // both run the same per-cell body (which branches on fidelity for
    // the mixed tiles), over the SAME tile plan parallel_reduce would
    // use, with plan-wide partials merged in tile order.  With an
    // all-bin fidelity field the first list is every tile and the
    // second is empty, which reproduces the phys=bin dispatch — and its
    // results — bit for bit.
    const exec::TilePlan plan = exec::ExecSpace::plan_for(range, lp);
    const exec::SplitPlan sp = exec::split_plan(
        range, plan, [&](int i, int k, int j) {
          return fidelity_(i, k, j) == kFidelityBin;
        });
    std::vector<FsbmStats> parts(static_cast<std::size_t>(plan.tiles()));
    const exec::TileFn body = [&](std::int64_t t, std::int64_t b,
                                  std::int64_t e) {
      FsbmStats& pt = parts[static_cast<std::size_t>(t)];
      for (std::int64_t f = b; f < e; ++f) {
        const exec::Range3::Cell c = range.cell(f);
        call_coal_(c.i, c.k, c.j) = 0;
        if (fidelity_(c.i, c.k, c.j) == kFidelityBin) {
          bin_cell(pt, c.i, c.k, c.j);
        } else {
          pt.bulk_flops += physics_bulk_cell(state, c.i, c.k, c.j);
        }
      }
    };
    exec_space().run_tile_list(sp.plan, sp.device_tiles, lp, body);
    exec_space().run_tile_list(sp.plan, sp.host_tiles, lp, body);
    for (const FsbmStats& part : parts) sum.merge(part);
  }
  st.merge(sum);
}

void FastSbm::emit_coal_trace(const MicroState& state, int i, int k, int j,
                              std::vector<gpu::AccessEvent>& out) const {
  auto addr = [](const void* p) {
    return reinterpret_cast<std::uint64_t>(p);
  };
  out.push_back({addr(&call_coal_(i, k, j)), 1, false});
  if (call_coal_(i, k, j) == 0) return;
  out.push_back({addr(&state.temp(i, k, j)), 4, false});
  out.push_back({addr(&state.pres(i, k, j)), 4, false});

  const int nkr = bins_.nkr();
  const bool pooled = pool_fl1_ != nullptr;
  // Workspace copy-in: bin-strided reads of the ff slices; pooled runs
  // also write the pool slabs (global memory), stack runs keep the
  // workspace in thread-local storage invisible to the DRAM counters.
  const float* pool_base[5] = {nullptr, nullptr, nullptr, nullptr, nullptr};
  if (pooled) {
    pool_base[0] = pool_fl1_->slice(i, k, j);
    pool_base[1] = pool_g2_->slice(i, k, j);
    pool_base[2] = pool_g3_->slice(i, k, j);
    pool_base[3] = pool_g4_->slice(i, k, j);
    pool_base[4] = pool_g5_->slice(i, k, j);
  }
  for (int s = 0; s < kNumSpecies; ++s) {
    const float* src = state.ff[static_cast<std::size_t>(s)].slice(i, k, j);
    for (int n = 0; n < nkr; ++n) {
      out.push_back({addr(src + n), 4, false});
      if (pooled) {
        // Species -> pool slab mapping (ice habits share g2).
        const int slab = s == 0 ? 0 : (s <= 3 ? 1 : s - 2);
        const int off = (s >= 1 && s <= 3) ? (s - 1) * nkr + n : n;
        out.push_back({addr(pool_base[slab] + off), 4, true});
      }
    }
  }

  // Workspace copy-out at the end of the lane: the updated bin
  // distributions are written back to the ff arrays in global memory.
  for (int s = 0; s < kNumSpecies; ++s) {
    const float* dst = state.ff[static_cast<std::size_t>(s)].slice(i, k, j);
    for (int n = 0; n < nkr; n += 2) {
      out.push_back({addr(dst + n), 4, true});
    }
  }

  // Collision sweeps: table reads (+ pooled workspace read/write) per
  // active (i2, j2) pair.  Pair activity mirrors coal_bott_new's gates.
  const bool cold = state.temp(i, k, j) < c::kT0;
  const int npairs = cold ? kNumPairs : 1;
  for (int p = 0; p < npairs; ++p) {
    const auto pair = static_cast<CollisionPair>(p);
    const float* t750 = tables_.table_ptr(pair, true);
    const float* t500 = tables_.table_ptr(pair, false);
    const bool self = pair_a(pair) == pair_b(pair);
    for (int j2 = 0; j2 < nkr; j2 += 2) {      // sampled rows
      const int imax = self ? j2 : nkr - 1;
      for (int i2 = 0; i2 <= imax; i2 += 2) {  // sampled columns
        const std::size_t idx = static_cast<std::size_t>(i2) * nkr + j2;
        out.push_back({addr(t750 + idx), 4, false});
        out.push_back({addr(t500 + idx), 4, false});
        if (pooled) {
          out.push_back({addr(pool_base[0] + i2), 4, false});
          out.push_back({addr(pool_base[0] + i2), 4, true});
        }
      }
    }
  }
}

void FastSbm::run_device_group(const std::vector<std::size_t>& group,
                               MicroState& state, FsbmStats& st) {
  const auto has = [](const std::vector<mem::FieldId>& set, mem::FieldId f) {
    return std::find(set.begin(), set.end(), f) != set.end();
  };
  // Compose the group: its lanes in chain order, the kernel resources,
  // and the union footprint — every field touched, every field written,
  // and the external reads (those no earlier member writes).
  const exec::PassNode& head = graph_.node(group.front());
  const bool fused = group.size() > 1;
  gpu::KernelDesc desc;
  desc.name = fused ? "" : head.name;
  desc.collapse = head.collapse;
  desc.fused_passes = static_cast<int>(group.size());
  desc.regs_per_thread = 0;
  std::vector<const Lane*> lanes;
  std::vector<mem::FieldId> touched, written, external;
  bool collision = false;
  for (const std::size_t id : group) {
    const exec::PassNode& node = graph_.node(id);
    const Lane& lane = impls_[id].lane;
    if (lane.run == nullptr) {
      throw Error("FastSbm: pass " + node.name + " has no device lane");
    }
    lanes.push_back(&lane);
    if (fused) desc.name += std::string(lane.stem) + "_";
    desc.regs_per_thread = std::max(desc.regs_per_thread, lane.regs_per_thread);
    desc.workspace_bytes_per_thread = std::max(
        desc.workspace_bytes_per_thread, lane.workspace_bytes_per_thread);
    collision |= lane.collision;
    for (const mem::FieldId f : fields_of(node.reads)) {
      if (!has(written, f) && !has(external, f)) external.push_back(f);
      if (!has(touched, f)) touched.push_back(f);
    }
    for (const mem::FieldId f : fields_of(node.writes)) {
      if (!has(touched, f)) touched.push_back(f);
      if (!has(written, f)) written.push_back(f);
    }
  }
  if (fused) desc.name += "fused";
  const auto t0 = Clock::now();

  // Prologue: a per-launch `target data` region (res=step), or the
  // resident operands brought current, dirty bytes only (res=persist).
  const gpu::TransferStats x0 = device_->transfers();
  if (persist()) {
    for (const mem::FieldId f : external) region_->update_to(f);
  } else {
    for (const mem::FieldId f : touched) region_->map_to(f);
  }
  st.charge_transfer_delta(x0, device_->transfers());

  // Collapse-order lane decode: a collapse(3) lane is one cell; a
  // collapse(2) lane is one (k, j) row with the i loop inside (v2).
  const exec::Range3& r = head.range;
  const exec::Range3 lane_range =
      head.collapse == 3 ? r : exec::Range3{Range{r.i.lo, r.i.lo}, r.k, r.j};
  const auto each_cell = [&](std::int64_t it, const auto& fn) {
    const exec::Range3::Cell c = lane_range.cell(it);
    if (head.collapse == 3) {
      fn(c.i, c.k, c.j);
    } else {
      for (int i = r.i.lo; i <= r.i.hi; ++i) fn(i, c.k, c.j);
    }
  };
  std::vector<LaneCounters> cnt(lanes.size());
  desc.iterations = lane_range.size();
  desc.body = [&](std::int64_t it) {
    each_cell(it, [&](int i, int k, int j) {
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        (this->*lanes[l]->run)(state, i, k, j, cnt[l]);
      }
    });
  };
  desc.trace = [&](std::int64_t it, std::vector<gpu::AccessEvent>& out) {
    each_cell(it, [&](int i, int k, int j) {
      for (const Lane* lane : lanes) (this->*lane->trace)(state, i, k, j, out);
    });
  };
  desc.flops_total = [&]() {
    double flops = 0.0;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      flops += lanes[l]->flops(cnt[l]);
    }
    return flops;
  };
  (collision ? st.coal_kernel : st.cond_kernel) = device_space_->launch(desc);

  // Epilogue: close the per-launch region (res=step), or advance the
  // device copies and hand the next pass its operands when it runs on
  // the host (res=persist; a device consumer reads them in place).
  if (persist()) {
    for (std::size_t g = 0; g < group.size(); ++g) {
      if (lanes[g]->collision) {
        mark_coal_writes(state);
      } else {
        mark_written(fields_of(graph_.node(group[g]).writes),
                     /*on_device=*/true, &st);
      }
    }
    const std::size_t next = group.back() + 1;
    if (next < graph_.size() && !graph_.node(next).device) {
      const gpu::TransferStats x1 = device_->transfers();
      const std::vector<mem::FieldId> needed =
          fields_of(graph_.node(next).reads);
      for (const mem::FieldId f : written) {
        if (has(needed, f)) region_->update_from(f);
      }
      st.charge_transfer_delta(x1, device_->transfers());
    }
  } else {
    const gpu::TransferStats x1 = device_->transfers();
    for (const mem::FieldId f : written) region_->map_from(f);
    region_->unmap_all();
    st.charge_transfer_delta(x1, device_->transfers());
  }

  for (std::size_t l = 0; l < lanes.size(); ++l) {
    lanes[l]->fold(cnt[l], lanes[l]->flops(cnt[l]), st);
  }
  if (collision) st.wall_coal_sec += seconds_since(t0);
}

void FastSbm::shard_rows(const exec::SplitPlan& sp, const exec::Range3& range,
                         std::vector<mem::ByteRange>* cell_rows) const {
  // Decompose each device-shard tile into maximal i-runs; a run of
  // consecutive i at fixed (k, j) is contiguous in field memory, and
  // ascending flat order implies ascending memory offsets, so the rows
  // arrive sorted and disjoint — the contract the batched region verbs
  // (update_to_ranges / take_ranges) require.  Offsets/lengths are in
  // cells of the shared scalar geometry; callers scale them to each
  // field's per-cell footprint, so the walk runs once per pass.
  cell_rows->clear();
  for (const std::int64_t t : sp.device_tiles) {
    std::int64_t f = sp.plan.tile_begin(t);
    const std::int64_t e = sp.plan.tile_end(t);
    while (f < e) {
      const exec::Range3::Cell c = range.cell(f);
      const std::int64_t run =
          std::min<std::int64_t>(e - f, range.i.hi - c.i + 1);
      cell_rows->push_back({call_coal_.index(c.i, c.k, c.j),
                            static_cast<std::uint64_t>(run)});
      f += run;
    }
  }
}

void FastSbm::pass_coal_hetero(std::size_t id, MicroState& state,
                               FsbmStats& st) {
  const exec::PassNode& node = graph_.node(id);
  const Lane& lane = impls_[id].lane;
  const auto t0 = Clock::now();
  const bool collapse3 = node.collapse == 3;

  // Predicate split over row tiles (one i-row per tile): the coal gate
  // is altitude-shaped — whole upper-level rows are predicate-false —
  // so row granularity is what lets the cheap remainder stay off the
  // device.  The cut is a pure function of (range, grain, call_coal_),
  // identical across shard concurrencies.
  const exec::Range3& range = node.range;
  exec::LaunchParams lp;
  lp.name = node.name.c_str();
  lp.collapse = node.collapse;
  lp.grain = range.i.size();
  lp.regs_per_thread = lane.regs_per_thread;
  lp.workspace_bytes_per_thread = lane.workspace_bytes_per_thread;
  const exec::TilePlan plan = exec::ExecSpace::plan_for(range, lp);
  const exec::SplitPlan sp = exec::split_plan(
      range, plan,
      [&](int i, int k, int j) { return call_coal_(i, k, j) != 0; });
  st.shard_cells_device += static_cast<std::uint64_t>(sp.device_cells);
  st.shard_cells_host += static_cast<std::uint64_t>(sp.host_cells);

  // Host shard: the predicate-false remainder, concurrent with the
  // device shard's upload + kernel.  Its lanes are Listing 6's gate and
  // nothing else; a nonzero predicate here means the split planner
  // leaked an active cell into the remainder, which the join below
  // turns into a hard error rather than silently dropped physics.
  std::atomic<std::uint64_t> strays{0};
  std::exception_ptr host_err;
  double host_wall = 0.0;
  std::thread host_thread([&] {
    const auto h0 = Clock::now();
    try {
      hetero_->host_shard().run_tile_list(
          sp.plan, sp.host_tiles, lp,
          [&](std::int64_t, std::int64_t b, std::int64_t e) {
            for (std::int64_t f = b; f < e; ++f) {
              const exec::Range3::Cell c = range.cell(f);
              if (call_coal_(c.i, c.k, c.j) != 0) {
                strays.fetch_add(1, std::memory_order_relaxed);
              }
            }
          });
    } catch (...) {
      host_err = std::current_exception();
    }
    host_wall = seconds_since(h0);
  });

  LaneCounters cnt;
  const auto d0 = Clock::now();
  try {
    if (!sp.device_tiles.empty()) {
      // Shard-granular h2d of the pass's reads under BOTH residency
      // modes: a res=step launch map_allocs per-launch transients (fully
      // host-dirty, so the ranged update moves exactly the shard's rows —
      // never the predicate-false remainder), and res=persist moves the
      // host-dirty bytes inside the shard rows only, leaving the rest
      // marked for whoever needs them later.  One row walk, scaled per
      // field to its per-cell bytes.
      std::vector<mem::ByteRange> cell_rows;
      shard_rows(sp, range, &cell_rows);
      {
        const gpu::TransferStats tx0 = device_->transfers();
        for (const mem::FieldId f : fields_of(node.reads)) {
          const std::uint64_t per_cell = region_->bytes(f) / call_coal_.size();
          std::vector<mem::ByteRange> rows;
          rows.reserve(cell_rows.size());
          for (const mem::ByteRange& r : cell_rows) {
            rows.push_back({r.off * per_cell, r.len * per_cell});
          }
          region_->update_to_ranges(f, rows);
        }
        st.charge_transfer_delta(tx0, device_->transfers());
      }

      // Device-shard lanes: collapse(3) runs one lane per shard cell,
      // collapse(2) one per shard (k, j) row with i inside.
      const auto each_cell = [&](std::int64_t it, const auto& fn) {
        if (collapse3) {
          const exec::Range3::Cell c = range.cell(sp.device_flat(it));
          fn(c.i, c.k, c.j);
          return;
        }
        const std::int64_t t = sp.device_tiles[static_cast<std::size_t>(it)];
        const exec::Range3::Cell c = range.cell(sp.plan.tile_begin(t));
        for (int i = range.i.lo; i <= range.i.hi; ++i) fn(i, c.k, c.j);
      };
      gpu::KernelDesc desc;
      desc.name = node.name;
      desc.collapse = node.collapse;
      desc.regs_per_thread = lane.regs_per_thread;
      desc.workspace_bytes_per_thread = lane.workspace_bytes_per_thread;
      desc.iterations =
          collapse3 ? sp.device_cells
                    : static_cast<std::int64_t>(sp.device_tiles.size());
      desc.body = [&](std::int64_t it) {
        each_cell(it, [&](int i, int k, int j) {
          (this->*lane.run)(state, i, k, j, cnt);
        });
      };
      desc.trace = [&](std::int64_t it, std::vector<gpu::AccessEvent>& out) {
        each_cell(it, [&](int i, int k, int j) {
          (this->*lane.trace)(state, i, k, j, out);
        });
      };
      desc.flops_total = [&]() { return lane.flops(cnt); };
      st.coal_kernel = device_space_->launch(desc);

      // d2h: the kernel's writes at bin-slice granularity through the
      // predicate (mark_coal_writes) — the host shard wrote nothing, so
      // this is exactly the bytes that changed hands.  res=step then
      // closes its per-launch transients.
      {
        const gpu::TransferStats tx0 = device_->transfers();
        mark_coal_writes(state);
        for (const mem::FieldId f : fields_of(node.writes)) {
          region_->update_from(f);
        }
        if (!persist()) region_->unmap_all();
        st.charge_transfer_delta(tx0, device_->transfers());
      }
    }
  } catch (...) {
    host_thread.join();
    throw;
  }
  st.shard_wall_device_sec += seconds_since(d0);

  host_thread.join();
  if (host_err) std::rethrow_exception(host_err);
  st.shard_wall_host_sec += host_wall;
  if (strays.load() != 0) {
    throw Error("FastSbm: hetero split leaked coal-active cells into the "
                "host shard");
  }

  lane.fold(cnt, lane.flops(cnt), st);
  st.wall_coal_sec += seconds_since(t0);
}

void FastSbm::pass_sedimentation(MicroState& state, FsbmStats& st) {
  const int nkr = bins_.nkr();
  const int nz = patch_.k.size();
  SedConfig cfg = params_.sed;
  cfg.dt = params_.dt;

  // Columns are independent: the collapse(2) shape of the paper's
  // sedimentation loops (k runs inside the column solver).  Dispatch the
  // (i, j) plane through the execution space; each column owns its cell
  // of `precip`, and stats go into per-tile FsbmStats partials.
  exec::LaunchParams lp;
  lp.name = "sedimentation";
  lp.collapse = 2;
  lp.grain = patch_.ip.size();  // one j-row of columns per tile
  const FsbmStats sum = exec_space().parallel_reduce<FsbmStats>(
      exec::Range3{patch_.ip, Range{0, 0}, patch_.jp}, lp,
      [&](FsbmStats& pt, int i, int /*k*/, int j) {
        // Per-thread column buffers (tiles never share a thread
        // mid-tile, and sediment_column fully overwrites them).
        thread_local std::vector<float> col;
        thread_local std::vector<double> rho_col;
        col.resize(static_cast<std::size_t>(nz) * nkr);
        rho_col.resize(static_cast<std::size_t>(nz));
        for (int iz = 0; iz < nz; ++iz) {
          rho_col[static_cast<std::size_t>(iz)] =
              state.rho(i, patch_.k.lo + iz, j);
        }
        // A column that is bulk-fidelity at every level sediments its
        // liquid through the Kessler column solver (rain carrier bin
        // only); its ice species still take the bin path below.  Mixed
        // columns stay fully on the bin path — the carrier bins fall
        // with their own bin velocities there, which is the price of a
        // column-local solver, and the fidelity rule promotes such
        // columns' wet cells anyway.
        const bool bulk_col =
            params_.phys != PhysScheme::kBin && column_all_bulk(i, j);
        if (bulk_col) {
          const double p = sediment_bulk_column(state, i, j, pt);
          state.precip(i, 0, j) =
              static_cast<float>(state.precip(i, 0, j) + p);
          pt.surface_precip += p;
        }
        for (int s = 0; s < kNumSpecies; ++s) {
          if (bulk_col && s == static_cast<int>(Species::kLiquid)) continue;
          auto& f = state.ff[static_cast<std::size_t>(s)];
          // Gather the column (bin-fastest slices per level).
          for (int iz = 0; iz < nz; ++iz) {
            std::memcpy(&col[static_cast<std::size_t>(iz) * nkr],
                        f.slice(i, patch_.k.lo + iz, j),
                        static_cast<std::size_t>(nkr) * sizeof(float));
          }
          const SedStats ss =
              sediment_column(bins_, static_cast<Species>(s), col.data(),
                              rho_col.data(), nz, cfg);
          for (int iz = 0; iz < nz; ++iz) {
            std::memcpy(f.slice(i, patch_.k.lo + iz, j),
                        &col[static_cast<std::size_t>(iz) * nkr],
                        static_cast<std::size_t>(nkr) * sizeof(float));
          }
          state.precip(i, 0, j) =
              static_cast<float>(state.precip(i, 0, j) + ss.surface_precip);
          pt.surface_precip += ss.surface_precip;
          pt.sed_flops += ss.flops;
          pt.sed_substeps += ss.substeps;
        }
      });
  st.merge(sum);
}

FsbmStats FastSbm::step(MicroState& state) {
  OBS_SPAN("fsbm", "fast_sbm",
           {{"version", version_name(version_)},
            {"groups", schedule_.groups.size()}});
  const auto t0 = Clock::now();
  FsbmStats st;
  const std::size_t launches0 =
      device_ != nullptr ? device_->launches().size() : 0;
  // The fidelity sweep is a step prologue, not a PassGraph node: it
  // reads only the liquid field + thermo and decides which scheme each
  // cell runs this step, so it must precede every pass and must never
  // fuse with one.  Under phys=bin it is skipped entirely — no extra
  // launches, no extra stats, bitwise-identical behavior to builds
  // without the knob.
  if (params_.phys != PhysScheme::kBin) pass_fidelity(state, st);
  // Walk the fusion schedule: host passes dispatch as themselves, the
  // predicate-split collision pass through its shards, and every other
  // group — one pass or a fused run of them — as one device launch.
  for (const auto& group : schedule_.groups) {
    const std::size_t id = group.front();
    const exec::PassNode& node = graph_.node(id);
    if (impls_[id].host != nullptr) {
      (this->*impls_[id].host)(state, st);
      // Residency: the nest's writes stale the device copy under a host
      // space, or advance it under exec=device (modeled device kernel).
      mark_written(fields_of(node.writes), exec_device_, &st);
    } else if (node.split) {
      pass_coal_hetero(id, state, st);
    } else {
      run_device_group(group, state, st);
    }
  }
  if (device_ != nullptr) {
    const std::uint64_t n =
        static_cast<std::uint64_t>(device_->launches().size() - launches0);
    st.kernel_launches += n;
    st.launch_latency_ms +=
        static_cast<double>(n) * device_->spec().kernel_launch_us / 1000.0;
  }
  st.wall_total_sec = seconds_since(t0);
  return st;
}

}  // namespace wrf::fsbm
