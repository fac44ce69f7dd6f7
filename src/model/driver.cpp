#include "model/driver.hpp"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>

#include "model/halo.hpp"
#include "model/knobs.hpp"
#include "obs/export.hpp"
#include "tune/artifact.hpp"

namespace wrf::model {

namespace {
using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-run observability session: owns the TraceSink, installs it as
/// the active sink for the stepping window (trace mode only), records
/// the per-step time series, and writes the export selected by the
/// knob.  Constructed after model init so the trace covers exactly the
/// transfers FsbmStats charges — what makes event-sum reconciliation
/// exact.  A mode=off session is inert.
class ObsRun {
 public:
  explicit ObsRun(const obs::ObsConfig& cfg) : cfg_(cfg) {
    if (cfg_.off()) return;
    sink_ = std::make_unique<obs::TraceSink>();
    if (cfg_.trace()) active_.emplace(sink_.get());
  }

  void record(int step, int rank, const StepStats& st) {
    if (!sink_) return;
    obs::StepRecord r;
    r.step = step;
    r.rank = rank;
    r.wall_sec = st.wall_sec;
    r.fsbm_wall_sec = st.fsbm.wall_total_sec;
    r.coal_wall_sec = st.fsbm.wall_coal_sec;
    r.halo_wall_sec = st.halo_wall_sec;
    r.halo_bytes = st.halo_bytes;
    r.h2d_bytes = st.fsbm.h2d_bytes;
    r.d2h_bytes = st.fsbm.d2h_bytes;
    r.kernel_launches = st.fsbm.kernel_launches;
    r.shard_cells_device = st.fsbm.shard_cells_device;
    r.shard_cells_host = st.fsbm.shard_cells_host;
    r.cells_bin = st.fsbm.cells_bin;
    r.cells_bulk = st.fsbm.cells_bulk;
    sink_->record_step(r);
  }

  /// Uninstall the sink and write the export.  Call after every rank
  /// thread has been joined (drain must not race live emitters).
  void finish(const RunResult& result) {
    if (!sink_) return;
    active_.reset();
    if (cfg_.trace()) {
      obs::write_chrome_trace(*sink_, cfg_.export_path());
    } else {
      obs::Registry reg;
      result.publish(reg);
      obs::write_metrics_jsonl(*sink_, reg, cfg_.export_path());
    }
  }

 private:
  obs::ObsConfig cfg_;
  std::unique_ptr<obs::TraceSink> sink_;
  std::optional<obs::ScopedActive> active_;
};

}  // namespace

void RunConfig::validate() const {
  if (nx < 8 || ny < 8 || nz < 6) {
    throw ConfigError("RunConfig: grid too small (need nx,ny>=8, nz>=6)");
  }
  if (nkr < 4 || nkr > fsbm::kMaxNkr) {
    throw ConfigError("RunConfig: nkr outside [4, kMaxNkr]");
  }
  if (npx < 1 || npy < 1) throw ConfigError("RunConfig: bad process grid");
  if (nx / npx < halo || ny / npy < halo) {
    throw ConfigError("RunConfig: patches narrower than the halo");
  }
  if (dt <= 0.0 || nsteps < 0) throw ConfigError("RunConfig: bad time axis");
  if (ngpus < 1) throw ConfigError("RunConfig: ngpus must be >= 1");
  for (const Knob& k : knobs()) k.check(*this);
  if (halo < dyn::kStencilWidth) {
    throw ConfigError("RunConfig: halo narrower than the advection stencil");
  }
  // The hybrid knob's own tunables are validated against nkr by the
  // scheme ctor (FastSbm), which knows the bin grid.
}

std::string RunConfig::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "grid %dx%dx%d dx=%.0fm dt=%.1fs nkr=%d ranks=%dx%d "
                "version=%s",
                nx, ny, nz, dx, dt, nkr, npx, npy,
                fsbm::version_name(version));
  std::string out = buf, when_set;
  // Rows not shown at their default (obs, tune) never change physics,
  // so default describe() strings — and the svc shape keys derived from
  // them — stay as they were before those knobs existed.
  static const RunConfig kDefaults;
  for (const Knob& k : knobs()) {
    if (k.shown_at_default) {
      out.append(" ").append(k.token(*this));
    } else if (k.print(*this) != k.print(kDefaults)) {
      when_set.append(" ").append(k.token(*this));
    }
  }
  return out.append(" ngpus=").append(std::to_string(ngpus)).append(when_set);
}

fsbm::FsbmParams RunConfig::scheme_params() const {
  fsbm::FsbmParams params = fsbm_params;
  params.dt = dt;
  params.sed.dz = dz;
  params.residency = res;
  params.fuse = fuse;
  params.phys = phys;
  return params;
}

RankModel::RankModel(const RunConfig& config, const grid::Patch& patch,
                     par::RankCtx* ctx)
    : config_(config), patch_(patch), ctx_(ctx),
      state_(patch, config.nkr) {
  // exec=device / exec=hetero need a simulated device even for
  // host-only versions (the hetero device shard exists either way; for
  // v0/v1 the split never fires and everything runs on the host shard).
  if (config_.offloaded() || config_.exec.kind == exec::ExecKind::kDevice ||
      config_.exec.kind == exec::ExecKind::kHetero) {
    device_ = std::make_unique<gpu::Device>(config_.device_spec);
    device_->set_stack_limit(config_.stack_bytes);
    device_->set_heap_limit(config_.heap_bytes);
  }
  exec_space_ = exec::make_space(config_.exec, device_.get());
  fsbm_ = std::make_unique<fsbm::FastSbm>(patch_, config_.nkr,
                                          config_.version,
                                          config_.scheme_params(),
                                          device_.get(), exec_space_.get());
  dyn::AdvConfig adv;
  adv.dx = config_.dx;
  adv.dy = config_.dx;
  adv.dz = config_.dz;
  rk3_ = std::make_unique<dyn::Rk3>(patch_, config_.nkr, adv, config_.dt,
                                    exec_space_.get(), config_.halo_mode);
  // The rank's halo plan: registration order defines the tag schedule,
  // so every rank registers qv then the bin fields, identically.  Under
  // res=persist the scheme's data region is bound in, so unpacked shell
  // strips mark sub-field dirty ranges instead of staling whole fields.
  halo_ = std::make_unique<HaloExchange>(patch_, exec_space_.get());
  const fsbm::FastSbm::ResidencyFields& rf = fsbm_->residency_fields();
  const bool persist = config_.res == mem::ResidencyMode::kPersist &&
                       fsbm_->region() != nullptr;
  if (persist) halo_->set_region(fsbm_->region());
  // Register the region field ids only under persist: they are what
  // makes the plan precompute and drive the dirty-strip updates.
  halo_->add(&state_.qv, persist ? rf.qv : mem::kInvalidField);
  for (int s = 0; s < fsbm::kNumSpecies; ++s) {
    halo_->add_bins(&state_.ff[static_cast<std::size_t>(s)],
                    persist ? rf.ff[static_cast<std::size_t>(s)]
                            : mem::kInvalidField);
  }
  dyn::AnalyticWinds winds;
  winds.domain = config_.domain();
  winds.dx = config_.dx;
  winds.dz = config_.dz;
  // Park the updraft on the squall line of the synthetic case.
  winds.yc = 0.42;
  winds.xc = 0.5;
  winds_ = dyn::WindTable(winds, patch_);
}

void RankModel::init() { init_case_conus(config_, state_); }

void RankModel::halo_begin(fsbm::MicroState& s, StepStats* st) {
  const auto t0 = Clock::now();
  if (ctx_ != nullptr && ctx_->size() > 1) {
    if (&s != &state_) {
      throw Error("RankModel: halo plan is bound to this rank's state");
    }
    const std::uint64_t bytes_before = ctx_->stats().bytes_sent;
    // res=persist: begin() may flush device-dirty send strips d2h
    // before packing — charge that residency traffic into the step's
    // transfer counters like every other modeled transfer.
    const gpu::TransferStats xfer_before =
        device_ != nullptr ? device_->transfers() : gpu::TransferStats{};
    halo_->begin(*ctx_);  // whole field set posted; sends happen here
    if (device_ != nullptr) {
      st->fsbm.charge_transfer_delta(xfer_before, device_->transfers());
    }
    st->halo_bytes += ctx_->stats().bytes_sent - bytes_before;
  }
  st->halo_wall_sec += seconds_since(t0);
}

void RankModel::halo_finish(fsbm::MicroState& s, StepStats* st,
                            dyn::LiveBins& live) {
  const auto t0 = Clock::now();
  if (ctx_ != nullptr && ctx_->size() > 1) {
    // res=persist: finish() only marks the unpacked shell strips
    // host-dirty — the consuming pass's charged update_to pulls them.
    halo_->finish(*ctx_);
    // Bins a neighbor's strips brought in join the live hulls (bin
    // fields are registered after qv, at indices 1..kNumSpecies).
    for (std::size_t f = 0; f < live.size(); ++f) {
      live[f] = dyn::hull_union(
          live[f], halo_->unpacked_bins(static_cast<int>(f) + 1));
    }
  }
  // Domain-edge boundary conditions (zero-gradient).  After the unpack:
  // the west/east fills read corner rows delivered by the exchange.  They
  // copy cells the hulls already cover, so the hulls need no widening.
  // Residency: these writes need no separate dirty marks — they are
  // covered by the full-field advection marks of the same step
  // (mark_advection_writes), on whichever side of the link the exec
  // space puts them.
  dyn::fill_domain_boundaries(patch_, s.qv);
  for (auto& f : s.ff) dyn::fill_domain_boundaries_bins(patch_, f);
  st->halo_wall_sec += seconds_since(t0);
}

void RankModel::mark_advection_writes(StepStats* st) {
  fsbm_->mark_transport_writes(&st->fsbm);
}

/// Adapter handing RankModel's phased halo refresh to dyn::Rk3, with the
/// per-step stats threaded through.  Each round's begin() first marks
/// the *previous* stage's advection writes (rk3 exchanges halos at the
/// top of every stage, so the round ships what the last update wrote);
/// round 0 skips the mark — its halo carries the previous step's state,
/// whose writers (fsbm passes, the final stage update) already marked.
struct RankHaloPhases final : dyn::HaloPhases {
  RankModel* model;
  StepStats* st;
  int round = 0;
  RankHaloPhases(RankModel* m, StepStats* s) : model(m), st(s) {}
  void begin(fsbm::MicroState& s) override {
    if (round++ > 0) model->mark_advection_writes(st);
    model->halo_begin(s, st);
  }
  void finish(fsbm::MicroState& s, dyn::LiveBins& live) override {
    model->halo_finish(s, st, live);
  }
};

StepStats RankModel::step() {
  StepStats st;
  const auto t0 = Clock::now();
  {
    OBS_SPAN("step", "solve_interval");
    RankHaloPhases phases(this, &st);
    st.dyn = rk3_->step(state_, winds_, phases);
    mark_advection_writes(&st);  // the final stage's update (no round follows)
    // merge, not assign: st.fsbm already carries the transport-flush
    // charges the halo rounds and the mark above deposited.
    st.fsbm.merge(fsbm_->step(state_));
  }
  st.wall_sec = seconds_since(t0);
  return st;
}

io::Snapshot RankModel::snapshot() const {
  // res=persist leaves the last device-side writes resident; a real port
  // flushes them before host-side output, so issue that final d2h here
  // (one flush, amortized over the run — steady-state per-step traffic
  // is unaffected).  The run helpers bracket this call and charge the
  // delta into the run totals.
  if (config_.res == mem::ResidencyMode::kPersist &&
      fsbm_->region() != nullptr) {
    fsbm_->region()->update_from_all();
  }
  io::Snapshot snap;
  const grid::Patch& p = patch_;
  const std::int64_t ni = p.ip.size(), nk = p.k.size(), nj = p.jp.size();
  auto dump3 = [&](const Field3D<float>& f, const char* name) {
    std::vector<float> data;
    data.reserve(static_cast<std::size_t>(ni * nk * nj));
    for (int j = p.jp.lo; j <= p.jp.hi; ++j)
      for (int k = p.k.lo; k <= p.k.hi; ++k)
        for (int i = p.ip.lo; i <= p.ip.hi; ++i) data.push_back(f(i, k, j));
    snap.add(name, {nj, nk, ni}, std::move(data));
  };
  dump3(state_.qv, "QVAPOR");
  dump3(state_.temp, "T");
  // Per-species condensate totals (fixed bin-order summation keeps the
  // result decomposition-invariant for bitwise tests).
  for (int s = 0; s < fsbm::kNumSpecies; ++s) {
    std::vector<float> data;
    data.reserve(static_cast<std::size_t>(ni * nk * nj));
    const auto& f = state_.ff[static_cast<std::size_t>(s)];
    for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
      for (int k = p.k.lo; k <= p.k.hi; ++k) {
        for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
          float q = 0.0f;
          const float* sl = f.slice(i, k, j);
          for (int n = 0; n < state_.bins.nkr(); ++n) q += sl[n];
          data.push_back(q);
        }
      }
    }
    snap.add(std::string("Q_") +
                 fsbm::species_name(static_cast<fsbm::Species>(s)),
             {nj, nk, ni}, std::move(data));
  }
  {
    std::vector<float> data;
    data.reserve(static_cast<std::size_t>(ni * nj));
    for (int j = p.jp.lo; j <= p.jp.hi; ++j)
      for (int i = p.ip.lo; i <= p.ip.hi; ++i)
        data.push_back(state_.precip(i, 0, j));
    snap.add("RAINNC", {nj, ni}, std::move(data));
  }
  return snap;
}

RunResult run_simulation(const RunConfig& config) {
  if (!config.tune.off()) {
    // Resolve tune= here, at the outermost entry, so every caller
    // (examples, benches, service lanes) gets tuned knobs; the spec is
    // cleared so the resolved config is indistinguishable from one with
    // the knobs set explicitly (the bitwise gate in tests/test_tune.cpp).
    RunConfig c = config;
    tune::apply(c);
    c.tune = tune::TuneSpec{};
    return run_simulation(c);
  }
  config.validate();
  const auto patches =
      grid::decompose(config.domain(), config.npx, config.npy, config.halo);

  RunResult result;
  result.snapshots.resize(static_cast<std::size_t>(config.nranks()));
  std::mutex mu;
  ObsRun obsrun(config.obs);
  const auto t0 = Clock::now();

  result.comm = par::run(config.nranks(), [&](par::RankCtx& ctx) {
    RankModel rank_model(config, patches[static_cast<std::size_t>(ctx.rank())],
                         &ctx);
    rank_model.init();
    StepStats local;
    for (int s = 0; s < config.nsteps; ++s) {
      StepStats st = rank_model.step();
      obsrun.record(s, ctx.rank(), st);
      local.merge(st);
      ctx.barrier();  // WRF's implicit per-step synchronization
    }
    // snapshot()'s res=persist pre-output flush is a modeled transfer
    // like any other: charge it so run totals reconcile with the
    // device-level TransferStats.
    const gpu::TransferStats snap_t0 = rank_model.device() != nullptr
                                           ? rank_model.device()->transfers()
                                           : gpu::TransferStats{};
    io::Snapshot snap = rank_model.snapshot();
    if (rank_model.device() != nullptr) {
      local.fsbm.charge_transfer_delta(snap_t0,
                                       rank_model.device()->transfers());
    }
    std::lock_guard<std::mutex> lk(mu);
    result.totals.merge(local);
    result.snapshots[static_cast<std::size_t>(ctx.rank())] = std::move(snap);
    if (local.fsbm.coal_kernel) {
      result.last_coal_kernel = local.fsbm.coal_kernel;
    }
    result.pool_bytes_per_rank = rank_model.scheme().pool_bytes();
    result.resident_bytes_per_rank = rank_model.scheme().resident_bytes();
  });
  result.wall_sec = seconds_since(t0);
  obsrun.finish(result);  // rank threads joined by par::run — safe to drain
  return result;
}

std::uint64_t state_hash(const RunResult& result) {
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = kOffset;
  auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t n = 0; n < bytes; ++n) {
      h ^= p[n];
      h *= kPrime;
    }
  };
  for (const io::Snapshot& snap : result.snapshots) {
    for (const io::Variable& v : snap.variables()) {
      mix(v.name.data(), v.name.size());
      mix(v.data.data(), v.data.size() * sizeof(float));
    }
  }
  return h;
}

RunResult run_single(const RunConfig& config) {
  RunConfig c = config;
  c.npx = 1;
  c.npy = 1;
  if (!c.tune.off()) {
    // After the single-rank normalization (the artifact shape key
    // includes the rank grid), same resolution as run_simulation.
    tune::apply(c);
    c.tune = tune::TuneSpec{};
  }
  c.validate();
  const auto patches = grid::decompose(c.domain(), 1, 1, c.halo);
  RunResult result;
  const auto t0 = Clock::now();
  RankModel rank_model(c, patches[0], nullptr);
  rank_model.init();
  ObsRun obsrun(c.obs);
  for (int s = 0; s < c.nsteps; ++s) {
    StepStats st = rank_model.step();
    obsrun.record(s, 0, st);
    result.totals.merge(st);
  }
  // Charge snapshot()'s res=persist pre-output flush (see run_simulation).
  const gpu::TransferStats snap_t0 = rank_model.device() != nullptr
                                         ? rank_model.device()->transfers()
                                         : gpu::TransferStats{};
  result.snapshots.push_back(rank_model.snapshot());
  if (rank_model.device() != nullptr) {
    result.totals.fsbm.charge_transfer_delta(snap_t0,
                                             rank_model.device()->transfers());
  }
  if (result.totals.fsbm.coal_kernel) {
    result.last_coal_kernel = result.totals.fsbm.coal_kernel;
  }
  result.pool_bytes_per_rank = rank_model.scheme().pool_bytes();
  result.resident_bytes_per_rank = rank_model.scheme().resident_bytes();
  result.wall_sec = seconds_since(t0);
  obsrun.finish(result);
  return result;
}

// The wrfbench/ compatibility overloads (see prof::Profiler).
StepStats RankModel::step(prof::Profiler&) { return step(); }
RunResult run_simulation(const RunConfig& c, prof::Profiler&) {
  return run_simulation(c);
}
RunResult run_single(const RunConfig& c, prof::Profiler&) {
  return run_single(c);
}

void RunResult::publish(obs::Registry& reg) const {
  totals.fsbm.publish(reg);
  comm.publish(reg);
  reg.counter("wrf_dyn_cells_total",
              static_cast<double>(totals.dyn.tend.cells),
              {{"phase", "tend"}});
  reg.counter("wrf_dyn_cells_total",
              static_cast<double>(totals.dyn.update.cells),
              {{"phase", "update"}});
  reg.counter("wrf_dyn_flops_total", totals.dyn.tend.flops,
              {{"phase", "tend"}});
  reg.counter("wrf_dyn_flops_total", totals.dyn.update.flops,
              {{"phase", "update"}});
  reg.counter("wrf_halo_bytes_total",
              static_cast<double>(totals.halo_bytes));
  reg.counter("wrf_halo_wall_seconds_total", totals.halo_wall_sec);
  reg.counter("wrf_step_wall_seconds_total", totals.wall_sec);
  reg.gauge("wrf_run_wall_seconds", wall_sec);
  reg.gauge("wrf_run_pool_bytes_per_rank",
            static_cast<double>(pool_bytes_per_rank));
  reg.gauge("wrf_run_resident_bytes_per_rank",
            static_cast<double>(resident_bytes_per_rank));
  reg.gauge("wrf_run_device_shard_fraction", device_shard_fraction());
}

}  // namespace wrf::model
