#include "gpu/device.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/trace.hpp"
#include "par/thread_pool.hpp"

namespace wrf::gpu {

void TransferStats::publish(obs::Registry& reg) const {
  reg.counter("wrf_device_bytes_total", static_cast<double>(h2d_bytes),
              {{"dir", "h2d"}});
  reg.counter("wrf_device_bytes_total", static_cast<double>(d2h_bytes),
              {{"dir", "d2h"}});
  reg.counter("wrf_device_transfers_total", static_cast<double>(h2d_count),
              {{"dir", "h2d"}});
  reg.counter("wrf_device_transfers_total", static_cast<double>(d2h_count),
              {{"dir", "d2h"}});
  reg.counter("wrf_device_alloc_bytes_total",
              static_cast<double>(alloc_bytes));
  reg.counter("wrf_device_transfer_modeled_ms_total", modeled_time_ms);
}

DeviceSpec DeviceSpec::a100_40gb() {
  DeviceSpec d;
  d.name = "NVIDIA A100-SXM4-40GB (simulated)";
  return d;  // defaults are the A100 values
}

DeviceSpec DeviceSpec::test_device() {
  DeviceSpec d;
  d.name = "gpusim-test";
  d.num_sms = 4;
  d.regs_per_sm = 8192;
  d.l1_bytes = 16 * 1024;
  d.l2_bytes = 256 * 1024;
  d.dram_bytes = 1ull << 30;
  d.dram_bw_gbs = 100.0;
  d.l2_bw_gbs = 300.0;
  d.peak_sp_gflops = 1000.0;
  d.peak_dp_gflops = 500.0;
  return d;
}

Occupancy compute_occupancy(const DeviceSpec& dev, std::int64_t total_blocks,
                            int threads_per_block, int regs_per_thread) {
  if (threads_per_block <= 0 || threads_per_block % dev.warp_size != 0) {
    throw ConfigError("compute_occupancy: threads_per_block must be a "
                      "positive multiple of the warp size");
  }
  Occupancy occ;
  const int warps_per_block = threads_per_block / dev.warp_size;

  const int by_warps = dev.max_warps_per_sm / warps_per_block;
  const int by_blocks = dev.max_blocks_per_sm;
  const std::uint32_t regs_per_block =
      static_cast<std::uint32_t>(std::max(regs_per_thread, 1)) *
      static_cast<std::uint32_t>(threads_per_block);
  const int by_regs =
      static_cast<int>(dev.regs_per_sm / std::max<std::uint32_t>(regs_per_block, 1));

  occ.blocks_per_sm_resource = std::max(0, std::min({by_warps, by_blocks, by_regs}));
  if (occ.blocks_per_sm_resource == 0) {
    occ.limiter = "registers";
    return occ;  // kernel cannot launch even one block per SM -> occ 0
  }
  if (by_regs <= by_warps && by_regs <= by_blocks) occ.limiter = "registers";
  else if (by_warps <= by_blocks) occ.limiter = "warps";
  else occ.limiter = "blocks";

  occ.theoretical =
      static_cast<double>(occ.blocks_per_sm_resource * warps_per_block) /
      dev.max_warps_per_sm;

  // Achieved occupancy: the grid may not supply enough blocks to fill
  // every SM to the resource limit.  This is precisely what happens with
  // the paper's collapse(2) launch (j*k blocks only -> 4.63%).
  const double blocks_per_sm_avail =
      static_cast<double>(total_blocks) / dev.num_sms;
  occ.blocks_per_sm_achieved =
      std::min<double>(occ.blocks_per_sm_resource, blocks_per_sm_avail);
  if (blocks_per_sm_avail < occ.blocks_per_sm_resource) occ.limiter = "grid";
  occ.resident_warps_per_sm = occ.blocks_per_sm_achieved * warps_per_block;
  occ.achieved = occ.resident_warps_per_sm / dev.max_warps_per_sm;
  return occ;
}

double roofline_gflops(const DeviceSpec& dev, double ai,
                       bool double_precision) {
  const double peak = double_precision ? dev.peak_dp_gflops : dev.peak_sp_gflops;
  return std::min(peak, ai * dev.dram_bw_gbs);
}

Device::Device(DeviceSpec spec, par::ThreadPool* pool)
    : spec_(std::move(spec)),
      pool_(pool != nullptr ? pool : &par::shared_pool()),
      stack_limit_(spec_.default_stack_bytes),
      heap_limit_(spec_.default_heap_bytes) {}

void Device::check_capacity(std::uint64_t bytes, const std::string& what) const {
  if (allocated_ + bytes > spec_.dram_bytes) {
    throw DeviceError(
        DeviceError::kOutOfMemory,
        "CUDA error: out of memory (" + what + " of " +
            std::to_string(bytes) + " B on top of " +
            std::to_string(allocated_) + " B allocated exceeds " +
            std::to_string(spec_.dram_bytes) + " B capacity on " + spec_.name +
            ")");
  }
}

void Device::update_to(std::uint64_t bytes) {
  transfers_.h2d_bytes += bytes;
  ++transfers_.h2d_count;
  transfers_.modeled_time_ms +=
      static_cast<double>(bytes) / (spec_.host_link_gbs * 1e6);
  // Every h2d byte flows through here (map_to included), so the summed
  // xfer events reconcile exactly with TransferStats and FsbmStats.
  if (obs::TraceSink* sink = obs::active()) {
    sink->instant("xfer", "h2d", {{"bytes", bytes}});
  }
}

void Device::update_from(std::uint64_t bytes) {
  transfers_.d2h_bytes += bytes;
  ++transfers_.d2h_count;
  transfers_.modeled_time_ms +=
      static_cast<double>(bytes) / (spec_.host_link_gbs * 1e6);
  if (obs::TraceSink* sink = obs::active()) {
    sink->instant("xfer", "d2h", {{"bytes", bytes}});
  }
}

void Device::map_to(std::uint64_t bytes) {
  check_capacity(bytes, "transient map(to:)");
  update_to(bytes);
}

void Device::map_from(std::uint64_t bytes) {
  check_capacity(bytes, "transient map(from:)");
  update_from(bytes);
}

void Device::enter_data_alloc(std::uint64_t bytes) {
  check_capacity(bytes, "device allocation");
  allocated_ += bytes;
  transfers_.alloc_bytes += bytes;
}

void Device::exit_data_delete(std::uint64_t bytes) {
  allocated_ = bytes > allocated_ ? 0 : allocated_ - bytes;
}

void Device::alloc_named(const std::string& name, std::uint64_t bytes) {
  if (named_.count(name) != 0) {
    throw Error("Device::alloc_named: '" + name + "' already allocated");
  }
  check_capacity(bytes, "persistent allocation '" + name + "'");
  named_[name] = bytes;
  allocated_ += bytes;
  transfers_.alloc_bytes += bytes;
}

void Device::free_named(const std::string& name) {
  const auto it = named_.find(name);
  if (it == named_.end()) {
    throw Error("Device::free_named: no allocation named '" + name + "'");
  }
  allocated_ = it->second > allocated_ ? 0 : allocated_ - it->second;
  named_.erase(it);
}

bool Device::has_named(const std::string& name) const {
  return named_.count(name) != 0;
}

std::uint64_t Device::named_bytes(const std::string& name) const {
  const auto it = named_.find(name);
  return it == named_.end() ? 0 : it->second;
}

namespace {
/// Average memory-access latency given cache hit rates, ns.
double avg_latency_ns(double l1_hit, double l2_hit) {
  constexpr double kL1Ns = 25.0, kL2Ns = 120.0, kDramNs = 350.0;
  return l1_hit * kL1Ns +
         (1.0 - l1_hit) * (l2_hit * kL2Ns + (1.0 - l2_hit) * kDramNs);
}
}  // namespace

double Device::model_time_ms(const KernelDesc& desc, const Occupancy& occ,
                             double dram_bytes, double l2_bytes,
                             double l1_hit, double l2_hit, bool traced,
                             const char** bound) const {
  // Effective throughput scales with how much latency the resident warps
  // can hide.  Saturation points (fractions of full occupancy) follow the
  // usual CUDA guidance: memory pipes saturate around 25-30% occupancy,
  // compute pipes around 50%.
  const double occ_f = std::max(occ.achieved, 1e-4);
  const double mem_eff = std::min(1.0, occ_f / 0.25);
  const double cmp_eff = std::min(1.0, occ_f / 0.50);

  const double peak =
      desc.double_precision ? spec_.peak_dp_gflops : spec_.peak_sp_gflops;
  const double flops = desc.flops_per_iter * static_cast<double>(desc.iterations);

  const double t_cmp_ms = flops / (peak * 1e6 * std::max(cmp_eff, 1e-4));
  const double t_dram_ms =
      dram_bytes / (spec_.dram_bw_gbs * 1e6 * std::max(mem_eff, 1e-4));
  const double t_l2_ms =
      l2_bytes / (spec_.l2_bw_gbs * 1e6 * std::max(mem_eff, 1e-4));

  double t = std::max({t_cmp_ms, t_dram_ms, t_l2_ms});
  *bound = (t == t_cmp_ms) ? "compute" : "memory";

  const double resident_total =
      std::max(1.0, std::min(static_cast<double>(desc.iterations),
                             occ.resident_warps_per_sm * spec_.warp_size *
                                 spec_.num_sms));
  double t_lat_ms;
  if (traced) {
    // Dependent-chain model: FSBM-style kernels issue mostly dependent
    // loads (table lookups feeding arithmetic), so a thread progresses
    // at ~1 FLOP per `ns_per_flop`, set by the average access latency
    // and limited ILP.  Total serial work spreads over the resident
    // thread population — this is what makes the grid-starved
    // collapse(2) launch two orders of magnitude slower than the
    // throughput bound would suggest (Table VI's 335.85 ms).
    constexpr double kAccessesPerFlop = 2.0;
    constexpr double kIlp = 0.6;
    const double ns_per_flop =
        1.0 + kAccessesPerFlop * avg_latency_ns(l1_hit, l2_hit) / kIlp;
    t_lat_ms = static_cast<double>(desc.iterations) * desc.flops_per_iter *
               ns_per_flop / resident_total / 1.0e6;
  } else {
    // Without a trace we only know the launch geometry: use a fixed
    // per-iteration issue latency floor.
    constexpr double kIterLatencyUs = 2.0;
    t_lat_ms = static_cast<double>(desc.iterations) * kIterLatencyUs /
               resident_total / 1e3;
  }
  if (t_lat_ms > t) {
    t = t_lat_ms;
    *bound = "latency";
  }
  return t + spec_.kernel_launch_us / 1e3;
}

KernelStats Device::launch(const KernelDesc& desc) {
  if (desc.iterations < 0) throw ConfigError("Device::launch: negative grid");
  if (desc.body && desc.grain < 1) {
    throw ConfigError("Device::launch: grain must be >= 1");
  }
  if (desc.stack_bytes_per_thread > stack_limit_) {
    throw DeviceError(
        DeviceError::kLaunchOutOfStack,
        "CUDA error 719: call stack overflow in kernel '" + desc.name +
            "': per-thread stack demand " +
            std::to_string(desc.stack_bytes_per_thread) +
            " B exceeds limit " + std::to_string(stack_limit_) +
            " B (raise NV_ACC_CUDA_STACKSIZE / Device::set_stack_limit, or "
            "hoist automatic arrays into pooled device arrays)");
  }

  // Heap check: automatic arrays are malloc'ed per resident thread at
  // kernel entry.  Resident count is resource-limited (occupancy) but
  // never more than the grid supplies.
  if (desc.workspace_bytes_per_thread > 0) {
    const std::int64_t blocks =
        (desc.iterations + desc.threads_per_block - 1) /
        std::max(desc.threads_per_block, 1);
    const Occupancy pre = compute_occupancy(
        spec_, blocks, desc.threads_per_block, desc.regs_per_thread);
    const double resident_threads =
        std::min<double>(static_cast<double>(desc.iterations),
                         pre.resident_warps_per_sm * spec_.warp_size *
                             spec_.num_sms);
    const double demand = resident_threads *
                          static_cast<double>(desc.workspace_bytes_per_thread);
    if (demand > static_cast<double>(heap_limit_)) {
      throw DeviceError(
          DeviceError::kOutOfMemory,
          "CUDA error: out of memory in kernel '" + desc.name +
              "': automatic-array workspace needs " +
              std::to_string(static_cast<std::uint64_t>(demand)) +
              " B of device heap for " +
              std::to_string(static_cast<std::int64_t>(resident_threads)) +
              " resident threads, heap limit is " +
              std::to_string(heap_limit_) +
              " B (raise NV_ACC_CUDA_HEAPSIZE / Device::set_heap_limit, or "
              "hoist automatic arrays into pooled device arrays)");
    }
  }

  KernelStats ks;
  ks.name = desc.name;
  ks.iterations = desc.iterations;
  ks.fused_passes = desc.fused_passes < 1 ? 1 : desc.fused_passes;

  obs::Span span(obs::active(), "kernel", desc.name,
                 {{"iters", desc.iterations},
                  {"fused_passes", ks.fused_passes}});

  // --- functional execution on the host pool ---
  const auto t0 = std::chrono::steady_clock::now();
  if (desc.body && desc.iterations > 0) {
    const std::int64_t grain = desc.grain;
    pool_->parallel_for(0, (desc.iterations + grain - 1) / grain,
                        [&](std::int64_t b) {
                          desc.body(b * grain, std::min(desc.iterations,
                                                        (b + 1) * grain));
                        });
  }
  ks.wall_time_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();

  // --- performance model ---
  const std::int64_t total_blocks =
      (desc.iterations + desc.threads_per_block - 1) /
      std::max(desc.threads_per_block, 1);
  ks.occupancy = compute_occupancy(spec_, total_blocks, desc.threads_per_block,
                                   desc.regs_per_thread);

  double dram_bytes = desc.bytes_per_iter * static_cast<double>(desc.iterations);
  double l2_bytes = dram_bytes;
  auto cached = trace_cache_.find(desc.name);
  const bool cache_ok =
      !trace_always_ && cached != trace_cache_.end() &&
      desc.iterations > 0 &&
      cached->second.iterations > desc.iterations / 2 &&
      cached->second.iterations < desc.iterations * 2;
  if (desc.trace && cache_ok) {
    const TraceCache& tc = cached->second;
    ks.l1_hit_rate = tc.l1_hit;
    ks.l2_hit_rate = tc.l2_hit;
    ks.dram_read_gb =
        tc.dram_read_per_iter * static_cast<double>(desc.iterations) / 1e9;
    ks.dram_write_gb =
        tc.dram_write_per_iter * static_cast<double>(desc.iterations) / 1e9;
    dram_bytes = (ks.dram_read_gb + ks.dram_write_gb) * 1e9;
    l2_bytes = tc.l2_bytes_per_iter * static_cast<double>(desc.iterations);
  } else if (desc.trace && desc.iterations > 0) {
    // Sample iterations, interleave them as resident warps on one SM
    // would interleave, and replay through a one-SM-slice hierarchy.
    // The sample emulates steady state on a single SM; rates extrapolate
    // to the full device because SM populations are statistically alike.
    const std::int64_t sample =
        std::min<std::int64_t>(desc.iterations, sample_budget_);
    std::vector<std::vector<AccessEvent>> traces(
        static_cast<std::size_t>(sample));
    // Stride sampling covers the whole index space (active and inactive
    // cells alike), preserving the activity ratio of the real grid.
    const std::int64_t stride = std::max<std::int64_t>(1, desc.iterations / sample);
    double sampled_bytes = 0.0;
    for (std::int64_t s = 0; s < sample; ++s) {
      desc.trace(s * stride, traces[static_cast<std::size_t>(s)]);
      for (const auto& ev : traces[static_cast<std::size_t>(s)]) {
        sampled_bytes += ev.bytes;
      }
    }

    // Interleaving width = threads resident on one SM.
    const int resident_threads = std::max(
        1, static_cast<int>(ks.occupancy.resident_warps_per_sm + 0.999) *
               spec_.warp_size);
    // One SM slice of the hierarchy: private L1 plus the SM's fair share
    // of L2 (rounded to keep sets x ways integral).
    std::uint64_t l2_slice = spec_.l2_bytes / spec_.num_sms;
    const std::uint64_t gran =
        static_cast<std::uint64_t>(spec_.line_bytes) * spec_.l2_ways;
    l2_slice = std::max(gran, l2_slice / gran * gran);
    Hierarchy hier(1, spec_.l1_bytes, spec_.l1_ways, l2_slice, spec_.l2_ways,
                   spec_.line_bytes);
    std::vector<std::size_t> cursor(static_cast<std::size_t>(sample), 0);
    bool progress = true;
    // Round-robin one access per resident thread per sweep; threads beyond
    // the resident set only start once earlier ones finish (wave model).
    std::int64_t window_lo = 0;
    while (progress) {
      progress = false;
      const std::int64_t window_hi =
          std::min<std::int64_t>(sample, window_lo + resident_threads);
      bool window_done = true;
      for (std::int64_t t = window_lo; t < window_hi; ++t) {
        auto& tr = traces[static_cast<std::size_t>(t)];
        auto& cur = cursor[static_cast<std::size_t>(t)];
        if (cur < tr.size()) {
          hier.access(0, tr[cur].addr, tr[cur].bytes, tr[cur].write);
          ++cur;
          progress = true;
          if (cur < tr.size()) window_done = false;
        }
      }
      if (window_done && window_hi < sample) {
        window_lo = window_hi;
        progress = true;
      }
    }

    const auto l1 = hier.l1_stats();
    const auto& l2 = hier.l2_stats();
    ks.l1_hit_rate = l1.hit_rate();
    ks.l2_hit_rate = l2.hit_rate();
    const double scale =
        sampled_bytes > 0.0
            ? (desc.bytes_per_iter > 0.0
                   ? desc.bytes_per_iter * static_cast<double>(desc.iterations) /
                         sampled_bytes
                   : static_cast<double>(desc.iterations) / sample)
            : 0.0;
    dram_bytes = (static_cast<double>(hier.dram_read_bytes()) +
                  static_cast<double>(hier.dram_write_bytes())) *
                 scale;
    l2_bytes = static_cast<double>(l1.misses) * spec_.line_bytes * scale;
    ks.dram_read_gb = static_cast<double>(hier.dram_read_bytes()) * scale / 1e9;
    ks.dram_write_gb =
        static_cast<double>(hier.dram_write_bytes()) * scale / 1e9;
    TraceCache tc;
    tc.iterations = desc.iterations;
    tc.l1_hit = ks.l1_hit_rate;
    tc.l2_hit = ks.l2_hit_rate;
    tc.dram_read_per_iter =
        ks.dram_read_gb * 1e9 / static_cast<double>(desc.iterations);
    tc.dram_write_per_iter =
        ks.dram_write_gb * 1e9 / static_cast<double>(desc.iterations);
    tc.l2_bytes_per_iter = l2_bytes / static_cast<double>(desc.iterations);
    trace_cache_[desc.name] = tc;
  } else {
    ks.dram_read_gb = dram_bytes * 0.6 / 1e9;
    ks.dram_write_gb = dram_bytes * 0.4 / 1e9;
  }

  ks.flops = desc.flops_total
                 ? desc.flops_total()
                 : desc.flops_per_iter * static_cast<double>(desc.iterations);
  KernelDesc priced = desc;
  priced.flops_per_iter =
      desc.iterations > 0 ? ks.flops / static_cast<double>(desc.iterations)
                          : 0.0;
  priced.flops_total = nullptr;
  const bool traced = static_cast<bool>(desc.trace);
  ks.modeled_time_ms =
      model_time_ms(priced, ks.occupancy, dram_bytes, l2_bytes,
                    ks.l1_hit_rate, ks.l2_hit_rate, traced, &ks.bound);
  ks.arithmetic_intensity = dram_bytes > 0.0 ? ks.flops / dram_bytes : 0.0;
  ks.gflops_achieved =
      ks.modeled_time_ms > 0.0 ? ks.flops / (ks.modeled_time_ms * 1e6) : 0.0;

  total_kernel_ms_ += ks.modeled_time_ms;
  launches_.push_back(ks);
  span.arg("modeled_us",
           static_cast<std::int64_t>(ks.modeled_time_ms * 1e3));
  return ks;
}

void Device::reset_stats() {
  launches_.clear();
  transfers_ = TransferStats{};
  total_kernel_ms_ = 0.0;
}

}  // namespace wrf::gpu
