#pragma once
// gpusim: a simulated OpenMP-offload target device.
//
// We do not have GPUs in this environment, so the paper's A100 is
// replaced by an explicit device model.  A kernel launch does two things:
//
//   1. *Functional execution*: the kernel body runs for every iteration
//      on a host thread pool, producing bit-for-bit the physics the GPU
//      code path would produce (modulo FMA contraction, which we emulate
//      by using std::fma in device code paths — this is what gives the
//      paper's 3-6 digit diffwrf agreement its analogue here).
//
//   2. *Performance modeling*: an occupancy model (registers, block size,
//      grid size vs. SM resources), a sampled trace-driven cache
//      hierarchy simulation (per-SM L1, shared L2 -> DRAM), and a
//      roofline-style timing model combine into the modeled kernel time
//      and the Nsight-Compute-style metrics of Table VI.
//
// The data environment mirrors OpenMP device data management: `map_to`,
// `map_from`, `enter_data_alloc` (the paper's `!$omp target enter data
// map(alloc: fl1_temp)`), with transfer costs and a device memory
// capacity limit.  Per-thread stack demand is checked at launch against
// the configured stack limit; exceeding it raises the same failure the
// paper hit with automatic arrays in `coal_bott_new` (fixed there by
// NV_ACC_CUDA_STACKSIZE=65536 and ultimately by pooling the arrays).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gpu/cache.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace wrf::par {
class ThreadPool;
}

namespace wrf::gpu {

/// Static hardware description.  `a100_40gb()` matches the Perlmutter
/// node GPU the paper uses (108 SMs, 9.7/19.5 TFLOP/s DP/SP, 1555 GB/s).
struct DeviceSpec {
  std::string name;
  int num_sms = 108;
  int max_threads_per_sm = 2048;
  int max_blocks_per_sm = 32;
  int max_warps_per_sm = 64;
  int warp_size = 32;
  std::uint32_t regs_per_sm = 65536;
  std::uint64_t l1_bytes = 192 * 1024;       ///< unified L1/shmem per SM
  std::uint32_t l1_ways = 8;
  std::uint64_t l2_bytes = 40ull << 20;      ///< 40 MB device L2
  std::uint32_t l2_ways = 16;
  std::uint32_t line_bytes = 64;
  std::uint64_t dram_bytes = 40ull << 30;    ///< HBM capacity
  double dram_bw_gbs = 1555.0;               ///< HBM bandwidth
  double l2_bw_gbs = 4500.0;
  double peak_sp_gflops = 19500.0;
  double peak_dp_gflops = 9700.0;
  double host_link_gbs = 25.0;               ///< PCIe 4.0 x16 effective
  double kernel_launch_us = 8.0;             ///< fixed launch latency
  std::uint64_t default_stack_bytes = 8192;  ///< per-thread stack limit
  /// Device-side malloc pool (CUDA heap).  nvfortran places large
  /// automatic arrays here; the paper raises it with
  /// NV_ACC_CUDA_HEAPSIZE=64MB after hitting a memory error (§VI-B).
  std::uint64_t default_heap_bytes = 8ull << 20;

  static DeviceSpec a100_40gb();
  /// Small fictional device for fast unit tests.
  static DeviceSpec test_device();
};

/// Occupancy computation result (theoretical = resource limits only;
/// achieved additionally accounts for how many blocks the grid supplies).
struct Occupancy {
  int blocks_per_sm_resource = 0;  ///< limited by regs/warps/blocks
  double blocks_per_sm_achieved = 0.0;
  double resident_warps_per_sm = 0.0;
  double theoretical = 0.0;  ///< fraction of max warps, resource-limited
  double achieved = 0.0;     ///< fraction of max warps, grid-limited too
  const char* limiter = "";  ///< "registers" | "warps" | "blocks" | "grid"
};

/// Compute occupancy for a launch of `total_blocks` blocks of
/// `threads_per_block` threads using `regs_per_thread` registers.
Occupancy compute_occupancy(const DeviceSpec& dev, std::int64_t total_blocks,
                            int threads_per_block, int regs_per_thread);

/// Description of one offloaded loop nest (one `target teams distribute
/// parallel do collapse(n)` region).
struct KernelDesc {
  std::string name;
  std::int64_t iterations = 0;  ///< collapsed loop trip count
  int collapse = 2;             ///< bookkeeping only; trip count rules
  int threads_per_block = 128;  ///< nvfortran default team size
  int regs_per_thread = 64;
  std::uint64_t stack_bytes_per_thread = 0;  ///< fixed-size locals, spills
  /// Dynamically sized automatic arrays: allocated per *resident* thread
  /// from the device heap at kernel entry.  A collapse(3) launch keeps
  /// orders of magnitude more threads resident than collapse(2), which is
  /// how the paper's memory error appears only at full collapse.
  std::uint64_t workspace_bytes_per_thread = 0;
  bool double_precision = false;

  /// Functional body (may be empty for perf-model-only launches), run
  /// on the device's host pool with iteration ranges [lo, hi) that
  /// cover [0, iterations) exactly once: the consecutive blocks of
  /// `grain` iterations (the last one short).  The cut depends only on
  /// `iterations` and `grain`, never on the pool's size; blocks run
  /// concurrently in any order.  A range lets one host core advance
  /// several lanes in lockstep, as a warp does (see gather_lanes).
  std::function<void(std::int64_t lo, std::int64_t hi)> body;
  /// Iterations per range; must be >= 1 when `body` is set.
  std::int64_t grain = 0;

  /// Average floating-point operations per iteration (for the roofline).
  double flops_per_iter = 0.0;

  /// Optional: exact FLOP total, queried after the functional execution
  /// (for kernels whose work is data-dependent, like the
  /// conditionally-active collision loop).  Overrides flops_per_iter.
  std::function<double()> flops_total;

  /// Optional trace generator: append the memory accesses iteration
  /// `iter` performs.  The device samples iterations and replays traces
  /// through the cache hierarchy; when absent, hit rates default to 0 and
  /// DRAM traffic to `bytes_per_iter`.
  std::function<void(std::int64_t iter, std::vector<AccessEvent>&)> trace;

  /// Fallback DRAM bytes per iteration when no trace is supplied.
  double bytes_per_iter = 0.0;

  /// Number of logical passes this launch executes back to back per
  /// lane (cross-pass fusion: cond+coal fused => 2).  Bookkeeping for
  /// launch-count accounting; 1 for ordinary launches.
  int fused_passes = 1;
};

/// A body's lockstep gather: walk [lo, hi) in order, collect
/// the iterations `pick(it)` accepts, and hand them to `run(its, n)` in
/// groups of n <= W (only the last group may be short).  The grouping
/// is a pure function of the range and the predicate, so it is the same
/// on any pool.
template <int W, class Pick, class Run>
void gather_lanes(std::int64_t lo, std::int64_t hi, Pick&& pick, Run&& run) {
  std::int64_t its[W];
  int n = 0;
  for (std::int64_t it = lo; it < hi; ++it) {
    if (!pick(it)) continue;
    its[n++] = it;
    if (n == W) {
      run(static_cast<const std::int64_t*>(its), n);
      n = 0;
    }
  }
  if (n > 0) run(static_cast<const std::int64_t*>(its), n);
}

/// Nsight-Compute-style metrics for one launch (paper Table VI).
struct KernelStats {
  std::string name;
  std::int64_t iterations = 0;
  double modeled_time_ms = 0.0;
  double wall_time_ms = 0.0;  ///< host time for the functional execution
  Occupancy occupancy;
  double l1_hit_rate = 0.0;
  double l2_hit_rate = 0.0;
  double dram_read_gb = 0.0;
  double dram_write_gb = 0.0;
  double flops = 0.0;
  double arithmetic_intensity = 0.0;  ///< flops / DRAM bytes
  double gflops_achieved = 0.0;       ///< flops / modeled time
  const char* bound = "";             ///< "memory" | "compute" | "latency"
  int fused_passes = 1;               ///< logical passes in this launch
};

/// Cumulative host<->device transfer bookkeeping.  Byte totals and
/// transfer counts surface through FsbmStats/StepStats and the bench
/// tables so residency wins are visible as bytes, not only modeled time.
struct TransferStats {
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t h2d_count = 0;  ///< number of h2d transfers issued
  std::uint64_t d2h_count = 0;  ///< number of d2h transfers issued
  std::uint64_t alloc_bytes = 0;
  double modeled_time_ms = 0.0;

  /// publish() contract (obs/registry.hpp): add the totals above into
  /// `reg` under wrf_device_* names, byte-exact.  Distinct from the
  /// wrf_xfer_* family FsbmStats publishes (which charges the same
  /// transfers to the microphysics), so a RunResult publishing both
  /// never double-counts a metric.
  void publish(obs::Registry& reg) const;
};

/// One simulated device instance.
///
/// Not thread-safe for concurrent launches; each simpi rank owns its own
/// Device (multiple Devices may share a physical `gpu_id`, which the
/// perfmodel uses to serialize their kernels when pricing Table VII).
class Device {
 public:
  explicit Device(DeviceSpec spec, par::ThreadPool* pool = nullptr);

  const DeviceSpec& spec() const noexcept { return spec_; }

  /// OpenMP `omp_set_teams_thread_limit` analogue for stack: the paper's
  /// NV_ACC_CUDA_STACKSIZE environment variable.
  void set_stack_limit(std::uint64_t bytes) { stack_limit_ = bytes; }
  std::uint64_t stack_limit() const noexcept { return stack_limit_; }

  /// NV_ACC_CUDA_HEAPSIZE analogue: capacity of the device-side malloc
  /// pool that automatic arrays live in.
  void set_heap_limit(std::uint64_t bytes) { heap_limit_ = bytes; }
  std::uint64_t heap_limit() const noexcept { return heap_limit_; }

  /// `map(to:)`: host-to-device copy of `bytes` into a *transient*
  /// buffer.  The buffer must fit beside the persistent allocations, so
  /// this checks capacity (DeviceError::kOutOfMemory) without charging
  /// it — the transient allocation dies with the enclosing launch.
  /// Persistent buffers go through `alloc_named` + `update_to` instead
  /// so their bytes stay charged against `dram_bytes`.
  void map_to(std::uint64_t bytes);
  /// `map(from:)`: device-to-host copy of `bytes` (same transient
  /// capacity check as map_to).
  void map_from(std::uint64_t bytes);
  /// `target update to/from(...)`: copy into/out of memory that is
  /// already device-resident — transfer accounting only, no capacity
  /// interaction.  The DataRegion dirty-range updates price through
  /// these.
  void update_to(std::uint64_t bytes);
  void update_from(std::uint64_t bytes);
  /// `target enter data map(alloc:)`: device allocation without copy.
  /// Throws DeviceError(kOutOfMemory) when capacity would be exceeded.
  void enter_data_alloc(std::uint64_t bytes);
  /// `target exit data map(delete:)`.
  void exit_data_delete(std::uint64_t bytes);
  std::uint64_t allocated_bytes() const noexcept { return allocated_; }

  /// Named persistent allocations — the backing store of the residency
  /// subsystem's field table (mem::DataRegion).  `alloc_named` charges
  /// `bytes` against `dram_bytes` through the same capacity check as
  /// `enter_data_alloc` and throws DeviceError(kOutOfMemory) with the
  /// paper-style message when the domain does not fit; allocating an
  /// existing name again is an error (the DataRegion enforces presence
  /// semantics above this).
  void alloc_named(const std::string& name, std::uint64_t bytes);
  void free_named(const std::string& name);
  bool has_named(const std::string& name) const;
  /// Size of a named allocation; 0 when absent.
  std::uint64_t named_bytes(const std::string& name) const;

  /// Launch one kernel: functional execution + performance model.
  /// Throws DeviceError(kLaunchOutOfStack) if the kernel's per-thread
  /// stack demand exceeds the current stack limit.
  KernelStats launch(const KernelDesc& desc);

  /// Stats of every launch so far, in order.
  const std::vector<KernelStats>& launches() const noexcept {
    return launches_;
  }
  const TransferStats& transfers() const noexcept { return transfers_; }

  /// Sum of modeled kernel milliseconds since construction/reset.
  double total_kernel_ms() const noexcept { return total_kernel_ms_; }
  void reset_stats();

  /// Maximum sampled iterations for trace replay (tests may lower it).
  void set_trace_sample_budget(std::int64_t n) { sample_budget_ = n; }

  /// Trace replay is expensive, and a kernel's locality profile is
  /// stable across launches of the same shape; results are cached per
  /// kernel name and refreshed only when the grid changes materially.
  /// `set_trace_refresh(true)` forces replay on every launch.
  void set_trace_refresh(bool always) { trace_always_ = always; }

 private:
  double model_time_ms(const KernelDesc& desc, const Occupancy& occ,
                       double dram_bytes, double l2_bytes, double l1_hit,
                       double l2_hit, bool traced, const char** bound) const;

  /// Shared capacity check: throws kOutOfMemory when `bytes` more would
  /// not fit; charges nothing.
  void check_capacity(std::uint64_t bytes, const std::string& what) const;

  DeviceSpec spec_;
  par::ThreadPool* pool_;
  std::uint64_t stack_limit_;
  std::uint64_t heap_limit_;
  std::uint64_t allocated_ = 0;
  std::map<std::string, std::uint64_t> named_;
  TransferStats transfers_;
  std::vector<KernelStats> launches_;
  double total_kernel_ms_ = 0.0;
  std::int64_t sample_budget_ = 512;
  bool trace_always_ = false;

  struct TraceCache {
    std::int64_t iterations = 0;
    double l1_hit = 0.0, l2_hit = 0.0;
    double dram_read_per_iter = 0.0, dram_write_per_iter = 0.0;
    double l2_bytes_per_iter = 0.0;
  };
  std::map<std::string, TraceCache> trace_cache_;
};

/// Roofline helper: attainable GFLOP/s at arithmetic intensity `ai`
/// (FLOP per DRAM byte) for the given precision.
double roofline_gflops(const DeviceSpec& dev, double ai, bool double_precision);

}  // namespace wrf::gpu
