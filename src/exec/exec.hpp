#pragma once
// The execution-space layer: one dispatch path for serial, threaded, and
// simulated-device loop nests.
//
// The paper's whole arc is moving FSBM's per-cell loops from serial host
// execution to offloaded `collapse(2)` / `collapse(3)` kernels.  This
// module abstracts that choice so a loop nest is written once against an
// `ExecSpace` and can then run
//
//   * serially        (`SerialSpace`   — Listing 1 as found),
//   * across threads  (`ThreadedSpace` — WRF's OpenMP tile layer,
//                      backed by par::ThreadPool with dynamic chunking),
//   * on the device   (`DeviceSpace`   — functional execution plus the
//                      gpusim performance model and transfer accounting),
//   * split across both (`HeteroSpace` — a DeviceSpace plus a
//                      ThreadedSpace; a predicate-split `SplitPlan`
//                      routes each tile to exactly one shard).
//
// Determinism contract: a `Range3` iteration space is cut into tiles by a
// `TilePlan` that depends only on the range and the requested grain —
// never on the executor's concurrency.  Each tile's iterations run in
// ascending order on a single thread, and reduction partials are merged
// in tile order on the calling thread.  Consequently every ExecSpace
// produces bitwise-identical state *and* bitwise-identical floating-point
// reductions for the same (range, grain), which is what the
// serial-vs-threaded determinism tests assert.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/field.hpp"

namespace wrf::par {
class ThreadPool;
}
namespace wrf::gpu {
class Device;
struct KernelDesc;
struct KernelStats;
}
namespace wrf::mem {
class DataRegion;
}

namespace wrf::exec {

/// Inclusive 3-D iteration range in WRF loop order: `i` fastest, then
/// `k`, then `j` — the shape of every `do j / do k / do i` nest the paper
/// collapses.  Ranges may be empty or halo-inclusive (negative lower
/// bounds); flattening matches the paper's collapse order.
struct Range3 {
  Range i, k, j;

  struct Cell {
    int i, k, j;
  };

  std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(i.size()) * k.size() * j.size();
  }
  bool empty() const noexcept { return size() == 0; }

  /// Decode a flat index in [0, size()) into (i, k, j).
  Cell cell(std::int64_t flat) const noexcept {
    const std::int64_t ni = i.size();
    const std::int64_t nk = k.size();
    Cell c;
    c.i = i.lo + static_cast<int>(flat % ni);
    c.k = k.lo + static_cast<int>((flat / ni) % nk);
    c.j = j.lo + static_cast<int>(flat / (ni * nk));
    return c;
  }

  /// A plane of (i,k) — the default tile grain: one j-iteration of the
  /// collapsed nest, which keeps i-rows contiguous the way `collapse(2)`
  /// lanes do.
  std::int64_t plane() const noexcept {
    return static_cast<std::int64_t>(i.size()) * k.size();
  }

  /// The sub-range at least `depth` cells inside the i/j faces (k is
  /// never decomposed, so it is untouched).  With halos refreshed only
  /// at range edges, interior cells of a `depth`-wide-stencil nest are
  /// safe to compute with *stale* halos — the comms/compute overlap
  /// contract.  Empty when the range is thinner than 2*depth.
  Range3 interior(int depth) const noexcept {
    return Range3{Range{i.lo + depth, i.hi - depth}, k,
                  Range{j.lo + depth, j.hi - depth}};
  }

  /// Partition of `*this` minus `interior(depth)` into at most four
  /// disjoint pieces, in the fixed order {south, north, west, east}
  /// (j-strips first, then i-strips spanning only interior j rows).
  /// Pieces may be empty; their union with `interior(depth)` is exactly
  /// `*this`.  The cut and its order are a pure function of the range,
  /// which is what keeps overlap execution bitwise identical to sync.
  std::array<Range3, 4> shell(int depth) const noexcept {
    const int jlo_s = j.lo, jhi_s = j.lo + depth - 1 < j.hi
                                         ? j.lo + depth - 1
                                         : j.hi;
    int jlo_n = j.hi - depth + 1;
    if (jlo_n < j.lo + depth) jlo_n = j.lo + depth;  // never dip into south
    const Range j_mid{j.lo + depth, j.hi - depth};
    const int ihi_w = i.lo + depth - 1 < i.hi ? i.lo + depth - 1 : i.hi;
    int ilo_e = i.hi - depth + 1;
    if (ilo_e < i.lo + depth) ilo_e = i.lo + depth;  // never dip into west
    return {Range3{i, k, Range{jlo_s, jhi_s}},
            Range3{i, k, Range{jlo_n, j.hi}},
            Range3{Range{i.lo, ihi_w}, k, j_mid},
            Range3{Range{ilo_e, i.hi}, k, j_mid}};
  }
};

/// Per-dispatch knobs.  Host spaces use `grain`; DeviceSpace additionally
/// feeds the launch-geometry fields into the gpusim performance model
/// (occupancy, heap check, roofline) exactly like fsbm's hand-built
/// KernelDescs do.
struct LaunchParams {
  const char* name = "exec";
  int collapse = 3;          ///< collapse(2) vs collapse(3) bookkeeping
  std::int64_t grain = 0;    ///< iterations per tile; 0 = default
  int regs_per_thread = 64;
  std::uint64_t workspace_bytes_per_thread = 0;
  double flops_per_iter = 0.0;
  double bytes_per_iter = 0.0;
  bool double_precision = false;
};

/// Deterministic cut of [0, total) into fixed-grain tiles.  The layout is
/// a pure function of (total, grain): executors may run tiles in any
/// order or concurrently, but the tiles themselves never change.
class TilePlan {
 public:
  TilePlan(std::int64_t total, std::int64_t grain)
      : total_(total < 0 ? 0 : total), grain_(grain < 1 ? 1 : grain),
        ntiles_(total_ == 0 ? 0 : (total_ + grain_ - 1) / grain_) {}

  std::int64_t total() const noexcept { return total_; }
  std::int64_t grain() const noexcept { return grain_; }
  std::int64_t tiles() const noexcept { return ntiles_; }
  std::int64_t tile_begin(std::int64_t t) const noexcept {
    return t * grain_;
  }
  std::int64_t tile_end(std::int64_t t) const noexcept {
    const std::int64_t e = (t + 1) * grain_;
    return e > total_ ? total_ : e;
  }

 private:
  std::int64_t total_;
  std::int64_t grain_;
  std::int64_t ntiles_;
};

/// One tile of work: flat indices [begin, end) in ascending order.
using TileFn =
    std::function<void(std::int64_t tile, std::int64_t begin, std::int64_t end)>;

/// Deterministic predicate split of one tile plan across two shards.
/// Every tile of `plan` appears in exactly one of the two ascending tile
/// lists, so every cell of the range lands in exactly one shard; the
/// split is a pure function of (range, plan, predicate), never of either
/// shard's concurrency — which is what keeps a heterogeneous pass bitwise
/// identical to running the whole plan on one space.
struct SplitPlan {
  TilePlan plan{0, 1};
  std::vector<std::int64_t> device_tiles;  ///< predicate-true tiles, ascending
  std::vector<std::int64_t> host_tiles;    ///< remainder tiles, ascending
  std::int64_t device_cells = 0;  ///< total iterations in device tiles
  std::int64_t host_cells = 0;    ///< total iterations in host tiles

  /// Flat range index of the n-th device-shard iteration (lane n of a
  /// kernel launched over only the device shard).  Valid for
  /// n in [0, device_cells); relies on every device tile except possibly
  /// the list's last being full-grain (only the plan's final tile can be
  /// short, and ascending order puts it last).
  std::int64_t device_flat(std::int64_t lane) const noexcept {
    const std::int64_t g = plan.grain();
    const std::int64_t m = static_cast<std::int64_t>(device_tiles.size());
    std::int64_t q = lane / g;
    if (q > m - 1) q = m - 1;
    const std::int64_t t = device_tiles[static_cast<std::size_t>(q)];
    return plan.tile_begin(t) + (lane - q * g);
  }
};

/// Partition `plan`'s tiles into device-shard and host-shard lists from a
/// per-cell predicate: a tile joins the device shard iff ANY of its cells
/// satisfies the predicate (evaluation short-circuits in ascending cell
/// order).  The cut is deterministic — see SplitPlan.
SplitPlan split_plan(const Range3& r, const TilePlan& plan,
                     const std::function<bool(int, int, int)>& pred);

/// Abstract executor.  The single virtual primitive is tile execution;
/// parallel_for / parallel_reduce are derived conveniences, so every
/// space inherits the same tiling (and therefore the same numerics).
class ExecSpace {
 public:
  virtual ~ExecSpace() = default;

  virtual const char* name() const noexcept = 0;
  /// Worker count this space can occupy (1 for SerialSpace).
  virtual int concurrency() const noexcept = 0;

  /// Execute every tile of `plan`.  Tiles may run concurrently; one
  /// tile's iterations run in ascending order on a single thread.
  /// Exceptions thrown by `fn` are rethrown on the calling thread (first
  /// one wins; remaining tiles are skipped on a best-effort basis).
  virtual void run_tiles(const TilePlan& plan, const LaunchParams& p,
                         const TileFn& fn) = 0;

  /// Execute only the listed tiles of `plan` (ascending ids — one shard
  /// of a SplitPlan).  Same contract as run_tiles restricted to the
  /// list; the default implementation runs the list serially on the
  /// calling thread.  `fn` receives the ORIGINAL tile ids, so per-tile
  /// reduction partials keep their plan-wide slots and merge order.
  virtual void run_tile_list(const TilePlan& plan,
                             const std::vector<std::int64_t>& tiles,
                             const LaunchParams& p, const TileFn& fn);

  /// Run `body(i, k, j)` over the range (paper loop order: i fastest).
  /// Templated on the body so per-cell calls inline; only the per-tile
  /// dispatch is type-erased.
  template <class Body>
  void parallel_for(const Range3& r, const LaunchParams& p, Body&& body) {
    if (r.empty()) return;
    run_tiles(plan_for(r, p), p,
              [&](std::int64_t, std::int64_t b, std::int64_t e) {
                for (std::int64_t f = b; f < e; ++f) {
                  const Range3::Cell c = r.cell(f);
                  body(c.i, c.k, c.j);
                }
              });
  }

  /// Run `body(n)` for n in [0, count) — the 1-D (pack/unpack) shape.
  template <class Body>
  void parallel_for_flat(std::int64_t count, const LaunchParams& p,
                         Body&& body) {
    if (count <= 0) return;
    run_tiles(plan_flat(count, p), p,
              [&](std::int64_t, std::int64_t b, std::int64_t e) {
                for (std::int64_t f = b; f < e; ++f) body(f);
              });
  }

  /// Reduction with per-tile partials.  `R` must be default-constructible
  /// and provide `merge(const R&)`.  Partials are merged in tile order on
  /// the calling thread, so the result is bitwise-deterministic and
  /// identical across executors (no mutex, no atomics, no
  /// association-order dependence on thread count).
  template <class R, class Body>
  R parallel_reduce(const Range3& r, const LaunchParams& p, Body&& body) {
    R out{};
    if (r.empty()) return out;
    const TilePlan plan = plan_for(r, p);
    std::vector<R> parts(static_cast<std::size_t>(plan.tiles()));
    run_tiles(plan, p, [&](std::int64_t t, std::int64_t b, std::int64_t e) {
      R& local = parts[static_cast<std::size_t>(t)];
      for (std::int64_t f = b; f < e; ++f) {
        const Range3::Cell c = r.cell(f);
        body(local, c.i, c.k, c.j);
      }
    });
    for (const R& part : parts) out.merge(part);
    return out;
  }

  /// Tiling for a 3-D range: default grain is one (i,k) plane.
  static TilePlan plan_for(const Range3& r, const LaunchParams& p) {
    const std::int64_t grain =
        p.grain > 0 ? p.grain : std::max<std::int64_t>(1, r.plane());
    return TilePlan(r.size(), grain);
  }

  /// Tiling for a flat range: default grain targets ~64 tiles
  /// (independent of concurrency, so the cut is deterministic).
  static TilePlan plan_flat(std::int64_t count, const LaunchParams& p) {
    const std::int64_t grain =
        p.grain > 0 ? p.grain : std::max<std::int64_t>(1, (count + 63) / 64);
    return TilePlan(count, grain);
  }
};

/// Serial execution on the calling thread — Listing 1 as found.
class SerialSpace final : public ExecSpace {
 public:
  const char* name() const noexcept override { return "serial"; }
  int concurrency() const noexcept override { return 1; }
  void run_tiles(const TilePlan& plan, const LaunchParams& p,
                 const TileFn& fn) override;
};

/// Host-parallel execution over a par::ThreadPool — WRF's OpenMP tile
/// layer.  Tiles are dispatched with dynamic (chunk=1) scheduling so the
/// cloud-cover load imbalance cannot serialize a whole plan.
class ThreadedSpace final : public ExecSpace {
 public:
  /// `nthreads` > 0 builds a private pool of that size; <= 0 shares the
  /// process-wide pool (hardware-sized).
  explicit ThreadedSpace(int nthreads = 0);
  ~ThreadedSpace() override;

  const char* name() const noexcept override { return "threads"; }
  int concurrency() const noexcept override;
  void run_tiles(const TilePlan& plan, const LaunchParams& p,
                 const TileFn& fn) override;
  void run_tile_list(const TilePlan& plan,
                     const std::vector<std::int64_t>& tiles,
                     const LaunchParams& p, const TileFn& fn) override;

 private:
  par::ThreadPool* pool_;                    ///< pool in use
  std::unique_ptr<par::ThreadPool> owned_;   ///< set when nthreads > 0
};

/// Simulated-device execution: functional execution of the tiles on the
/// host pool (bit-for-bit, tile-deterministic like every other space)
/// plus a gpusim kernel launch per dispatch for the performance model,
/// and a device data environment (mem::DataRegion) giving launches named
/// persistent buffers with dirty tracking instead of raw byte-counter
/// transfers.
class DeviceSpace final : public ExecSpace {
 public:
  /// `device` must outlive the space.  `pool` defaults to the shared
  /// pool (the same one gpusim itself uses for functional execution).
  explicit DeviceSpace(gpu::Device& device, par::ThreadPool* pool = nullptr);
  ~DeviceSpace() override;

  const char* name() const noexcept override { return "device"; }
  int concurrency() const noexcept override;
  void run_tiles(const TilePlan& plan, const LaunchParams& p,
                 const TileFn& fn) override;
  /// Shard dispatch: functional execution of the listed tiles on the
  /// pool plus ONE modeled kernel launch covering exactly the listed
  /// tiles' iterations (a shard's kernel is smaller than the full
  /// plan's, which is the point of the split).
  void run_tile_list(const TilePlan& plan,
                     const std::vector<std::int64_t>& tiles,
                     const LaunchParams& p, const TileFn& fn) override;

  gpu::Device& device() noexcept { return *device_; }

  /// Pass-through for fully hand-described kernels (fsbm's coal/cond
  /// launches with traces); recorded like any other dispatch.
  gpu::KernelStats launch(const gpu::KernelDesc& desc);

  /// The space's device data environment: a field table of named device
  /// buffers with `target data` map/update verbs and per-field dirty
  /// ranges (see mem/residency.hpp).  Created on first use and owned by
  /// the space; field registration and residency policy (`res=step` vs
  /// `res=persist`) belong to the caller.
  mem::DataRegion& region();

  /// Modeled kernel milliseconds dispatched through this space.
  double kernel_ms() const noexcept { return kernel_ms_; }
  std::uint64_t dispatches() const noexcept { return dispatches_; }

 private:
  gpu::Device* device_;
  par::ThreadPool* pool_;
  std::unique_ptr<mem::DataRegion> region_;
  double kernel_ms_ = 0.0;
  std::uint64_t dispatches_ = 0;
};

/// Heterogeneous execution: a DeviceSpace and a ThreadedSpace working one
/// logical pass together.  Generic dispatches (run_tiles /
/// parallel_for / parallel_reduce) go to the HOST shard — so a pass with
/// no predicate behaves exactly like exec=threads — while predicate-split
/// passes route a SplitPlan's device tiles through the device shard
/// (functional execution + one modeled kernel launch + shard-granular
/// transfer accounting through the shard's DataRegion) and the remainder
/// tiles through the host shard, concurrently.  Determinism: both shards
/// inherit the tile contract, the split is a pure function of the
/// predicate, and split-pass reductions merge device partials then host
/// partials in tile order — so results are bitwise identical to running
/// the same plan on any single space.
class HeteroSpace final : public ExecSpace {
 public:
  /// `device` must outlive the space.  `nthreads` sizes the host shard
  /// (ThreadedSpace semantics: <= 0 shares the process-wide pool).
  explicit HeteroSpace(gpu::Device& device, int nthreads = 0);
  ~HeteroSpace() override;

  const char* name() const noexcept override { return "hetero"; }
  /// Host-shard workers (the device shard's functional pool rides along).
  int concurrency() const noexcept override;
  void run_tiles(const TilePlan& plan, const LaunchParams& p,
                 const TileFn& fn) override;
  void run_tile_list(const TilePlan& plan,
                     const std::vector<std::int64_t>& tiles,
                     const LaunchParams& p, const TileFn& fn) override;

  DeviceSpace& device_shard() noexcept { return device_; }
  ThreadedSpace& host_shard() noexcept { return host_; }

  /// Run one predicate-split pass: the device tiles through the device
  /// shard and the host tiles through the host shard, CONCURRENTLY (the
  /// host remainder overlaps the modeled kernel).  Blocks until both
  /// shards finish; the first exception from either shard is rethrown on
  /// the calling thread.  Callers needing a hand-built gpu::KernelDesc
  /// for the device side (fsbm's coal pass) drive the shards directly
  /// instead.
  void run_split(const SplitPlan& sp, const LaunchParams& p,
                 const TileFn& device_fn, const TileFn& host_fn);

 private:
  DeviceSpace device_;
  ThreadedSpace host_;
};

/// The `exec=` knob: how host loop nests are dispatched.
enum class ExecKind : int {
  kSerial = 0,
  kThreads = 1,
  kDevice = 2,
  kHetero = 3,  ///< predicate-split passes across device + host shards
};

struct ExecConfig {
  ExecKind kind = ExecKind::kSerial;
  int nthreads = 0;  ///< threads/hetero modes: 0 = hardware concurrency

  /// Parse "serial" | "threads" | "threads:N" | "device" |
  /// "hetero" | "hetero:N" (N = host-shard threads, canonical decimal
  /// >= 1; the exec= knob row caps it at model::kMaxExecThreads).
  /// Throws ConfigError on anything else.
  static ExecConfig parse(const std::string& s);

  /// Render back to the knob syntax ("threads:8", "hetero:4", ...).
  std::string describe() const;
};

/// Build the space a config asks for.  `device` is required for
/// ExecKind::kDevice and ExecKind::kHetero, ignored otherwise.
std::unique_ptr<ExecSpace> make_space(const ExecConfig& cfg,
                                      gpu::Device* device = nullptr);

/// Process-wide SerialSpace, for call sites that take an optional
/// ExecSpace* and fall back to serial dispatch.
ExecSpace& serial();

}  // namespace wrf::exec
