#include "exec/exec.hpp"

#include <atomic>
#include <mutex>
#include <thread>

#include "gpu/device.hpp"
#include "mem/residency.hpp"
#include "model/knobs.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"

namespace wrf::exec {

// ------------------------------------------------------------ split plan

SplitPlan split_plan(const Range3& r, const TilePlan& plan,
                     const std::function<bool(int, int, int)>& pred) {
  SplitPlan sp;
  sp.plan = plan;
  for (std::int64_t t = 0; t < plan.tiles(); ++t) {
    const std::int64_t b = plan.tile_begin(t);
    const std::int64_t e = plan.tile_end(t);
    bool active = false;
    for (std::int64_t f = b; f < e && !active; ++f) {
      const Range3::Cell c = r.cell(f);
      active = pred(c.i, c.k, c.j);
    }
    if (active) {
      sp.device_tiles.push_back(t);
      sp.device_cells += e - b;
    } else {
      sp.host_tiles.push_back(t);
      sp.host_cells += e - b;
    }
  }
  return sp;
}

// ------------------------------------------------------- tile-list base

void ExecSpace::run_tile_list(const TilePlan& plan,
                              const std::vector<std::int64_t>& tiles,
                              const LaunchParams& p, const TileFn& fn) {
  OBS_SPAN("pass", p.name,
           {{"space", "serial"}, {"tiles", tiles.size()}});
  for (const std::int64_t t : tiles) {
    fn(t, plan.tile_begin(t), plan.tile_end(t));
  }
}

// ----------------------------------------------------------------- serial

void SerialSpace::run_tiles(const TilePlan& plan, const LaunchParams& p,
                            const TileFn& fn) {
  OBS_SPAN("pass", p.name,
           {{"space", "serial"},
            {"tiles", plan.tiles()},
            {"iters", plan.total()}});
  for (std::int64_t t = 0; t < plan.tiles(); ++t) {
    fn(t, plan.tile_begin(t), plan.tile_end(t));
  }
}

// ---------------------------------------------------------------- threads

ThreadedSpace::ThreadedSpace(int nthreads) {
  if (nthreads > 0) {
    owned_ = std::make_unique<par::ThreadPool>(nthreads);
    pool_ = owned_.get();
  } else {
    pool_ = &par::shared_pool();
  }
}

ThreadedSpace::~ThreadedSpace() = default;

int ThreadedSpace::concurrency() const noexcept { return pool_->size(); }

namespace {

/// Dispatch tiles over a pool with first-exception capture: workers must
/// never let an exception escape into the pool's task loop (that would
/// std::terminate), so the wrapper records the first one, skips remaining
/// tiles, and rethrows on the calling thread after the join.
void run_tiles_on_pool(par::ThreadPool& pool, const TilePlan& plan,
                       const TileFn& fn) {
  std::atomic<bool> failed{false};
  std::exception_ptr eptr;
  std::mutex emu;
  pool.parallel_for(
      0, plan.tiles(),
      [&](std::int64_t t) {
        if (failed.load(std::memory_order_relaxed)) return;
        try {
          fn(t, plan.tile_begin(t), plan.tile_end(t));
        } catch (...) {
          std::lock_guard<std::mutex> lk(emu);
          if (!eptr) eptr = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      },
      /*chunk=*/1);
  if (eptr) std::rethrow_exception(eptr);
}

/// Tile-list variant: dispatch over list positions, handing fn the
/// original tile ids (same exception contract as run_tiles_on_pool).
void run_tile_list_on_pool(par::ThreadPool& pool, const TilePlan& plan,
                           const std::vector<std::int64_t>& tiles,
                           const TileFn& fn) {
  std::atomic<bool> failed{false};
  std::exception_ptr eptr;
  std::mutex emu;
  pool.parallel_for(
      0, static_cast<std::int64_t>(tiles.size()),
      [&](std::int64_t n) {
        if (failed.load(std::memory_order_relaxed)) return;
        try {
          const std::int64_t t = tiles[static_cast<std::size_t>(n)];
          fn(t, plan.tile_begin(t), plan.tile_end(t));
        } catch (...) {
          std::lock_guard<std::mutex> lk(emu);
          if (!eptr) eptr = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      },
      /*chunk=*/1);
  if (eptr) std::rethrow_exception(eptr);
}

}  // namespace

void ThreadedSpace::run_tiles(const TilePlan& plan, const LaunchParams& p,
                              const TileFn& fn) {
  if (plan.tiles() == 0) return;
  OBS_SPAN("pass", p.name,
           {{"space", "threads"},
            {"tiles", plan.tiles()},
            {"iters", plan.total()}});
  if (plan.tiles() == 1 || pool_->size() == 1) {
    // One tile (or one worker) gains nothing from dispatch overhead.
    for (std::int64_t t = 0; t < plan.tiles(); ++t) {
      fn(t, plan.tile_begin(t), plan.tile_end(t));
    }
    return;
  }
  run_tiles_on_pool(*pool_, plan, fn);
}

void ThreadedSpace::run_tile_list(const TilePlan& plan,
                                  const std::vector<std::int64_t>& tiles,
                                  const LaunchParams& p, const TileFn& fn) {
  if (tiles.empty()) return;
  if (tiles.size() == 1 || pool_->size() == 1) {
    ExecSpace::run_tile_list(plan, tiles, p, fn);
    return;
  }
  OBS_SPAN("pass", p.name,
           {{"space", "threads"}, {"tiles", tiles.size()}});
  run_tile_list_on_pool(*pool_, plan, tiles, fn);
}

// ----------------------------------------------------------------- device

DeviceSpace::DeviceSpace(gpu::Device& device, par::ThreadPool* pool)
    : device_(&device),
      pool_(pool != nullptr ? pool : &par::shared_pool()) {}

DeviceSpace::~DeviceSpace() = default;

mem::DataRegion& DeviceSpace::region() {
  if (!region_) region_ = std::make_unique<mem::DataRegion>(*device_);
  return *region_;
}

int DeviceSpace::concurrency() const noexcept { return pool_->size(); }

namespace {

/// The performance-model half of a device dispatch: one body-less kernel
/// launch whose geometry describes the collapsed nest (or nest shard)
/// the functional execution stood for.
gpu::KernelDesc model_desc(const LaunchParams& p, std::int64_t iterations) {
  gpu::KernelDesc desc;
  desc.name = p.name;
  desc.iterations = iterations;
  desc.collapse = p.collapse;
  desc.regs_per_thread = p.regs_per_thread;
  desc.workspace_bytes_per_thread = p.workspace_bytes_per_thread;
  desc.flops_per_iter = p.flops_per_iter;
  desc.bytes_per_iter = p.bytes_per_iter;
  desc.double_precision = p.double_precision;
  return desc;
}

}  // namespace

void DeviceSpace::run_tiles(const TilePlan& plan, const LaunchParams& p,
                            const TileFn& fn) {
  if (plan.tiles() == 0) return;
  OBS_SPAN("pass", p.name,
           {{"space", "device"},
            {"tiles", plan.tiles()},
            {"iters", plan.total()}});
  // Functional execution first, tile-deterministic like the host spaces.
  if (plan.tiles() == 1) {
    fn(0, plan.tile_begin(0), plan.tile_end(0));
  } else {
    run_tiles_on_pool(*pool_, plan, fn);
  }
  const gpu::KernelStats ks = device_->launch(model_desc(p, plan.total()));
  kernel_ms_ += ks.modeled_time_ms;
  ++dispatches_;
}

void DeviceSpace::run_tile_list(const TilePlan& plan,
                                const std::vector<std::int64_t>& tiles,
                                const LaunchParams& p, const TileFn& fn) {
  if (tiles.empty()) return;
  std::int64_t iters = 0;
  for (const std::int64_t t : tiles) {
    iters += plan.tile_end(t) - plan.tile_begin(t);
  }
  OBS_SPAN("pass", p.name,
           {{"space", "device"},
            {"tiles", tiles.size()},
            {"iters", iters}});
  if (tiles.size() == 1) {
    const std::int64_t t = tiles.front();
    fn(t, plan.tile_begin(t), plan.tile_end(t));
  } else {
    run_tile_list_on_pool(*pool_, plan, tiles, fn);
  }
  const gpu::KernelStats ks = device_->launch(model_desc(p, iters));
  kernel_ms_ += ks.modeled_time_ms;
  ++dispatches_;
}

gpu::KernelStats DeviceSpace::launch(const gpu::KernelDesc& desc) {
  const gpu::KernelStats ks = device_->launch(desc);
  kernel_ms_ += ks.modeled_time_ms;
  ++dispatches_;
  return ks;
}

// ----------------------------------------------------------------- hetero

HeteroSpace::HeteroSpace(gpu::Device& device, int nthreads)
    : device_(device), host_(nthreads) {}

HeteroSpace::~HeteroSpace() = default;

int HeteroSpace::concurrency() const noexcept { return host_.concurrency(); }

void HeteroSpace::run_tiles(const TilePlan& plan, const LaunchParams& p,
                            const TileFn& fn) {
  // No predicate, no split: generic dispatches are host work, so every
  // pass that does not opt into a SplitPlan behaves exactly like
  // exec=threads (bitwise, by the shared tile contract).
  host_.run_tiles(plan, p, fn);
}

void HeteroSpace::run_tile_list(const TilePlan& plan,
                                const std::vector<std::int64_t>& tiles,
                                const LaunchParams& p, const TileFn& fn) {
  host_.run_tile_list(plan, tiles, p, fn);
}

void HeteroSpace::run_split(const SplitPlan& sp, const LaunchParams& p,
                            const TileFn& device_fn, const TileFn& host_fn) {
  OBS_SPAN("pass", p.name,
           {{"space", "hetero"},
            {"device_tiles", sp.device_tiles.size()},
            {"host_tiles", sp.host_tiles.size()},
            {"device_cells", sp.device_cells},
            {"host_cells", sp.host_cells}});
  // Host remainder on its own thread so it overlaps the device shard's
  // functional execution + modeled launch — the heterogeneous overlap
  // the TSan job exercises.  Exceptions from the host side are carried
  // back and rethrown after the join (device-side exceptions win, as
  // they surface first on the calling thread).
  std::exception_ptr host_err;
  std::thread host_thread([&] {
    try {
      host_.run_tile_list(sp.plan, sp.host_tiles, p, host_fn);
    } catch (...) {
      host_err = std::current_exception();
    }
  });
  try {
    device_.run_tile_list(sp.plan, sp.device_tiles, p, device_fn);
  } catch (...) {
    host_thread.join();
    throw;
  }
  host_thread.join();
  if (host_err) std::rethrow_exception(host_err);
}

// ----------------------------------------------------------------- config

ExecConfig ExecConfig::parse(const std::string& s) {
  const auto unknown = [&] {
    return ConfigError("ExecConfig: unknown exec mode '" + s +
                       "' (want serial | threads[:N] | device | hetero[:N])");
  };
  const std::size_t colon = s.find(':');
  const std::string mode = s.substr(0, colon);
  ExecConfig cfg;
  if (mode == "serial") {
    cfg.kind = ExecKind::kSerial;
  } else if (mode == "device") {
    cfg.kind = ExecKind::kDevice;
  } else if (mode == "threads") {
    cfg.kind = ExecKind::kThreads;
  } else if (mode == "hetero") {
    cfg.kind = ExecKind::kHetero;
  } else {
    throw unknown();
  }
  if (colon == std::string::npos) return cfg;
  if (cfg.kind != ExecKind::kThreads && cfg.kind != ExecKind::kHetero) {
    throw unknown();
  }
  // N is a canonical decimal, so describe() renders exactly the text
  // parsed.
  cfg.nthreads =
      model::parse_count(mode + " thread count", s.substr(colon + 1));
  return cfg;
}

std::string ExecConfig::describe() const {
  switch (kind) {
    case ExecKind::kSerial: return "serial";
    case ExecKind::kDevice: return "device";
    case ExecKind::kThreads:
      return nthreads > 0 ? "threads:" + std::to_string(nthreads)
                          : "threads";
    case ExecKind::kHetero:
      return nthreads > 0 ? "hetero:" + std::to_string(nthreads) : "hetero";
  }
  return "?";
}

std::unique_ptr<ExecSpace> make_space(const ExecConfig& cfg,
                                      gpu::Device* device) {
  switch (cfg.kind) {
    case ExecKind::kSerial:
      return std::make_unique<SerialSpace>();
    case ExecKind::kThreads:
      return std::make_unique<ThreadedSpace>(cfg.nthreads);
    case ExecKind::kDevice:
      if (device == nullptr) {
        throw ConfigError("make_space: exec=device needs a gpu::Device");
      }
      return std::make_unique<DeviceSpace>(*device);
    case ExecKind::kHetero:
      if (device == nullptr) {
        throw ConfigError("make_space: exec=hetero needs a gpu::Device");
      }
      return std::make_unique<HeteroSpace>(*device, cfg.nthreads);
  }
  throw ConfigError("make_space: unknown ExecKind");
}

ExecSpace& serial() {
  static SerialSpace space;
  return space;
}

}  // namespace wrf::exec
