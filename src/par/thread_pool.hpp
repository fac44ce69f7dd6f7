#pragma once
// Minimal blocking thread pool with a parallel_for primitive.
//
// Used in two places: (a) the gpusim device executes kernel iterations on
// the pool (the functional half of the simulated GPU), and (b) patch tiles
// are distributed over "OpenMP threads" as in WRF's shared-memory layer.
// Chunked dynamic scheduling keeps load imbalance from the cloud-cover
// conditionals from serializing the simulated kernels, the same role
// OpenMP's schedule(dynamic) plays.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace wrf::par {

/// Fixed-size pool of worker threads.
class ThreadPool {
 public:
  /// Create `nthreads` workers (>=1). 0 means hardware_concurrency().
  explicit ThreadPool(int nthreads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Run fn(i) for i in [begin, end) across the pool and block until all
  /// iterations complete.  `chunk` <= 0 picks a chunk size that yields
  /// about 8 chunks per worker (dynamic-schedule flavor).  Waits for this
  /// call's own tasks only, not for other callers' work on the pool.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t)>& fn,
                    std::int64_t chunk = 0);

  /// Enqueue one task; returns immediately.  Use wait_idle() to join.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::int64_t inflight_ = 0;
  bool stop_ = false;
};

/// Process-wide pool sized to the hardware, shared by gpusim devices.
ThreadPool& shared_pool();

}  // namespace wrf::par
