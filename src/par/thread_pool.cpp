#include "par/thread_pool.hpp"

#include <algorithm>

namespace wrf::par {

ThreadPool::ThreadPool(int nthreads) {
  int n = nthreads;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 4;
  }
  workers_.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--inflight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++inflight_;
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [this] { return inflight_ == 0; });
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              const std::function<void(std::int64_t)>& fn,
                              std::int64_t chunk) {
  if (end <= begin) return;
  const std::int64_t n = end - begin;
  if (chunk <= 0) {
    chunk = std::max<std::int64_t>(1, n / (8LL * size()));
  }
  // Dynamic scheduling via a shared cursor: each worker grabs the next
  // chunk when it finishes its current one.
  // The call joins on its own tasks only (`pending`, guarded by mu_),
  // so a caller sharing the pool never waits behind another caller's
  // work.  Both live on this frame, which outlives every task: the last
  // task touches them under mu_, before this thread can see zero.
  std::atomic<std::int64_t> cursor{begin};
  const int nworkers =
      static_cast<int>(std::min<std::int64_t>(size(), (n + chunk - 1) / chunk));
  int pending = nworkers;
  for (int w = 0; w < nworkers; ++w) {
    submit([this, &cursor, &pending, end, chunk, &fn] {
      for (;;) {
        const std::int64_t lo = cursor.fetch_add(chunk);
        if (lo >= end) break;
        const std::int64_t hi = std::min(end, lo + chunk);
        for (std::int64_t i = lo; i < hi; ++i) fn(i);
      }
      std::lock_guard<std::mutex> lk(mu_);
      if (--pending == 0) cv_idle_.notify_all();
    });
  }
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [&pending] { return pending == 0; });
}

ThreadPool& shared_pool() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace wrf::par
