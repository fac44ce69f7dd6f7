// Unit tests: thread pool and the simpi rank runtime.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "par/simpi.hpp"
#include "par/thread_pool.hpp"

namespace wrf::par {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> n{0};
  pool.parallel_for(5, 5, [&](std::int64_t) { n.fetch_add(1); });
  pool.parallel_for(5, 3, [&](std::int64_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 0);
}

TEST(ThreadPool, ExplicitChunking) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(1, 101, [&](std::int64_t i) { sum.fetch_add(i); }, 7);
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, ParallelForWaitsForItsOwnTasksOnly) {
  // Two callers share a 2-worker pool.  The slow caller's one task holds
  // a worker until the trivial caller's parallel_for has returned (or a
  // 5 s timeout), so the trivial call must not wait for the whole pool
  // to go idle.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool slow_started = false;
  bool fast_returned = false;
  bool fast_returned_first = false;
  std::thread slow([&] {
    pool.parallel_for(0, 1, [&](std::int64_t) {
      std::unique_lock<std::mutex> lk(mu);
      slow_started = true;
      cv.notify_all();
      fast_returned_first = cv.wait_for(lk, std::chrono::seconds(5),
                                        [&] { return fast_returned; });
    });
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return slow_started; });
  }
  std::atomic<int> n{0};
  pool.parallel_for(0, 4, [&](std::int64_t) { n.fetch_add(1); }, 1);
  {
    std::lock_guard<std::mutex> lk(mu);
    fast_returned = true;
  }
  cv.notify_all();
  slow.join();
  EXPECT_EQ(n.load(), 4);
  EXPECT_TRUE(fast_returned_first);
}

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
}

TEST(Simpi, RankIdentity) {
  std::vector<std::atomic<int>> seen(8);
  run(8, [&](RankCtx& ctx) {
    EXPECT_EQ(ctx.size(), 8);
    seen[static_cast<std::size_t>(ctx.rank())].fetch_add(1);
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Simpi, PointToPoint) {
  run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 7, {1.0f, 2.0f, 3.0f});
    } else {
      const auto v = ctx.recv(0, 7);
      ASSERT_EQ(v.size(), 3u);
      EXPECT_FLOAT_EQ(v[1], 2.0f);
    }
  });
}

TEST(Simpi, TagMatchingOutOfOrder) {
  run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/1, {1.0f});
      ctx.send(1, /*tag=*/2, {2.0f});
    } else {
      // Receive in reverse tag order.
      const auto b = ctx.recv(0, 2);
      const auto a = ctx.recv(0, 1);
      EXPECT_FLOAT_EQ(a[0], 1.0f);
      EXPECT_FLOAT_EQ(b[0], 2.0f);
    }
  });
}

TEST(Simpi, FifoPerSourceAndTag) {
  run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        ctx.send(1, 5, {static_cast<float>(i)});
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        EXPECT_FLOAT_EQ(ctx.recv(0, 5)[0], static_cast<float>(i));
      }
    }
  });
}

TEST(Simpi, RingExchange) {
  const int n = 6;
  run(n, [n](RankCtx& ctx) {
    const int next = (ctx.rank() + 1) % n;
    const int prev = (ctx.rank() + n - 1) % n;
    ctx.send(next, 0, {static_cast<float>(ctx.rank())});
    const auto v = ctx.recv(prev, 0);
    EXPECT_FLOAT_EQ(v[0], static_cast<float>(prev));
  });
}

TEST(Simpi, AllreduceSumAndMax) {
  run(5, [](RankCtx& ctx) {
    const double s = ctx.allreduce_sum(ctx.rank() + 1.0);
    EXPECT_DOUBLE_EQ(s, 15.0);
    const double m = ctx.allreduce_max(static_cast<double>(ctx.rank()));
    EXPECT_DOUBLE_EQ(m, 4.0);
  });
}

TEST(Simpi, BarrierOrdersPhases) {
  std::atomic<int> phase1{0};
  std::atomic<bool> ok{true};
  run(6, [&](RankCtx& ctx) {
    phase1.fetch_add(1);
    ctx.barrier();
    if (phase1.load() != 6) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(Simpi, GpuBindingRoundRobin) {
  run(8, [](RankCtx& ctx) {
    EXPECT_EQ(ctx.gpu_binding(4), ctx.rank() % 4);
    EXPECT_EQ(ctx.gpu_binding(1), 0);
  });
}

TEST(Simpi, StatsCountTraffic) {
  const auto stats = run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 0, std::vector<float>(100, 1.0f));
    } else {
      ctx.recv(0, 0);
    }
    ctx.barrier();
  });
  EXPECT_EQ(stats.total_messages(), 1u);
  EXPECT_EQ(stats.total_bytes(), 400u);
  EXPECT_EQ(stats.per_rank[0].barriers, 1u);
}

TEST(SimpiRequest, IsendCompletesImmediately) {
  run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      Request r = ctx.isend(1, 3, {4.0f, 5.0f});
      EXPECT_TRUE(r.valid());
      EXPECT_TRUE(r.test());          // eager protocol: born complete
      EXPECT_TRUE(r.wait().empty());  // sends carry no payload back
    } else {
      const auto v = ctx.recv(0, 3);
      ASSERT_EQ(v.size(), 2u);
      EXPECT_FLOAT_EQ(v[0], 4.0f);
    }
  });
}

TEST(SimpiRequest, OutOfOrderCompletion) {
  // Two posted receives complete in the order the *sender* progresses,
  // not the order they were posted: the tag-2 message lands first, so
  // the second request completes while the first is still pending.
  run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.recv(1, 99);  // rendezvous: rank 1 has posted both irecvs
      ctx.send(1, 2, {2.0f});
      ctx.recv(1, 98);  // rank 1 observed the tag-2 completion
      ctx.send(1, 1, {1.0f});
    } else {
      Request a = ctx.irecv(0, 1);
      Request b = ctx.irecv(0, 2);
      EXPECT_FALSE(a.test());
      EXPECT_FALSE(b.test());
      ctx.send(0, 99, {0.0f});
      const auto vb = b.wait();  // completes although posted second
      EXPECT_FALSE(a.test());    // tag-1 message still in flight
      ctx.send(0, 98, {0.0f});
      const auto va = a.wait();
      EXPECT_FLOAT_EQ(va[0], 1.0f);
      EXPECT_FLOAT_EQ(vb[0], 2.0f);
    }
  });
}

TEST(SimpiRequest, PostedReceivesMatchInPostingOrder) {
  // MPI's non-overtaking rule: two irecvs on the same (source, tag)
  // match the two messages in posting order, even when the second
  // request is waited first.
  run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 5, {10.0f});
      ctx.send(1, 5, {20.0f});
    } else {
      Request first = ctx.irecv(0, 5);
      Request second = ctx.irecv(0, 5);
      const auto v2 = second.wait();
      const auto v1 = first.wait();
      EXPECT_FLOAT_EQ(v1[0], 10.0f);
      EXPECT_FLOAT_EQ(v2[0], 20.0f);
    }
  });
}

TEST(SimpiRequest, InterleavedIrecvTagsAcrossFourRanks) {
  // Every rank posts receives from all three peers on two tags,
  // interleaved, then sends its own messages in reverse tag order, and
  // waits in yet another order.  Payloads encode (source, tag) so any
  // mismatch is visible.
  const int n = 4;
  run(n, [n](RankCtx& ctx) {
    const int me = ctx.rank();
    std::vector<Request> reqs;   // posting order: peer-major, tag-minor
    std::vector<float> expect;
    for (int peer = 0; peer < n; ++peer) {
      if (peer == me) continue;
      for (int tag = 1; tag <= 2; ++tag) {
        reqs.push_back(ctx.irecv(peer, tag));
        expect.push_back(static_cast<float>(100 * peer + tag));
      }
    }
    for (int tag = 2; tag >= 1; --tag) {  // reverse of the posting order
      for (int peer = n - 1; peer >= 0; --peer) {
        if (peer == me) continue;
        ctx.send(peer, tag, {static_cast<float>(100 * me + tag)});
      }
    }
    // Drain back to front, exercising out-of-order waits.
    for (std::size_t r = reqs.size(); r-- > 0;) {
      const auto v = reqs[r].wait();
      ASSERT_EQ(v.size(), 1u);
      EXPECT_FLOAT_EQ(v[0], expect[r]);
    }
  });
}

TEST(SimpiRequest, WaitAllKeepsPayloadsRetrievable) {
  run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, {1.0f});
      ctx.send(1, 2, {2.0f, 2.0f});
    } else {
      std::vector<Request> reqs;
      reqs.push_back(ctx.irecv(0, 1));
      reqs.push_back(ctx.irecv(0, 2));
      ctx.wait_all(reqs);
      EXPECT_TRUE(reqs[0].test());
      EXPECT_TRUE(reqs[1].test());
      EXPECT_EQ(reqs[0].wait().size(), 1u);  // instant after wait_all
      EXPECT_EQ(reqs[1].wait().size(), 2u);
    }
  });
}

TEST(SimpiRequest, WaitAllWithThrowingRankDoesNotLeakThreads) {
  // Rank 0 blocks in wait_all on a message rank 2 will never send;
  // rank 1 throws.  run() must abort the blocked ranks, join every
  // thread, and rethrow the original error — if a thread leaked, this
  // test would hang instead of finishing.
  EXPECT_THROW(run(3,
                   [](RankCtx& ctx) {
                     if (ctx.rank() == 0) {
                       std::vector<Request> reqs;
                       reqs.push_back(ctx.irecv(2, 7));
                       ctx.wait_all(reqs);
                     } else if (ctx.rank() == 1) {
                       throw Error("rank 1 exploded");
                     }
                     // rank 2 exits without sending.
                   }),
               Error);
}

TEST(SimpiRequest, RecvStatsAndWaitTimeAccounted) {
  const auto stats = run(2, [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 0, std::vector<float>(50, 1.0f));
    } else {
      ctx.recv(0, 0);
    }
  });
  EXPECT_EQ(stats.per_rank[1].messages_recvd, 1u);
  EXPECT_EQ(stats.per_rank[1].bytes_recvd, 200u);
  EXPECT_EQ(stats.per_rank[0].messages_recvd, 0u);
  EXPECT_GE(stats.per_rank[1].wait_sec, 0.0);
  EXPECT_EQ(stats.total_messages_recvd(), stats.total_messages());
  EXPECT_EQ(stats.total_bytes_recvd(), stats.total_bytes());
  EXPECT_GE(stats.total_wait_sec(), 0.0);
}

TEST(Simpi, RankExceptionPropagates) {
  EXPECT_THROW(run(3,
                   [](RankCtx& ctx) {
                     if (ctx.rank() == 1) throw Error("rank 1 exploded");
                   }),
               Error);
}

TEST(Simpi, InvalidDestinationThrows) {
  EXPECT_THROW(run(2,
                   [](RankCtx& ctx) {
                     if (ctx.rank() == 0) ctx.send(5, 0, {1.0f});
                   }),
               Error);
}

TEST(Simpi, ZeroRanksRejected) {
  EXPECT_THROW(run(0, [](RankCtx&) {}), ConfigError);
}

}  // namespace
}  // namespace wrf::par
