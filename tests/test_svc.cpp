// Scheduler laws of the forecast service (src/svc): FIFO within a
// class, hierarchical fair-share across classes under saturation,
// typed admission rejection of an over-DRAM job, deadline ordering,
// same-shape batching, and the determinism gate — every scheduled
// job's state hash and physics stats are bitwise identical to a
// standalone model::run_single of the same RunConfig, across serial
// and threaded host dispatch, both residency modes, and a concurrent
// multi-lane pool.  Plus the admission footprint's one-source-of-truth
// law: svc::job_footprint_bytes, the perfmodel ranks-per-GPU formula,
// and the residency subsystem's actually-allocated bytes all agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "perfmodel/machine.hpp"
#include "model/knobs.hpp"
#include "svc/scheduler.hpp"

namespace wrf {
namespace {

/// A cheap host-only scenario for pure scheduling-law tests.
model::RunConfig tiny_case(std::uint64_t seed = 1) {
  model::RunConfig cfg;
  cfg.nx = 12;
  cfg.ny = 8;
  cfg.nz = 6;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 1;
  cfg.version = fsbm::Version::kV1LookupOnDemand;
  cfg.seed = seed;
  return cfg;
}

/// An offloaded scenario (device footprint > 0) for admission tests.
model::RunConfig offload_case(fsbm::Version v, mem::ResidencyMode res,
                              std::uint64_t seed = 1) {
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 2;
  cfg.version = v;
  cfg.res = res;
  cfg.seed = seed;
  return cfg;
}

svc::SchedulerConfig one_lane_no_batch() {
  svc::SchedulerConfig sc;
  sc.lanes = 1;
  sc.batch_max = 1;
  sc.start_paused = true;
  return sc;
}

/// Results sorted by the order jobs left the queue.
std::vector<svc::JobResult> by_dispatch(std::vector<svc::JobResult> rs) {
  std::sort(rs.begin(), rs.end(),
            [](const svc::JobResult& a, const svc::JobResult& b) {
              return a.dispatch_seq < b.dispatch_seq;
            });
  return rs;
}

// ------------------------------------------------------------- job model

TEST(SvcJob, ClassNamesRoundTrip) {
  EXPECT_EQ(svc::parse_job_class("interactive"), svc::JobClass::kInteractive);
  EXPECT_EQ(svc::parse_job_class("ensemble"), svc::JobClass::kEnsemble);
  EXPECT_EQ(svc::parse_job_class("batch"), svc::JobClass::kBatch);
  for (int c = 0; c < svc::kNumClasses; ++c) {
    const auto cls = static_cast<svc::JobClass>(c);
    EXPECT_EQ(svc::parse_job_class(svc::job_class_name(cls)), cls);
  }
  EXPECT_THROW(svc::parse_job_class("premium"), ConfigError);
  EXPECT_THROW(svc::parse_job_class(""), ConfigError);
}

TEST(SvcJob, ShapeKeyIgnoresSeedButNotShape) {
  const model::RunConfig a = offload_case(fsbm::Version::kV2Offload2,
                                          mem::ResidencyMode::kStep, 1);
  model::RunConfig b = a;
  b.seed = 999;  // a perturbed ensemble member
  EXPECT_EQ(svc::job_shape_key(a), svc::job_shape_key(b));

  model::RunConfig c = a;
  c.nx = 24;
  EXPECT_NE(svc::job_shape_key(a), svc::job_shape_key(c));
  model::RunConfig d = a;
  d.nsteps = 3;
  EXPECT_NE(svc::job_shape_key(a), svc::job_shape_key(d));
  model::RunConfig e = a;
  e.res = mem::ResidencyMode::kPersist;
  EXPECT_NE(svc::job_shape_key(a), svc::job_shape_key(e));
}

// ------------------------------------------- footprint: one source of truth

TEST(SvcFootprint, SharedFormulaArithmetic) {
  perfmodel::ResidentInventory inv;
  inv.bin_arrays = 2;
  inv.arrays_3d = 3;
  inv.byte_arrays_3d = 1;
  inv.elem_bytes = 4;
  inv.fixed_bytes = 100;
  // per cell: 2 bin arrays x nkr=5 x 4B + 3 arrays x 4B + 1 byte = 53.
  EXPECT_EQ(perfmodel::resident_footprint_bytes(inv, 10, 5), 10u * 53u + 100u);
  inv.fixed_bytes = 0;
  EXPECT_EQ(perfmodel::resident_footprint_bytes(inv, 0, 5), 0u);
}

TEST(SvcFootprint, PerfmodelRanksPerDeviceUsesTheSharedFormula) {
  // The paper-scale DeviceFootprint must price per-rank bytes exactly as
  // the pre-refactor inline formula did — the refactor onto
  // resident_footprint_bytes changes the source of truth, not the number.
  const perfmodel::DeviceFootprint df;
  const std::int64_t cells = 107LL * 75 * 50;
  const int nkr = 33;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(cells) *
          (static_cast<std::uint64_t>(df.bin_arrays) * nkr + df.arrays_3d) *
          df.elem_bytes +
      df.stack_reservation_bytes + df.context_bytes + df.heap_bytes;
  EXPECT_EQ(df.per_rank_bytes(cells, nkr), expected);
  EXPECT_GT(df.max_ranks_per_gpu(gpu::DeviceSpec::a100_40gb(), cells, nkr), 0);
}

TEST(SvcFootprint, AdmissionEstimateMatchesResidencyAllocationExactly) {
  // The admission number is not a heuristic: it equals the bytes the
  // residency subsystem actually pins for a res=persist run (field table
  // + v3 temp_arrays pools), straight from RunResult.
  for (const fsbm::Version v :
       {fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3}) {
    const model::RunConfig cfg =
        offload_case(v, mem::ResidencyMode::kPersist);
    const model::RunResult run = model::run_single(cfg);
    EXPECT_EQ(svc::job_footprint_bytes(cfg),
              run.resident_bytes_per_rank + run.pool_bytes_per_rank)
        << fsbm::version_name(v);
    EXPECT_GT(svc::job_footprint_bytes(cfg), 0u);
  }
  // Host-only versions demand no device bytes.
  EXPECT_EQ(svc::job_footprint_bytes(tiny_case()), 0u);
}

// ---------------------------------------------------------- fair-share tree

TEST(FairShareTree, RejectsBadWeightAndEmptyPop) {
  svc::FairShareTree tree;
  EXPECT_THROW(tree.add_leaf("zero", 0.0), ConfigError);
  EXPECT_THROW(tree.add_leaf("negative", -1.0), ConfigError);
  tree.add_leaf("ok", 1.0);
  EXPECT_TRUE(tree.empty());
  EXPECT_THROW(tree.pop_next(), Error);
}

TEST(FairShareTree, FifoWithinLeafWithoutDeadlines) {
  svc::FairShareTree tree;
  const int leaf = tree.add_leaf("batch", 1.0);
  for (std::uint64_t n = 1; n <= 4; ++n) {
    svc::QueueEntry e;
    e.id = n;
    e.seq = n;
    e.cost = 1.0;
    tree.push(leaf, e);
  }
  for (std::uint64_t n = 1; n <= 4; ++n) {
    EXPECT_EQ(tree.pop_next().id, n);
  }
}

TEST(FairShareTree, DeadlineOrdersWithinLeaf) {
  svc::FairShareTree tree;
  const int leaf = tree.add_leaf("interactive", 1.0);
  const double deadlines[] = {0.0, 500.0, 100.0, 0.0};  // 0 = none
  for (std::uint64_t n = 0; n < 4; ++n) {
    svc::QueueEntry e;
    e.id = n + 1;
    e.seq = n + 1;
    e.deadline = deadlines[n];
    e.cost = 1.0;
    tree.push(leaf, e);
  }
  // Earliest deadline first; deadline-free entries last, FIFO among them.
  EXPECT_EQ(tree.pop_next().id, 3u);
  EXPECT_EQ(tree.pop_next().id, 2u);
  EXPECT_EQ(tree.pop_next().id, 1u);
  EXPECT_EQ(tree.pop_next().id, 4u);
}

TEST(FairShareTree, WeightedInterleaveIsThePinnedSequence) {
  // Weights 8/3/1, five equal-cost entries per leaf.  The usage/weight
  // rule (ties: most urgent deadline, then lowest leaf) produces exactly
  // this sequence — a pure function of the queue, pinned here so any
  // change to the rule is a visible diff.
  svc::FairShareTree tree;
  tree.add_leaf("interactive", 8.0);
  tree.add_leaf("ensemble", 3.0);
  tree.add_leaf("batch", 1.0);
  std::uint64_t seq = 1;
  for (int l = 0; l < 3; ++l) {
    for (int n = 0; n < 5; ++n) {
      svc::QueueEntry e;
      e.id = seq;
      e.seq = seq;
      e.cost = 1.0;
      tree.push(l, e);
      ++seq;
    }
  }
  const int expected[] = {0, 1, 2, 0, 0, 1, 0, 0, 1, 1, 2, 1, 2, 2, 2};
  for (int n = 0; n < 15; ++n) {
    int leaf = -1;
    tree.pop_next(&leaf);
    EXPECT_EQ(leaf, expected[n]) << "dispatch " << n;
  }
  EXPECT_TRUE(tree.empty());
}

TEST(FairShareTree, DeadlineBreaksRootTies) {
  // Both leaves idle (equal shares): the one holding the most urgent
  // deadline wins even though it has the higher index.
  svc::FairShareTree tree;
  tree.add_leaf("a", 1.0);
  tree.add_leaf("b", 1.0);
  svc::QueueEntry ea;
  ea.id = 1;
  ea.seq = 1;
  ea.cost = 1.0;
  tree.push(0, ea);
  svc::QueueEntry eb;
  eb.id = 2;
  eb.seq = 2;
  eb.deadline = 5.0;
  eb.cost = 1.0;
  tree.push(1, eb);
  int leaf = -1;
  EXPECT_EQ(tree.pop_next(&leaf).id, 2u);
  EXPECT_EQ(leaf, 1);
}

TEST(FairShareTree, PopMatchingFiltersShapeAndBudget) {
  svc::FairShareTree tree;
  const int leaf = tree.add_leaf("ensemble", 3.0);
  struct Row {
    std::uint64_t id;
    const char* shape;
    std::uint64_t bytes;
    double deadline;
  };
  const Row rows[] = {{1, "A", 100, 0.0},
                      {2, "B", 100, 0.0},
                      {3, "A", 100, 7.0},
                      {4, "A", 500, 0.0}};
  std::uint64_t seq = 1;
  for (const Row& r : rows) {
    svc::QueueEntry e;
    e.id = r.id;
    e.seq = seq++;
    e.shape_key = r.shape;
    e.footprint_bytes = r.bytes;
    e.deadline = r.deadline;
    e.cost = 1.0;
    tree.push(leaf, e);
  }
  svc::QueueEntry out;
  // Shape A within a 200-byte budget: deadline winner first (id 3), then
  // FIFO (id 1); id 4 matches the shape but busts the budget.
  ASSERT_TRUE(tree.pop_matching(leaf, "A", 200, &out));
  EXPECT_EQ(out.id, 3u);
  ASSERT_TRUE(tree.pop_matching(leaf, "A", 200, &out));
  EXPECT_EQ(out.id, 1u);
  EXPECT_FALSE(tree.pop_matching(leaf, "A", 200, &out));
  ASSERT_TRUE(tree.pop_matching(leaf, "A", 500, &out));
  EXPECT_EQ(out.id, 4u);
  EXPECT_FALSE(tree.pop_matching(leaf, "C", 1u << 30, &out));
  EXPECT_EQ(tree.pending(), 1u);  // shape B untouched
}

// ------------------------------------------------------------ scheduler laws

TEST(SvcScheduler, FifoWithinOneClass) {
  svc::Scheduler sched(one_lane_no_batch());
  std::vector<std::uint64_t> ids;
  for (std::uint64_t n = 0; n < 4; ++n) {
    svc::Job job;
    job.config = tiny_case(/*seed=*/n + 1);
    job.cls = svc::JobClass::kBatch;
    job.name = "fifo-" + std::to_string(n);
    const svc::Ticket t = sched.submit(job);
    ASSERT_TRUE(t.admitted);
    ids.push_back(t.id);
  }
  sched.drain();
  sched.shutdown();
  const auto results = by_dispatch(sched.take_results());
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t n = 0; n < results.size(); ++n) {
    EXPECT_EQ(results[n].id, ids[n]) << "dispatch " << n;
    EXPECT_EQ(results[n].outcome, svc::JobOutcome::kCompleted);
    EXPECT_LE(results[n].submit_sec, results[n].start_sec);
    EXPECT_LE(results[n].start_sec, results[n].finish_sec);
  }
}

TEST(SvcScheduler, DeadlineOrdersWithinAClass) {
  svc::Scheduler sched(one_lane_no_batch());
  const double deadlines[] = {0.0, 500.0, 100.0};
  std::vector<std::uint64_t> ids;
  for (int n = 0; n < 3; ++n) {
    svc::Job job;
    job.config = tiny_case(static_cast<std::uint64_t>(n) + 1);
    job.cls = svc::JobClass::kInteractive;
    job.deadline_sec = deadlines[n];
    const svc::Ticket t = sched.submit(job);
    ASSERT_TRUE(t.admitted);
    ids.push_back(t.id);
  }
  sched.drain();
  sched.shutdown();
  const auto results = by_dispatch(sched.take_results());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].id, ids[2]);  // deadline 100s
  EXPECT_EQ(results[1].id, ids[1]);  // deadline 500s
  EXPECT_EQ(results[2].id, ids[0]);  // none
  EXPECT_TRUE(results[0].has_deadline());
  EXPECT_FALSE(results[2].has_deadline());
}

TEST(SvcScheduler, FairShareHoldsUnderSaturation) {
  // A paused-submit stream of 5 equal-cost jobs per class dispatches in
  // the pinned weighted-interleave sequence: cost units are
  // deterministic, so the order is a pure function of the queue.
  svc::Scheduler sched(one_lane_no_batch());
  std::map<std::uint64_t, svc::JobClass> cls_of;
  for (int c = 0; c < svc::kNumClasses; ++c) {
    for (int n = 0; n < 5; ++n) {
      svc::Job job;
      job.config = tiny_case(static_cast<std::uint64_t>(c * 8 + n) + 1);
      job.cls = static_cast<svc::JobClass>(c);
      const svc::Ticket t = sched.submit(job);
      ASSERT_TRUE(t.admitted);
      cls_of[t.id] = job.cls;
    }
  }
  sched.drain();
  sched.shutdown();
  const auto results = by_dispatch(sched.take_results());
  ASSERT_EQ(results.size(), 15u);
  const int expected[] = {0, 1, 2, 0, 0, 1, 0, 0, 1, 1, 2, 1, 2, 2, 2};
  double pos_sum[svc::kNumClasses] = {0, 0, 0};
  for (std::size_t n = 0; n < results.size(); ++n) {
    EXPECT_EQ(static_cast<int>(results[n].cls), expected[n])
        << "dispatch " << n;
    EXPECT_EQ(cls_of[results[n].id], results[n].cls);
    pos_sum[static_cast<int>(results[n].cls)] += static_cast<double>(n);
  }
  // Heavier classes finish earlier on average — per-class wait ordered
  // by weight (measured in dispatch positions, immune to wall jitter).
  EXPECT_LT(pos_sum[0], pos_sum[1]);
  EXPECT_LT(pos_sum[1], pos_sum[2]);
}

TEST(SvcScheduler, RejectsOverDeviceMemoryAtAdmission) {
  svc::SchedulerConfig sc = one_lane_no_batch();
  sc.lane_spec = gpu::DeviceSpec::a100_40gb();
  sc.lane_spec.dram_bytes = 1ull << 20;  // a 1 MB "device"
  svc::Scheduler sched(sc);

  svc::Job big;
  big.config =
      offload_case(fsbm::Version::kV3Offload3, mem::ResidencyMode::kPersist);
  big.cls = svc::JobClass::kEnsemble;
  big.name = "oversized";
  const svc::Ticket t = sched.submit(big);
  EXPECT_FALSE(t.admitted);
  EXPECT_EQ(t.reason, svc::RejectReason::kOverDeviceMemory);
  EXPECT_NE(t.message.find("device bytes"), std::string::npos);

  // A host-only job on the same pool is fine: footprint 0.
  svc::Job ok;
  ok.config = tiny_case();
  EXPECT_TRUE(sched.submit(ok).admitted);

  sched.drain();
  sched.shutdown();
  const auto results = sched.take_results();
  ASSERT_EQ(results.size(), 2u);
  const svc::ServiceStats stats = sched.stats();
  EXPECT_EQ(stats.rejected(), 1u);
  EXPECT_EQ(stats.completed(), 1u);
  for (const svc::JobResult& r : results) {
    if (r.outcome == svc::JobOutcome::kRejected) {
      // Rejected up front: never dispatched, never touched a lane.
      EXPECT_EQ(r.reject, svc::RejectReason::kOverDeviceMemory);
      EXPECT_EQ(r.lane, -1);
      EXPECT_EQ(r.dispatch_seq, 0u);
      EXPECT_GT(r.footprint_bytes, sc.lane_spec.dram_bytes);
    } else {
      EXPECT_EQ(r.outcome, svc::JobOutcome::kCompleted);
    }
  }
  // The determinism cross-check: nothing failed mid-run.
  EXPECT_EQ(stats.failed(), 0u);
}

TEST(SvcScheduler, RejectsBadConfigWithTypedReason) {
  svc::Scheduler sched(one_lane_no_batch());
  svc::Job bad;
  bad.config = tiny_case();
  bad.config.nx = 4;  // below the validate() minimum
  const svc::Ticket t = sched.submit(bad);
  EXPECT_FALSE(t.admitted);
  EXPECT_EQ(t.reason, svc::RejectReason::kBadConfig);
  sched.shutdown();
  const auto results = sched.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, svc::JobOutcome::kRejected);
  EXPECT_EQ(results[0].reject, svc::RejectReason::kBadConfig);
}

TEST(SvcScheduler, RejectsAfterShutdown) {
  svc::Scheduler sched(one_lane_no_batch());
  sched.shutdown();
  svc::Job job;
  job.config = tiny_case();
  const svc::Ticket t = sched.submit(job);
  EXPECT_FALSE(t.admitted);
  EXPECT_EQ(t.reason, svc::RejectReason::kShuttingDown);
}

TEST(SvcScheduler, BatchesSameShapeEnsembleMembers) {
  svc::SchedulerConfig sc;
  sc.lanes = 1;
  sc.batch_max = 3;
  sc.start_paused = true;
  svc::Scheduler sched(sc);

  // Three members differing only by seed, plus one different shape.
  std::vector<std::uint64_t> member_ids;
  for (int n = 0; n < 3; ++n) {
    svc::Job job;
    job.config = tiny_case(static_cast<std::uint64_t>(n) + 100);
    job.cls = svc::JobClass::kEnsemble;
    job.name = "member-" + std::to_string(n);
    member_ids.push_back(sched.submit(job).id);
  }
  svc::Job other;
  other.config = tiny_case(7);
  other.config.nsteps = 2;  // different shape key
  other.cls = svc::JobClass::kEnsemble;
  const std::uint64_t other_id = sched.submit(other).id;

  sched.drain();
  sched.shutdown();
  const auto results = sched.take_results();
  ASSERT_EQ(results.size(), 4u);
  std::uint64_t member_batch = 0;
  for (const svc::JobResult& r : results) {
    EXPECT_EQ(r.outcome, svc::JobOutcome::kCompleted);
    if (r.id == other_id) {
      EXPECT_EQ(r.batch_size, 1);
    } else {
      EXPECT_EQ(r.batch_size, 3);
      if (member_batch == 0) member_batch = r.batch_seq;
      EXPECT_EQ(r.batch_seq, member_batch);  // one lane dispatch
    }
  }
  const svc::ServiceStats stats = sched.stats();
  EXPECT_EQ(stats.dispatches, 2u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_jobs, 3u);
  (void)member_ids;
}

TEST(SvcScheduler, BatchRespectsFootprintCofitBudget) {
  // Three identical offloaded members whose footprints co-fit only two
  // at a time: the dispatch batches two, the third rides alone.
  const model::RunConfig member =
      offload_case(fsbm::Version::kV2Offload2, mem::ResidencyMode::kStep);
  svc::SchedulerConfig sc;
  sc.lanes = 1;
  sc.batch_max = 3;
  sc.start_paused = true;
  sc.lane_spec = gpu::DeviceSpec::a100_40gb();
  {
    model::RunConfig probe = member;
    probe.device_spec = sc.lane_spec;
    const std::uint64_t fp = svc::job_footprint_bytes(probe);
    ASSERT_GT(fp, 0u);
    sc.lane_spec.dram_bytes = 2 * fp + fp / 2;  // fits 2, not 3
  }
  svc::Scheduler sched(sc);
  for (int n = 0; n < 3; ++n) {
    svc::Job job;
    job.config = member;
    job.config.seed = static_cast<std::uint64_t>(n) + 1;
    job.cls = svc::JobClass::kEnsemble;
    ASSERT_TRUE(sched.submit(job).admitted);
  }
  sched.drain();
  sched.shutdown();
  const auto results = by_dispatch(sched.take_results());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].batch_size, 2);
  EXPECT_EQ(results[1].batch_size, 2);
  EXPECT_EQ(results[2].batch_size, 1);
}

// ------------------------------------------------------- determinism gate

TEST(SvcScheduler, JobsAreBitwiseIdenticalToStandaloneRuns) {
  // A concurrent 2-lane pool, jobs across serial/threaded host dispatch
  // and both residency modes: every completed job's state hash and
  // physics stats must match a standalone run of its recorded config.
  svc::SchedulerConfig sc;
  sc.lanes = 2;
  sc.batch_max = 2;
  sc.start_paused = true;
  svc::Scheduler sched(sc);

  std::vector<svc::Job> jobs;
  for (const mem::ResidencyMode res :
       {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
    for (const char* e : {"serial", "threads:2"}) {
      svc::Job job;
      job.config = offload_case(fsbm::Version::kV3Offload3, res,
                                /*seed=*/jobs.size() + 1);
      job.config.exec = exec::ExecConfig::parse(e);
      job.cls = svc::JobClass::kEnsemble;
      job.name = std::string(e) + "/" + model::knob_name("res", res);
      jobs.push_back(job);
    }
  }
  for (const svc::Job& job : jobs) {
    ASSERT_TRUE(sched.submit(job).admitted) << job.name;
  }
  sched.drain();
  sched.shutdown();
  const auto results = sched.take_results();
  ASSERT_EQ(results.size(), jobs.size());
  for (const svc::JobResult& r : results) {
    SCOPED_TRACE(r.name);
    ASSERT_EQ(r.outcome, svc::JobOutcome::kCompleted) << r.error;
    EXPECT_EQ(r.state_hash, model::state_hash(r.run));

    const model::RunResult solo = model::run_single(r.config);
    EXPECT_EQ(model::state_hash(solo), r.state_hash);
    const fsbm::FsbmStats& fa = solo.totals.fsbm;
    const fsbm::FsbmStats& fb = r.run.totals.fsbm;
    EXPECT_EQ(fa.cells_active, fb.cells_active);
    EXPECT_EQ(fa.cells_coal, fb.cells_coal);
    EXPECT_EQ(fa.coal_flops, fb.coal_flops);
    EXPECT_EQ(fa.cond_flops, fb.cond_flops);
    EXPECT_EQ(fa.nucl_flops, fb.nucl_flops);
    EXPECT_EQ(fa.sed_flops, fb.sed_flops);
    EXPECT_EQ(fa.surface_precip, fb.surface_precip);
  }
}

// ------------------------------------------------------------- service view

TEST(SvcScheduler, ServiceStatsAddUp) {
  svc::SchedulerConfig sc;
  sc.lanes = 2;
  sc.batch_max = 1;
  sc.start_paused = true;
  svc::Scheduler sched(sc);
  for (int n = 0; n < 5; ++n) {
    svc::Job job;
    job.config = tiny_case(static_cast<std::uint64_t>(n) + 1);
    job.cls = n % 2 == 0 ? svc::JobClass::kInteractive
                         : svc::JobClass::kBatch;
    job.deadline_sec = 3600.0;  // generous: all met
    ASSERT_TRUE(sched.submit(job).admitted);
  }
  sched.drain();
  const svc::ServiceStats stats = sched.stats();
  sched.shutdown();
  EXPECT_EQ(stats.lanes, 2);
  EXPECT_EQ(stats.submitted(), 5u);
  EXPECT_EQ(stats.admitted(), 5u);
  EXPECT_EQ(stats.completed(), 5u);
  EXPECT_EQ(stats.dispatches, 5u);
  EXPECT_EQ(stats.batches, 0u);
  const svc::ClassStats& inter =
      stats.cls[static_cast<int>(svc::JobClass::kInteractive)];
  EXPECT_EQ(inter.completed, 3u);
  EXPECT_EQ(inter.deadline_jobs, 3u);
  EXPECT_EQ(inter.deadline_met, 3u);
  EXPECT_GE(inter.wait_max_sec, 0.0);
  EXPECT_TRUE(stats.any_dispatched);
  EXPECT_GT(stats.makespan_sec(), 0.0);
  EXPECT_GT(stats.pool_parallelism(), 0.0);
  EXPECT_LE(stats.occupancy(), 1.0 + 1e-9);
  // take_results moves: the second call is empty.
  EXPECT_EQ(sched.take_results().size(), 5u);
  EXPECT_TRUE(sched.take_results().empty());
}

TEST(SvcStats, WaitQuantilesInterpolate) {
  svc::ClassStats cs;
  // No finished jobs: quantiles are 0, not NaN.
  EXPECT_DOUBLE_EQ(cs.wait_p50_sec(), 0.0);
  EXPECT_DOUBLE_EQ(cs.wait_p95_sec(), 0.0);

  cs.wait_samples_sec = {4.0};
  EXPECT_DOUBLE_EQ(cs.wait_p50_sec(), 4.0);
  EXPECT_DOUBLE_EQ(cs.wait_p95_sec(), 4.0);

  // Linear interpolation over the sorted samples, insertion order
  // irrelevant: {1,2,3,4} -> p50 = 2.5, p95 = 1 + 0.95*3 = 3.85.
  cs.wait_samples_sec = {3.0, 1.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(cs.wait_p50_sec(), 2.5);
  EXPECT_DOUBLE_EQ(cs.wait_p95_sec(), 3.85);
  // q clamps to [0, 1].
  EXPECT_DOUBLE_EQ(cs.wait_quantile_sec(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(cs.wait_quantile_sec(2.0), 4.0);
}

TEST(SvcStats, WaitSamplesFeedQuantilesAndPublish) {
  svc::SchedulerConfig sc = one_lane_no_batch();
  svc::Scheduler sched(sc);
  for (int n = 0; n < 4; ++n) {
    svc::Job job;
    job.config = tiny_case(static_cast<std::uint64_t>(n) + 1);
    job.cls = svc::JobClass::kBatch;
    ASSERT_TRUE(sched.submit(job).admitted);
  }
  sched.drain();
  const svc::ServiceStats stats = sched.stats();
  sched.shutdown();

  const svc::ClassStats& cs =
      stats.cls[static_cast<int>(svc::JobClass::kBatch)];
  ASSERT_EQ(cs.wait_samples_sec.size(), 4u);  // one per finished job
  double sum = 0.0;
  for (const double w : cs.wait_samples_sec) {
    EXPECT_GE(w, 0.0);
    sum += w;
  }
  EXPECT_DOUBLE_EQ(sum, cs.wait_total_sec);  // same recordings
  EXPECT_LE(cs.wait_p50_sec(), cs.wait_p95_sec());
  EXPECT_LE(cs.wait_p95_sec(), cs.wait_max_sec + 1e-12);

  // publish() reconciles: counters equal the fields exactly.
  obs::Registry reg;
  stats.publish(reg);
  EXPECT_DOUBLE_EQ(
      reg.value("wrf_svc_jobs_total",
                {{"class", "batch"}, {"state", "completed"}}),
      static_cast<double>(cs.completed));
  EXPECT_DOUBLE_EQ(
      reg.value("wrf_svc_jobs_total",
                {{"class", "batch"}, {"state", "submitted"}}),
      4.0);
  EXPECT_DOUBLE_EQ(reg.value("wrf_svc_wait_seconds_total", {{"class", "batch"}}),
                   cs.wait_total_sec);
  EXPECT_DOUBLE_EQ(
      reg.value("wrf_svc_wait_seconds",
                {{"class", "batch"}, {"quantile", "0.5"}}),
      cs.wait_p50_sec());
  EXPECT_DOUBLE_EQ(
      reg.value("wrf_svc_wait_seconds",
                {{"class", "batch"}, {"quantile", "0.95"}}),
      cs.wait_p95_sec());
  EXPECT_DOUBLE_EQ(reg.value("wrf_svc_dispatches_total"),
                   static_cast<double>(stats.dispatches));
  EXPECT_DOUBLE_EQ(reg.value("wrf_svc_lanes"), 1.0);
}

// ----------------------------------------------------- scheduler tracing

TEST(SvcScheduler, TraceModeRecordsLifecycleAndKeepsResultsIdentical) {
  // Same stream twice — obs off, then obs=trace — with fixed seeds: the
  // trace run must record the full lifecycle yet leave every result
  // bitwise identical (jobs are normalized to obs=off internally).
  auto run_stream = [](const obs::ObsConfig& obs) {
    svc::SchedulerConfig sc;
    sc.lanes = 2;
    sc.batch_max = 2;
    sc.start_paused = true;
    sc.obs = obs;
    svc::Scheduler sched(sc);
    for (int n = 0; n < 4; ++n) {
      svc::Job job;
      job.config = tiny_case(static_cast<std::uint64_t>(n) + 1);
      job.cls = n < 2 ? svc::JobClass::kInteractive : svc::JobClass::kEnsemble;
      job.name = "job-" + std::to_string(n);
      EXPECT_TRUE(sched.submit(job).admitted);
    }
    sched.drain();
    sched.shutdown();

    std::map<std::uint64_t, std::uint64_t> hash_by_seed;
    for (const svc::JobResult& r : sched.take_results()) {
      EXPECT_EQ(r.outcome, svc::JobOutcome::kCompleted);
      hash_by_seed[r.config.seed] = r.state_hash;
    }

    std::uint64_t events = 0;
    std::uint64_t svc_instants = 0;
    if (const obs::TraceSink* sink = sched.trace_sink()) {
      for (const obs::TrackEvents& track : sink->drain()) {
        std::uint64_t prev_ts = 0;
        std::int64_t open = 0;
        for (const obs::TraceEvent& e : track.events) {
          ++events;
          EXPECT_GE(e.ts_us, prev_ts);  // monotone per track
          prev_ts = e.ts_us;
          if (e.phase == 'B') ++open;
          if (e.phase == 'E') --open;
          EXPECT_GE(open, 0);
          if (e.phase == 'i' && std::string(e.cat) == "svc") ++svc_instants;
        }
        EXPECT_EQ(open, 0);  // balanced spans on every track
      }
    }
    return std::make_tuple(hash_by_seed, events, svc_instants);
  };

  obs::ObsConfig trace_cfg;
  trace_cfg.mode = obs::ObsMode::kTrace;
  trace_cfg.path = "obs_test_svc_trace.json";
  const auto [hashes_off, ev_off, si_off] = run_stream(obs::ObsConfig{});
  const auto [hashes_on, ev_on, si_on] = run_stream(trace_cfg);

  EXPECT_EQ(hashes_off, hashes_on);  // tracing never changes results
  EXPECT_EQ(ev_off, 0u);
  EXPECT_GT(ev_on, 0u);
  // Lifecycle instants: submit + admit + dispatch + complete per job at
  // minimum (4 jobs), plus any batch markers.
  EXPECT_GE(si_on, 16u);
  EXPECT_EQ(si_off, 0u);
}

}  // namespace
}  // namespace wrf
