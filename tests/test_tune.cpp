// Autotuner guarantees (src/tune): the tune= knob grammar, the knob
// round-trip contract behind tuned.json loadability, search-space
// legality, artifact schema strictness, and the two hard gates the
// subsystem is built around —
//
//  * applying a tuned entry is bitwise identical (state hash + physics
//    stats) to setting the same knobs explicitly: tuning changes speed,
//    never physics;
//  * the forecast service resolves tuning at submit time, so a
//    scheduled job's recorded config reproduces the job standalone with
//    no artifact on disk.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "model/driver.hpp"
#include "svc/scheduler.hpp"
#include "tune/artifact.hpp"
#include "tune/tuner.hpp"
#include "util/error.hpp"

namespace wrf {
namespace {

model::RunConfig tiny_case(fsbm::Version v = fsbm::Version::kV1LookupOnDemand) {
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 1;
  cfg.version = v;
  return cfg;
}

/// A unique scratch path under the test working directory; removed by
/// the caller via std::remove.
std::string scratch_path(const char* stem) {
  return std::string("test_tune_") + stem + ".json";
}

// ------------------------------------------------------------ tune= knob

TEST(TuneSpec, ParseModes) {
  EXPECT_TRUE(tune::TuneSpec::parse("off").off());
  EXPECT_EQ(tune::TuneSpec::parse("off").describe(), "off");

  const tune::TuneSpec a = tune::TuneSpec::parse("auto");
  EXPECT_EQ(a.mode, tune::TuneMode::kAuto);
  EXPECT_FALSE(a.off());
  EXPECT_EQ(a.artifact_path(), tune::kDefaultArtifactPath);
  EXPECT_EQ(a.describe(), "auto");

  const tune::TuneSpec f = tune::TuneSpec::parse("file:runs/t.json");
  EXPECT_EQ(f.mode, tune::TuneMode::kFile);
  EXPECT_EQ(f.path, "runs/t.json");
  EXPECT_EQ(f.artifact_path(), "runs/t.json");
  EXPECT_EQ(f.describe(), "file:runs/t.json");
}

TEST(TuneSpec, ParseRejectsMalformed) {
  EXPECT_THROW(tune::TuneSpec::parse(""), ConfigError);
  EXPECT_THROW(tune::TuneSpec::parse("file"), ConfigError);
  EXPECT_THROW(tune::TuneSpec::parse("file:"), ConfigError);
  EXPECT_THROW(tune::TuneSpec::parse("bogus"), ConfigError);
  EXPECT_THROW(tune::TuneSpec::parse("auto:tuned.json"), ConfigError);
  EXPECT_THROW(tune::TuneSpec::parse("off:tuned.json"), ConfigError);
}

TEST(TuneSpec, FromArgsDefaultsOff) {
  const char* argv1[] = {"prog"};
  EXPECT_TRUE(tune::tune_from_args(1, const_cast<char**>(argv1)).off());
  const char* argv2[] = {"prog", "exec=serial", "tune=file:x.json"};
  const tune::TuneSpec s = tune::tune_from_args(3, const_cast<char**>(argv2));
  EXPECT_EQ(s.mode, tune::TuneMode::kFile);
  EXPECT_EQ(s.path, "x.json");
}

// -------------------------------------------------- knob string round trip

TEST(TuneKnobs, DescribeParseIdentityAcrossTheMatrix) {
  // Every combination a tuner could emit must survive describe() ->
  // parse() -> describe() unchanged: this is the loadability contract
  // of tuned.json artifacts.
  std::vector<exec::ExecConfig> execs;
  execs.push_back(exec::ExecConfig::parse("serial"));
  execs.push_back(exec::ExecConfig::parse("threads:2"));
  execs.push_back(exec::ExecConfig::parse("device"));
  execs.push_back(exec::ExecConfig::parse("hetero:3"));
  for (const auto& e : execs) {
    for (const char* halo : {"sync", "overlap"}) {
      for (const char* res : {"step", "persist"}) {
        for (const char* fuse : {"off", "auto"}) {
          tune::KnobSet k;
          k.exec = e;
          k.halo = dyn::parse_halo_mode(halo);
          k.res = mem::parse_residency(res);
          k.fuse = exec::parse_fuse(fuse);
          const std::string s = k.describe();
          const tune::KnobSet back = tune::KnobSet::parse(s);
          EXPECT_EQ(back.describe(), s);
          EXPECT_TRUE(back == k) << s;
        }
      }
    }
  }
}

TEST(TuneKnobs, ApplyToChangesOnlyTheTunableSlice) {
  model::RunConfig cfg = tiny_case(fsbm::Version::kV2Offload2);
  cfg.phys = fsbm::PhysScheme::kHybrid;
  const std::string shape_before = tune::shape_key(cfg);
  const tune::KnobSet k =
      tune::KnobSet::parse("exec=device halo=overlap res=persist fuse=auto");
  k.apply_to(cfg);
  EXPECT_EQ(cfg.exec.kind, exec::ExecKind::kDevice);
  EXPECT_EQ(cfg.halo_mode, dyn::HaloMode::kOverlap);
  EXPECT_EQ(cfg.res, mem::ResidencyMode::kPersist);
  EXPECT_EQ(cfg.fuse, exec::FuseMode::kAuto);
  // Physics and shape are untouched by construction.
  EXPECT_EQ(cfg.phys, fsbm::PhysScheme::kHybrid);
  EXPECT_EQ(tune::shape_key(cfg), shape_before);
  EXPECT_TRUE(tune::KnobSet::of(cfg) == k);
}

TEST(TuneKnobs, ParseRejectsUnknownDuplicateAndBadValues) {
  EXPECT_THROW(tune::KnobSet::parse("exec=serial phys=bulk"), ConfigError);
  EXPECT_THROW(tune::KnobSet::parse("exec=serial exec=device"), ConfigError);
  EXPECT_THROW(tune::KnobSet::parse("exec=warp9"), ConfigError);
  EXPECT_THROW(tune::KnobSet::parse("sed=column"), ConfigError);  // retired
  EXPECT_THROW(tune::KnobSet::parse("plainword"), ConfigError);
}

TEST(TuneKnobs, RunConfigDescribeShowsTuneOnlyWhenSet) {
  model::RunConfig cfg = tiny_case();
  EXPECT_EQ(cfg.describe().find("tune="), std::string::npos);
  cfg.tune = tune::TuneSpec::parse("file:t.json");
  EXPECT_NE(cfg.describe().find("tune=file:t.json"), std::string::npos);
}

// ------------------------------------------------------------ search space

TEST(TuneSpace, ShapeKeySeparatesPhysicsFromKnobs) {
  const model::RunConfig a = tiny_case();
  model::RunConfig b = a;
  b.exec = exec::ExecConfig::parse("threads:4");
  b.res = mem::ResidencyMode::kPersist;
  EXPECT_EQ(tune::shape_key(a), tune::shape_key(b));  // knobs don't key

  model::RunConfig c = a;
  c.version = fsbm::Version::kV3Offload3;
  EXPECT_NE(tune::shape_key(a), tune::shape_key(c));  // physics does
  model::RunConfig d = a;
  d.phys = fsbm::PhysScheme::kHybrid;
  EXPECT_NE(tune::shape_key(a), tune::shape_key(d));
}

TEST(TuneSpace, EnumerationRespectsValidityConstraints) {
  const model::RunConfig host = tiny_case(fsbm::Version::kV1LookupOnDemand);
  const tune::SearchSpace hs = tune::SearchSpace::enumerate(host, 4);
  ASSERT_FALSE(hs.points.empty());
  // Base knobs lead, every point is unique and validates when applied.
  EXPECT_TRUE(hs.points[0] == tune::KnobSet::of(host));
  for (std::size_t i = 0; i < hs.points.size(); ++i) {
    for (std::size_t j = i + 1; j < hs.points.size(); ++j) {
      EXPECT_FALSE(hs.points[i] == hs.points[j]);
    }
    model::RunConfig cfg = host;
    hs.points[i].apply_to(cfg);
    EXPECT_NO_THROW(cfg.validate());
    // Host-only chain: no device/hetero exec, no persist, no fusion,
    // and single-rank: no halo overlap.
    EXPECT_NE(cfg.exec.kind, exec::ExecKind::kDevice);
    EXPECT_NE(cfg.exec.kind, exec::ExecKind::kHetero);
    EXPECT_EQ(cfg.res, mem::ResidencyMode::kStep);
    EXPECT_EQ(cfg.fuse, exec::FuseMode::kOff);
    EXPECT_EQ(cfg.halo_mode, dyn::HaloMode::kSync);
  }

  model::RunConfig dev = tiny_case(fsbm::Version::kV3Offload3);
  const tune::SearchSpace ds = tune::SearchSpace::enumerate(dev, 4);
  bool saw_device = false, saw_persist = false, saw_fuse = false;
  for (const tune::KnobSet& k : ds.points) {
    saw_device |= k.exec.kind == exec::ExecKind::kDevice;
    saw_persist |= k.res == mem::ResidencyMode::kPersist;
    saw_fuse |= k.fuse == exec::FuseMode::kAuto;
  }
  EXPECT_TRUE(saw_device);
  EXPECT_TRUE(saw_persist);
  // Default v3 offloads only the collision pass: nothing can fuse, so
  // fuse=auto would be a duplicate of fuse=off and is not offered.
  EXPECT_FALSE(saw_fuse);
  EXPECT_GT(ds.points.size(), hs.points.size());

  // With condensation offloaded too, cond+coal fuse on every exec point
  // that does not predicate-split the collision pass (all but hetero).
  model::RunConfig cond = dev;
  cond.fsbm_params.offload_condensation = true;
  const tune::SearchSpace cs = tune::SearchSpace::enumerate(cond, 4);
  bool saw_fused_point = false;
  for (const tune::KnobSet& k : cs.points) {
    if (k.fuse != exec::FuseMode::kAuto) continue;
    saw_fused_point = true;
    EXPECT_NE(k.exec.kind, exec::ExecKind::kHetero) << k.describe();
  }
  EXPECT_TRUE(saw_fused_point);

  model::RunConfig multi = tiny_case();
  multi.nx = 32;
  multi.npx = 2;
  bool saw_overlap = false;
  for (const tune::KnobSet& k :
       tune::SearchSpace::enumerate(multi, 4).points) {
    saw_overlap |= k.halo == dyn::HaloMode::kOverlap;
  }
  EXPECT_TRUE(saw_overlap);
}

// --------------------------------------------------------------- artifact

tune::Artifact sample_artifact(const std::string& shape) {
  tune::Artifact art;
  art.machine = tune::local_fingerprint("test-device");
  tune::TunedEntry e;
  e.shape = shape;
  e.knobs = "exec=threads:2 halo=sync res=step fuse=off";
  e.steps = 4;
  e.wall.min = 0.5;
  e.wall.median = 0.6;
  e.wall.cv = 0.05;
  e.wall.reps = 3;
  e.cellsteps_per_s = 1000.0;
  e.baseline_cellsteps_per_s = 800.0;
  tune::Rung r;
  r.rung = 0;
  r.steps = 1;
  r.target_cv = 0.1;
  tune::RungPoint pt;
  pt.knobs = e.knobs;
  pt.wall = e.wall;
  pt.cellsteps_per_s = 990.0;
  pt.prior_ms_per_step = 12.0;
  pt.survived = true;
  r.points.push_back(pt);
  e.ladder.push_back(r);
  art.entries.push_back(e);
  return art;
}

TEST(TuneArtifact, WriteLoadRoundTrip) {
  const std::string path = scratch_path("roundtrip");
  const tune::Artifact art = sample_artifact("shape-a \"quoted\"");
  tune::write_artifact(path, art);
  const tune::Artifact back = tune::load_artifact(path);
  std::remove(path.c_str());

  EXPECT_EQ(back.schema_version, tune::kArtifactSchemaVersion);
  EXPECT_TRUE(back.machine == art.machine);
  ASSERT_EQ(back.entries.size(), 1u);
  const tune::TunedEntry& e = back.entries[0];
  EXPECT_EQ(e.shape, "shape-a \"quoted\"");  // escaping survives
  EXPECT_EQ(e.knobs, art.entries[0].knobs);
  EXPECT_EQ(e.steps, 4);
  EXPECT_DOUBLE_EQ(e.wall.min, 0.5);
  EXPECT_EQ(e.wall.reps, 3);
  EXPECT_DOUBLE_EQ(e.baseline_cellsteps_per_s, 800.0);
  ASSERT_EQ(e.ladder.size(), 1u);
  ASSERT_EQ(e.ladder[0].points.size(), 1u);
  EXPECT_TRUE(e.ladder[0].points[0].survived);
  EXPECT_DOUBLE_EQ(e.ladder[0].points[0].prior_ms_per_step, 12.0);
}

TEST(TuneArtifact, UpsertReplacesSameShape) {
  tune::Artifact art = sample_artifact("s1");
  tune::TunedEntry e2 = art.entries[0];
  e2.knobs = "exec=serial halo=sync res=step fuse=off";
  art.upsert(e2);
  ASSERT_EQ(art.entries.size(), 1u);
  EXPECT_EQ(art.entries[0].knobs, e2.knobs);
  e2.shape = "s2";
  art.upsert(e2);
  EXPECT_EQ(art.entries.size(), 2u);
  EXPECT_NE(art.find("s2"), nullptr);
  EXPECT_EQ(art.find("absent"), nullptr);
}

TEST(TuneArtifact, LoadRejectsMalformed) {
  const std::string path = scratch_path("malformed");
  // Missing file: IoError.
  EXPECT_THROW(tune::load_artifact("no/such/tuned.json"), IoError);

  auto write_raw = [&path](const std::string& text) {
    std::ofstream out(path);
    out << text;
  };
  // Truncated JSON.
  write_raw("{\"schema_version\": 2, \"machine\": {");
  EXPECT_THROW(tune::load_artifact(path), ConfigError);
  // Wrong schema version.
  write_raw("{\"schema_version\": 99, \"machine\": {\"hw_threads\": 1, "
            "\"device\": \"d\"}, \"entries\": []}");
  EXPECT_THROW(tune::load_artifact(path), ConfigError);
  // Entry whose knob string no build could parse.
  write_raw("{\"schema_version\": 2, \"machine\": {\"hw_threads\": 1, "
            "\"device\": \"d\"}, \"entries\": [{\"shape\": \"s\", "
            "\"knobs\": \"exec=warp9\", \"steps\": 1, "
            "\"wall_min_s\": 1.0, \"wall_median_s\": 1.0, "
            "\"wall_cv\": 0.0, \"reps\": 1, \"cellsteps_per_s\": 1.0, "
            "\"baseline_cellsteps_per_s\": 1.0, \"ladder\": []}]}");
  EXPECT_THROW(tune::load_artifact(path), ConfigError);
  std::remove(path.c_str());
}

TEST(TuneArtifact, SchemaOneArtifactIsRejectedByPath) {
  // Version 1 artifacts carry `sed=` in every knob string; the knob is
  // gone, so loading one is a typed schema-version error naming the
  // file, never a half-parsed artifact.
  const std::string path = scratch_path("schema1");
  {
    std::ofstream out(path);
    out << "{\"schema_version\": 1, \"machine\": {\"hw_threads\": 1, "
           "\"device\": \"d\"}, \"entries\": [{\"shape\": \"s\", "
           "\"knobs\": \"exec=serial halo=sync sed=block:32 res=step "
           "fuse=off\", \"steps\": 1, \"wall_min_s\": 1.0, "
           "\"wall_median_s\": 1.0, \"wall_cv\": 0.0, \"reps\": 1, "
           "\"cellsteps_per_s\": 1.0, \"baseline_cellsteps_per_s\": 1.0, "
           "\"ladder\": []}]}";
  }
  ASSERT_EQ(tune::kArtifactSchemaVersion, 2);
  try {
    tune::load_artifact(path);
    ADD_FAILURE() << "schema-1 artifact loaded";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("schema_version 1"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(TuneArtifact, ApplySemantics) {
  model::RunConfig cfg = tiny_case();
  const std::string before = cfg.describe();

  // tune=off: no-op.
  EXPECT_FALSE(tune::apply(cfg));
  EXPECT_EQ(cfg.describe(), before);

  // Shape miss: artifact applies nothing, reports false.
  const tune::Artifact other = sample_artifact("some other shape");
  EXPECT_FALSE(tune::apply_artifact(cfg, other));
  EXPECT_EQ(cfg.describe(), before);

  // Shape hit: knobs land.
  const tune::Artifact hit = sample_artifact(tune::shape_key(cfg));
  EXPECT_TRUE(tune::apply_artifact(cfg, hit));
  EXPECT_EQ(cfg.exec.kind, exec::ExecKind::kThreads);
  EXPECT_EQ(cfg.exec.nthreads, 2);

  // tune=file: with a missing file is an error, not a silent default.
  model::RunConfig strict = tiny_case();
  strict.tune = tune::TuneSpec::parse("file:no/such/tuned.json");
  EXPECT_THROW(tune::apply(strict), IoError);

  // tune=auto with no artifact present is "not tuned yet": a no-op.
  if (!std::ifstream(tune::kDefaultArtifactPath).good()) {
    model::RunConfig lax = tiny_case();
    lax.tune = tune::TuneSpec::parse("auto");
    EXPECT_FALSE(tune::apply(lax));
  }
}

// ----------------------------------------------------- bitwise determinism

TEST(TuneGate, FileLoadedConfigIsBitwiseIdenticalToExplicitKnobs) {
  model::RunConfig base = tiny_case(fsbm::Version::kV2Offload2);
  base.nsteps = 2;

  const std::string knobs =
      "exec=device halo=sync res=persist fuse=auto";
  tune::Artifact art = sample_artifact(tune::shape_key(base));
  art.entries[0].knobs = knobs;
  const std::string path = scratch_path("gate");
  tune::write_artifact(path, art);

  model::RunConfig via_file = base;
  via_file.tune = tune::TuneSpec::parse("file:" + path);
  model::RunConfig explicit_cfg = base;
  tune::KnobSet::parse(knobs).apply_to(explicit_cfg);

  const model::RunResult a = model::run_single(via_file);
  const model::RunResult b = model::run_single(explicit_cfg);
  std::remove(path.c_str());

  EXPECT_EQ(model::state_hash(a), model::state_hash(b));
  EXPECT_EQ(a.totals.fsbm.cells_active, b.totals.fsbm.cells_active);
  EXPECT_EQ(a.totals.fsbm.cells_coal, b.totals.fsbm.cells_coal);
  EXPECT_DOUBLE_EQ(a.totals.fsbm.surface_precip,
                   b.totals.fsbm.surface_precip);
  EXPECT_DOUBLE_EQ(a.totals.fsbm.coal_flops, b.totals.fsbm.coal_flops);
  // And both took the tuned knobs (persist pins device bytes).
  EXPECT_GT(a.resident_bytes_per_rank, 0u);
  EXPECT_EQ(a.resident_bytes_per_rank, b.resident_bytes_per_rank);
}

// ------------------------------------------------------------------ tuner

TEST(TuneTuner, SuccessiveHalvingProducesAValidWinner) {
  model::RunConfig base = tiny_case();
  tune::TunerOptions opts;
  opts.prior_keep = 3;
  opts.rung_steps = {1, 2};
  opts.policy.min_reps = 1;
  opts.policy.max_reps = 2;
  opts.policy.target_cv = 1.0;  // tiny walls are jittery; don't spend reps
  const tune::Tuner tuner(opts);
  const tune::TuneReport rep = tuner.tune(base);

  EXPECT_EQ(rep.entry.shape, tune::shape_key(base));
  EXPECT_EQ(rep.entry.steps, 2);
  ASSERT_EQ(rep.entry.ladder.size(), 2u);
  // Rung 0 measured every kept point; rung 1 the surviving half.
  EXPECT_EQ(static_cast<int>(rep.entry.ladder[0].points.size()),
            rep.measured_points);
  EXPECT_LE(rep.entry.ladder[1].points.size(),
            rep.entry.ladder[0].points.size());
  // Exactly one final survivor, and it is the winner.
  int survivors = 0;
  for (const tune::RungPoint& pt : rep.entry.ladder[1].points) {
    if (pt.survived) {
      ++survivors;
      EXPECT_EQ(pt.knobs, rep.entry.knobs);
    }
    EXPECT_GT(pt.wall.min, 0.0);
  }
  EXPECT_EQ(survivors, 1);
  // The winner parses, applies, and validates.
  model::RunConfig tuned = base;
  tune::KnobSet::parse(rep.entry.knobs).apply_to(tuned);
  EXPECT_NO_THROW(tuned.validate());
  // The untuned baseline was measured (base point always advances).
  EXPECT_GT(rep.entry.baseline_cellsteps_per_s, 0.0);
  EXPECT_GT(rep.measured_runs, 0);
  // The artifact round-trips through the winner's own entry.
  ASSERT_NE(rep.artifact.find(rep.entry.shape), nullptr);
  EXPECT_EQ(rep.artifact.find(rep.entry.shape)->knobs, rep.entry.knobs);
}

TEST(TuneTuner, ProbeCountsWorkNotWallTime) {
  const tune::Tuner tuner;
  const perfmodel::KnobWork w = tuner.probe(tiny_case());
  EXPECT_GT(w.cells, 0.0);
  EXPECT_GT(w.adv_flops, 0.0);
  EXPECT_GT(w.sed_flops, 0.0);
  EXPECT_FALSE(w.offloaded);
  EXPECT_EQ(w.nranks, 1);
  // Host-only chain moves nothing over the link.
  EXPECT_DOUBLE_EQ(w.step_h2d_bytes, 0.0);

  const perfmodel::KnobWork d =
      tuner.probe(tiny_case(fsbm::Version::kV3Offload3));
  EXPECT_TRUE(d.offloaded);
  EXPECT_GT(d.step_h2d_bytes, 0.0);
  EXPECT_GT(d.kernel_launches, 0.0);
}

// -------------------------------------------------------------- scheduler

TEST(TuneSvc, SchedulerAppliesTunedKnobsAtSubmit) {
  // Artifact for the job's post-normalization shape (single-rank).
  model::RunConfig job_cfg = tiny_case();
  job_cfg.nsteps = 2;
  const std::string knobs =
      "exec=threads:2 halo=sync res=step fuse=off";
  tune::Artifact art = sample_artifact(tune::shape_key(job_cfg));
  art.entries[0].knobs = knobs;
  const std::string path = scratch_path("svc");
  tune::write_artifact(path, art);

  svc::SchedulerConfig sc;
  sc.lanes = 1;
  sc.batch_max = 1;
  sc.tune = tune::TuneSpec::parse("file:" + path);
  std::vector<svc::JobResult> results;
  {
    svc::Scheduler sched(sc);
    svc::Job job;
    job.config = job_cfg;
    job.name = "tuned-member";
    const svc::Ticket t = sched.submit(job);
    EXPECT_TRUE(t.admitted);
    sched.drain();
    results = sched.take_results();
  }
  std::remove(path.c_str());

  ASSERT_EQ(results.size(), 1u);
  const svc::JobResult& r = results[0];
  EXPECT_EQ(r.outcome, svc::JobOutcome::kCompleted);
  // The recorded config carries the tuned knobs explicitly, tune=off:
  // re-running it standalone needs no artifact...
  EXPECT_TRUE(r.config.tune.off());
  EXPECT_TRUE(tune::KnobSet::of(r.config) == tune::KnobSet::parse(knobs));
  // ...and reproduces the job bit for bit (the svc determinism gate,
  // now across the tuning path).
  EXPECT_EQ(r.state_hash, model::state_hash(model::run_single(r.config)));
}

TEST(TuneSvc, MissingFileArtifactFailsSchedulerConstruction) {
  svc::SchedulerConfig sc;
  sc.lanes = 1;
  sc.tune = tune::TuneSpec::parse("file:no/such/tuned.json");
  EXPECT_THROW(svc::Scheduler{sc}, IoError);
}

}  // namespace
}  // namespace wrf
