// The knob surface: the strings every knob renders into, pinned byte for
// byte.
//
// RunConfig::describe() is the run header, svc::job_shape_key batches
// service jobs by it, and tune::KnobSet::describe() / tune::shape_key
// are the two strings a tuned.json entry is written and looked up by.
// A change to any of them silently re-keys the service's batches and
// orphans every tuned.json on disk, so they are pinned here as literals
// over a one-knob-at-a-time matrix plus a digest over the full product
// of every knob value.  A schema-2 tuned.json written by the tuner must
// keep loading and must apply to the knobs it names.
//
// The KnobTable suite is generated from model::knobs(): every row's
// sample values must print back as parsed, and malformed values must
// throw a ConfigError naming the key.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "model/driver.hpp"
#include "model/knobs.hpp"
#include "svc/job.hpp"
#include "tune/artifact.hpp"
#include "tune/space.hpp"
#include "util/error.hpp"

namespace wrf {
namespace {

/// The four pinned strings of one config, newline-joined.
std::string rendered(const model::RunConfig& cfg) {
  return cfg.describe() + "\n" + svc::job_shape_key(cfg) + "\n" +
         tune::KnobSet::of(cfg).describe() + "\n" + tune::shape_key(cfg);
}

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// The run-header prefix every default-grid row shares.
#define KNOB_PIN_GRID \
  "grid 64x48x24 dx=12000m dt=5.0s nkr=33 ranks=2x2 "
#define KNOB_PIN_V1 KNOB_PIN_GRID "version=v1-lookup-on-demand "
#define KNOB_PIN_SHAPE \
  "grid 64x48x24 nkr=33 ranks=2x2 version=v1-lookup-on-demand phys=bin"

struct Pinned {
  const char* what;
  void (*edit)(model::RunConfig&);
  const char* describe;  ///< job_shape_key is this plus " nsteps=<n>"
  const char* knobset;
  const char* shape_key;
};

const Pinned kPinned[] = {
    {"defaults", [](model::RunConfig&) {},
     KNOB_PIN_V1 "exec=serial halo=sync phys=bin res=step fuse=off ngpus=4",
     "exec=serial halo=sync res=step fuse=off", KNOB_PIN_SHAPE},
    {"exec=threads",
     [](model::RunConfig& c) { c.exec = exec::ExecConfig::parse("threads"); },
     KNOB_PIN_V1 "exec=threads halo=sync phys=bin res=step fuse=off ngpus=4",
     "exec=threads halo=sync res=step fuse=off", KNOB_PIN_SHAPE},
    {"exec=threads:8",
     [](model::RunConfig& c) {
       c.exec = exec::ExecConfig::parse("threads:8");
     },
     KNOB_PIN_V1
     "exec=threads:8 halo=sync phys=bin res=step fuse=off ngpus=4",
     "exec=threads:8 halo=sync res=step fuse=off", KNOB_PIN_SHAPE},
    {"exec=hetero",
     [](model::RunConfig& c) { c.exec = exec::ExecConfig::parse("hetero"); },
     KNOB_PIN_V1 "exec=hetero halo=sync phys=bin res=step fuse=off ngpus=4",
     "exec=hetero halo=sync res=step fuse=off", KNOB_PIN_SHAPE},
    {"exec=hetero:4",
     [](model::RunConfig& c) {
       c.exec = exec::ExecConfig::parse("hetero:4");
     },
     KNOB_PIN_V1
     "exec=hetero:4 halo=sync phys=bin res=step fuse=off ngpus=4",
     "exec=hetero:4 halo=sync res=step fuse=off", KNOB_PIN_SHAPE},
    {"exec=device",
     [](model::RunConfig& c) { c.exec = exec::ExecConfig::parse("device"); },
     KNOB_PIN_V1 "exec=device halo=sync phys=bin res=step fuse=off ngpus=4",
     "exec=device halo=sync res=step fuse=off", KNOB_PIN_SHAPE},
    {"halo=overlap",
     [](model::RunConfig& c) { c.halo_mode = dyn::HaloMode::kOverlap; },
     KNOB_PIN_V1
     "exec=serial halo=overlap phys=bin res=step fuse=off ngpus=4",
     "exec=serial halo=overlap res=step fuse=off", KNOB_PIN_SHAPE},
    {"phys=bulk",
     [](model::RunConfig& c) { c.phys = fsbm::PhysScheme::kBulk; },
     KNOB_PIN_V1 "exec=serial halo=sync phys=bulk res=step fuse=off ngpus=4",
     "exec=serial halo=sync res=step fuse=off",
     "grid 64x48x24 nkr=33 ranks=2x2 version=v1-lookup-on-demand phys=bulk"},
    {"phys=hybrid",
     [](model::RunConfig& c) { c.phys = fsbm::PhysScheme::kHybrid; },
     KNOB_PIN_V1
     "exec=serial halo=sync phys=hybrid res=step fuse=off ngpus=4",
     "exec=serial halo=sync res=step fuse=off",
     "grid 64x48x24 nkr=33 ranks=2x2 version=v1-lookup-on-demand "
     "phys=hybrid"},
    {"res=persist",
     [](model::RunConfig& c) { c.res = mem::ResidencyMode::kPersist; },
     KNOB_PIN_V1
     "exec=serial halo=sync phys=bin res=persist fuse=off ngpus=4",
     "exec=serial halo=sync res=persist fuse=off", KNOB_PIN_SHAPE},
    {"fuse=auto",
     [](model::RunConfig& c) { c.fuse = exec::FuseMode::kAuto; },
     KNOB_PIN_V1 "exec=serial halo=sync phys=bin res=step fuse=auto ngpus=4",
     "exec=serial halo=sync res=step fuse=auto", KNOB_PIN_SHAPE},
    {"obs=metrics",
     [](model::RunConfig& c) { c.obs = obs::ObsConfig::parse("metrics"); },
     KNOB_PIN_V1
     "exec=serial halo=sync phys=bin res=step fuse=off ngpus=4 obs=metrics",
     "exec=serial halo=sync res=step fuse=off", KNOB_PIN_SHAPE},
    {"obs=trace:runs/a.json",
     [](model::RunConfig& c) {
       c.obs = obs::ObsConfig::parse("trace:runs/a.json");
     },
     KNOB_PIN_V1 "exec=serial halo=sync phys=bin res=step fuse=off ngpus=4 "
                 "obs=trace:runs/a.json",
     "exec=serial halo=sync res=step fuse=off", KNOB_PIN_SHAPE},
    {"tune=auto",
     [](model::RunConfig& c) { c.tune = tune::TuneSpec::parse("auto"); },
     KNOB_PIN_V1
     "exec=serial halo=sync phys=bin res=step fuse=off ngpus=4 tune=auto",
     "exec=serial halo=sync res=step fuse=off", KNOB_PIN_SHAPE},
    {"tune=file:runs/t.json",
     [](model::RunConfig& c) {
       c.tune = tune::TuneSpec::parse("file:runs/t.json");
     },
     KNOB_PIN_V1 "exec=serial halo=sync phys=bin res=step fuse=off ngpus=4 "
                 "tune=file:runs/t.json",
     "exec=serial halo=sync res=step fuse=off", KNOB_PIN_SHAPE},
    {"every knob off its default",
     [](model::RunConfig& c) {
       c.version = fsbm::Version::kV3Offload3;
       c.exec = exec::ExecConfig::parse("hetero:2");
       c.halo_mode = dyn::HaloMode::kOverlap;
       c.phys = fsbm::PhysScheme::kHybrid;
       c.res = mem::ResidencyMode::kPersist;
       c.fuse = exec::FuseMode::kAuto;
       c.obs = obs::ObsConfig::parse("trace");
       c.tune = tune::TuneSpec::parse("file:t.json");
       c.nsteps = 2;
     },
     KNOB_PIN_GRID "version=v3-offload-collapse3 exec=hetero:2 halo=overlap "
                   "phys=hybrid res=persist fuse=auto ngpus=4 obs=trace "
                   "tune=file:t.json",
     "exec=hetero:2 halo=overlap res=persist fuse=auto",
     "grid 64x48x24 nkr=33 ranks=2x2 version=v3-offload-collapse3 "
     "phys=hybrid"},
    {"conus12km_full v0",
     [](model::RunConfig& c) {
       c = model::RunConfig::conus12km_full();
       c.version = fsbm::Version::kV0Baseline;
     },
     "grid 425x300x50 dx=12000m dt=5.0s nkr=33 ranks=4x4 "
     "version=v0-baseline exec=serial halo=sync phys=bin res=step fuse=off "
     "ngpus=4",
     "exec=serial halo=sync res=step fuse=off",
     "grid 425x300x50 nkr=33 ranks=4x4 version=v0-baseline phys=bin"},
    {"service ensemble member",
     [](model::RunConfig& c) {
       c.nx = c.ny = 12;
       c.nz = 10;
       c.npx = c.npy = 1;
       c.nsteps = 2;
       c.version = fsbm::Version::kV2Offload2;
       c.seed = 7;
     },
     "grid 12x12x10 dx=12000m dt=5.0s nkr=33 ranks=1x1 "
     "version=v2-offload-collapse2 exec=serial halo=sync phys=bin res=step "
     "fuse=off ngpus=4",
     "exec=serial halo=sync res=step fuse=off",
     "grid 12x12x10 nkr=33 ranks=1x1 version=v2-offload-collapse2 phys=bin"},
};

TEST(KnobPins, DescribeAndShapeKeysAreByteExact) {
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(p.what);
    model::RunConfig cfg;
    p.edit(cfg);
    EXPECT_EQ(cfg.describe(), p.describe);
    EXPECT_EQ(svc::job_shape_key(cfg),
              std::string(p.describe) + " nsteps=" +
                  std::to_string(cfg.nsteps));
    EXPECT_EQ(tune::KnobSet::of(cfg).describe(), p.knobset);
    EXPECT_EQ(tune::shape_key(cfg), p.shape_key);
  }
}

TEST(KnobPins, FullKnobProductDigest) {
  // Every value of every knob, crossed with every FSBM version: 6480
  // configs, four strings each, folded into one digest.
  const char* const execs[] = {"serial", "threads", "threads:3",
                               "hetero", "hetero:2", "device"};
  const dyn::HaloMode halos[] = {dyn::HaloMode::kSync,
                                 dyn::HaloMode::kOverlap};
  const fsbm::PhysScheme physes[] = {fsbm::PhysScheme::kBin,
                                     fsbm::PhysScheme::kBulk,
                                     fsbm::PhysScheme::kHybrid};
  const mem::ResidencyMode reses[] = {mem::ResidencyMode::kStep,
                                      mem::ResidencyMode::kPersist};
  const exec::FuseMode fuses[] = {exec::FuseMode::kOff,
                                  exec::FuseMode::kAuto};
  const char* const obses[] = {"off", "metrics", "trace:p.json"};
  const char* const tunes[] = {"off", "auto", "file:t.json"};
  const fsbm::Version versions[] = {
      fsbm::Version::kV0Baseline, fsbm::Version::kV1LookupOnDemand,
      fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3,
      fsbm::Version::kV3NaiveCollapse3};
  std::uint64_t h = fnv1a("");
  std::size_t n = 0, bytes = 0;
  for (const fsbm::Version v : versions) {
    for (const char* e : execs) {
      for (const dyn::HaloMode halo : halos) {
        for (const fsbm::PhysScheme phys : physes) {
          for (const mem::ResidencyMode res : reses) {
            for (const exec::FuseMode fuse : fuses) {
              for (const char* o : obses) {
                for (const char* t : tunes) {
                  model::RunConfig cfg;
                  cfg.version = v;
                  cfg.exec = exec::ExecConfig::parse(e);
                  cfg.halo_mode = halo;
                  cfg.phys = phys;
                  cfg.res = res;
                  cfg.fuse = fuse;
                  cfg.obs = obs::ObsConfig::parse(o);
                  cfg.tune = tune::TuneSpec::parse(t);
                  const std::string s = rendered(cfg) + "\n";
                  h = fnv1a(s, h);
                  bytes += s.size();
                  ++n;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(n, 6480u);
  EXPECT_EQ(bytes, 2822904u);
  EXPECT_EQ(h, 14890180182750035357ull);
}

// Written by the autotuner (16x12x8, version=v3, keep=3) before the knob
// table existed, byte for byte.
constexpr const char* kSchema2Artifact = R"json({
  "schema_version": 2,
  "machine": {"hw_threads": 4, "device": "NVIDIA A100-SXM4-40GB (simulated)"},
  "entries": [
    {
      "shape": "grid 16x12x8 nkr=33 ranks=1x1 version=v3-offload-collapse3 phys=bin",
      "knobs": "exec=threads:4 halo=sync res=step fuse=off",
      "steps": 4,
      "wall_min_s": 0.072217, "wall_median_s": 0.079234, "wall_cv": 0.0442, "reps": 3,
      "cellsteps_per_s": 85076.6,
      "baseline_cellsteps_per_s": 45880.5,
      "ladder": [
        {"rung": 0, "steps": 1, "target_cv": 0.500, "points": [
          {"knobs": "exec=hetero:4 halo=sync res=step fuse=off", "wall_min_s": 0.059620, "wall_median_s": 0.062805, "wall_cv": 0.0302, "reps": 3, "cellsteps_per_s": 25763.0, "prior_ms_per_step": 1.2074, "survived": false},
          {"knobs": "exec=hetero:4 halo=sync res=persist fuse=off", "wall_min_s": 0.054542, "wall_median_s": 0.055803, "wall_cv": 0.0711, "reps": 3, "cellsteps_per_s": 28161.9, "prior_ms_per_step": 1.2074, "survived": false},
          {"knobs": "exec=threads:4 halo=sync res=step fuse=off", "wall_min_s": 0.046889, "wall_median_s": 0.050765, "wall_cv": 0.0727, "reps": 3, "cellsteps_per_s": 32758.2, "prior_ms_per_step": 1.5430, "survived": true},
          {"knobs": "exec=serial halo=sync res=step fuse=off", "wall_min_s": 0.053086, "wall_median_s": 0.053370, "wall_cv": 0.0307, "reps": 3, "cellsteps_per_s": 28934.0, "prior_ms_per_step": 4.6234, "survived": true}
        ]},
        {"rung": 1, "steps": 2, "target_cv": 0.500, "points": [
          {"knobs": "exec=threads:4 halo=sync res=step fuse=off", "wall_min_s": 0.055433, "wall_median_s": 0.057459, "wall_cv": 0.0380, "reps": 3, "cellsteps_per_s": 55418.4, "prior_ms_per_step": 0.0000, "survived": true},
          {"knobs": "exec=serial halo=sync res=step fuse=off", "wall_min_s": 0.066957, "wall_median_s": 0.067624, "wall_cv": 0.0065, "reps": 3, "cellsteps_per_s": 45880.5, "prior_ms_per_step": 0.0000, "survived": false}
        ]},
        {"rung": 2, "steps": 4, "target_cv": 0.500, "points": [
          {"knobs": "exec=threads:4 halo=sync res=step fuse=off", "wall_min_s": 0.072217, "wall_median_s": 0.079234, "wall_cv": 0.0442, "reps": 3, "cellsteps_per_s": 85076.6, "prior_ms_per_step": 0.0000, "survived": true}
        ]}
      ]
    }
  ]
}
)json";

TEST(KnobPins, Schema2ArtifactLoadsAndApplies) {
  const std::string path = "test_knobs_schema2.json";
  {
    std::ofstream out(path);
    out << kSchema2Artifact;
  }
  const tune::Artifact art = tune::load_artifact(path);
  std::remove(path.c_str());
  EXPECT_EQ(art.schema_version, 2);
  ASSERT_EQ(art.entries.size(), 1u);
  const tune::TunedEntry& e = art.entries[0];
  EXPECT_EQ(e.knobs, "exec=threads:4 halo=sync res=step fuse=off");

  // Every knob string in the file re-renders to itself.
  std::size_t points = 0;
  for (const tune::Rung& r : e.ladder) {
    for (const tune::RungPoint& pt : r.points) {
      EXPECT_EQ(tune::KnobSet::parse(pt.knobs).describe(), pt.knobs);
      ++points;
    }
  }
  EXPECT_EQ(points, 7u);

  // The entry applies to a config of its shape, and only to the knobs.
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  cfg.version = fsbm::Version::kV3Offload3;
  const std::string before = cfg.describe();
  ASSERT_EQ(tune::shape_key(cfg), e.shape);
  ASSERT_TRUE(tune::apply_artifact(cfg, art));
  EXPECT_EQ(cfg.exec.kind, exec::ExecKind::kThreads);
  EXPECT_EQ(cfg.exec.nthreads, 4);
  EXPECT_EQ(cfg.halo_mode, dyn::HaloMode::kSync);
  EXPECT_EQ(cfg.res, mem::ResidencyMode::kStep);
  EXPECT_EQ(cfg.fuse, exec::FuseMode::kOff);
  EXPECT_EQ(tune::KnobSet::of(cfg).describe(), e.knobs);
  EXPECT_EQ(cfg.describe(),
            "grid 16x12x8 dx=12000m dt=5.0s nkr=33 ranks=1x1 "
            "version=v3-offload-collapse3 exec=threads:4 halo=sync phys=bin "
            "res=step fuse=off ngpus=4");
  EXPECT_NE(cfg.describe(), before);
}

// ------------------------------------------------- the table, row by row

struct RowSamples {
  const char* key;
  std::vector<std::string> good;  ///< canonical: print(parse(v)) == v
  std::vector<std::string> bad;
};

const std::vector<RowSamples>& samples() {
  static const std::vector<RowSamples> rows = {
      {"exec",
       {"serial", "threads", "threads:1", "threads:8", "threads:256",
        "device", "hetero", "hetero:4", "hetero:256"},
       {"", "Serial", "gpu", "serial:2", "device:1", "threads:0",
        "threads:abc", "threads:8x", "threads:+4", "threads:04",
        "threads:-2", "threads:", "threads:99999999999", "threads:257",
        "hetero:0", "hetero:-2", "hetero:abc", "hetero:", "hetero8",
        "hetero:8x", "hetero:4:2", "hetero:04", "hetero:257",
        "heterogeneous", "\xff\xfe"}},
      {"halo",
       {"sync", "overlap"},
       {"", "Sync", "overlapped", "sync:2", "sync ", "\xff"}},
      {"phys",
       {"bin", "bulk", "hybrid"},
       {"", "kessler", "Bin", "bin ", "bulk:1", "\xc3\x28"}},
      {"res",
       {"step", "persist"},
       {"", "resident", "Step", "persist2", "\xff"}},
      {"fuse",
       {"off", "auto"},
       {"", "on", "auto:2", "Off", "fused", "of", "\xff"}},
      {"obs",
       {"off", "metrics", "trace", "metrics:m.jsonl", "trace:runs/a.json"},
       {"", "tracing", "Trace", "off:x.json", "trace:", "\xff"}},
      {"tune",
       {"off", "auto", "file:runs/t.json"},
       {"", "file", "file:", "bogus", "Auto", "auto:tuned.json",
        "off:tuned.json", "\xff"}},
  };
  return rows;
}

/// Expect `fn` to throw a ConfigError whose message contains `needle`.
template <class Fn>
void expect_config_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "no ConfigError; wanted one naming '" << needle << "'";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

/// Apply argv-style tokens (after a program name) to `cfg`.
std::map<std::string, std::string> apply_args(
    model::RunConfig& cfg, std::vector<std::string> tokens,
    const std::vector<std::string>& own_keys = {}) {
  tokens.insert(tokens.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& t : tokens) argv.push_back(t.data());
  return model::apply_knob_args(cfg, static_cast<int>(argv.size()),
                                argv.data(), own_keys);
}

TEST(KnobTable, RowsKeysAndFlags) {
  std::string keys, tunable, when_set;
  for (const model::Knob& k : model::knobs()) {
    keys += k.key + " ";
    if (k.tunable) tunable += k.key + " ";
    if (!k.shown_at_default) when_set += k.key + " ";
  }
  EXPECT_EQ(keys, "exec halo phys res fuse obs tune ");
  EXPECT_EQ(tunable, "exec halo res fuse ");
  EXPECT_EQ(when_set, "obs tune ");
  ASSERT_EQ(samples().size(), model::knobs().size());
  for (std::size_t i = 0; i < samples().size(); ++i) {
    EXPECT_EQ(samples()[i].key, model::knobs()[i].key);
  }
}

TEST(KnobTable, EveryValuePrintsBackAsParsed) {
  for (const RowSamples& r : samples()) {
    const model::Knob& row = model::knob(r.key);
    for (std::size_t i = 0; i < row.choices.size(); ++i) {
      EXPECT_EQ(r.good[i], row.choices[i]) << r.key;  // choices all sampled
    }
    for (const std::string& v : r.good) {
      SCOPED_TRACE(std::string(r.key) + "=" + v);
      model::RunConfig cfg;
      row.set(cfg, v);
      EXPECT_EQ(row.print(cfg), v);
      EXPECT_NO_THROW(cfg.validate());
      // The argv parser and the tuner's knob strings take the same path.
      model::RunConfig from_argv;
      apply_args(from_argv, {"x=1", std::string(r.key) + "=" + v}, {"x"});
      EXPECT_EQ(row.print(from_argv), v);
      if (row.tunable) {
        const std::string t = std::string(r.key) + "=" + v;
        EXPECT_EQ(row.print(tune::KnobSet::parse(t).cfg), v);
      }
    }
  }
}

TEST(KnobTable, MalformedValuesNameTheKey) {
  for (const RowSamples& r : samples()) {
    for (const std::string& v : r.bad) {
      const std::string token = std::string(r.key) + "=" + v;
      SCOPED_TRACE(token);
      model::RunConfig cfg;
      expect_config_error([&] { apply_args(cfg, {token}); }, token + ": ");
    }
  }
}

TEST(KnobTable, TypedValues) {
  // What each value text means, for the rows the print round trip above
  // cannot see into.
  model::RunConfig c;
  const auto set = [&](const char* key, const char* v) {
    model::knob(key).set(c, v);
  };
  set("exec", "serial");
  EXPECT_EQ(c.exec.kind, exec::ExecKind::kSerial);
  set("exec", "device");
  EXPECT_EQ(c.exec.kind, exec::ExecKind::kDevice);
  set("exec", "threads");
  EXPECT_EQ(c.exec.kind, exec::ExecKind::kThreads);
  EXPECT_EQ(c.exec.nthreads, 0);
  set("exec", "threads:8");
  EXPECT_EQ(c.exec.kind, exec::ExecKind::kThreads);
  EXPECT_EQ(c.exec.nthreads, 8);
  set("exec", "hetero");
  EXPECT_EQ(c.exec.kind, exec::ExecKind::kHetero);
  EXPECT_EQ(c.exec.nthreads, 0);
  set("exec", "hetero:4");
  EXPECT_EQ(c.exec.kind, exec::ExecKind::kHetero);
  EXPECT_EQ(c.exec.nthreads, 4);

  set("halo", "overlap");
  EXPECT_EQ(c.halo_mode, dyn::HaloMode::kOverlap);
  set("halo", "sync");
  EXPECT_EQ(c.halo_mode, dyn::HaloMode::kSync);
  set("phys", "bulk");
  EXPECT_EQ(c.phys, fsbm::PhysScheme::kBulk);
  set("phys", "hybrid");
  EXPECT_EQ(c.phys, fsbm::PhysScheme::kHybrid);
  set("phys", "bin");
  EXPECT_EQ(c.phys, fsbm::PhysScheme::kBin);
  set("res", "persist");
  EXPECT_EQ(c.res, mem::ResidencyMode::kPersist);
  set("res", "step");
  EXPECT_EQ(c.res, mem::ResidencyMode::kStep);
  set("fuse", "auto");
  EXPECT_EQ(c.fuse, exec::FuseMode::kAuto);
  set("fuse", "off");
  EXPECT_EQ(c.fuse, exec::FuseMode::kOff);
  EXPECT_EQ(model::knob_name("phys", fsbm::PhysScheme::kHybrid), "hybrid");
  EXPECT_EQ(model::knob_name("res", mem::ResidencyMode::kPersist), "persist");

  set("obs", "off");
  EXPECT_TRUE(c.obs.off());
  set("obs", "metrics");
  EXPECT_EQ(c.obs.mode, obs::ObsMode::kMetrics);
  EXPECT_FALSE(c.obs.off());
  EXPECT_FALSE(c.obs.trace());
  EXPECT_EQ(c.obs.export_path(), "obs_metrics.jsonl");
  set("obs", "trace");
  EXPECT_TRUE(c.obs.trace());
  EXPECT_EQ(c.obs.export_path(), "obs_trace.json");
  set("obs", "trace:runs/a.json");
  EXPECT_TRUE(c.obs.trace());
  EXPECT_EQ(c.obs.export_path(), "runs/a.json");

  set("tune", "off");
  EXPECT_TRUE(c.tune.off());
  set("tune", "auto");
  EXPECT_EQ(c.tune.mode, tune::TuneMode::kAuto);
  EXPECT_FALSE(c.tune.off());
  EXPECT_EQ(c.tune.artifact_path(), tune::kDefaultArtifactPath);
  set("tune", "file:runs/t.json");
  EXPECT_EQ(c.tune.mode, tune::TuneMode::kFile);
  EXPECT_EQ(c.tune.path, "runs/t.json");
  EXPECT_EQ(c.tune.artifact_path(), "runs/t.json");
}

TEST(KnobTable, ArgvDefaultsPositionalsAndOwnKeys) {
  // Absent knobs keep the config's values; positionals are skipped.
  model::RunConfig cfg;
  cfg.res = mem::ResidencyMode::kPersist;
  const auto own = apply_args(cfg, {"24", "exec=hetero:2", "out=a.bin", "3"},
                              {"out", "lanes"});
  EXPECT_EQ(cfg.exec.kind, exec::ExecKind::kHetero);
  EXPECT_EQ(cfg.exec.nthreads, 2);
  EXPECT_EQ(cfg.res, mem::ResidencyMode::kPersist);
  EXPECT_EQ(cfg.fuse, exec::FuseMode::kOff);
  EXPECT_EQ(cfg.phys, fsbm::PhysScheme::kBin);
  EXPECT_TRUE(cfg.obs.off());
  EXPECT_TRUE(cfg.tune.off());
  EXPECT_EQ(own, (std::map<std::string, std::string>{{"out", "a.bin"}}));

  model::RunConfig b;
  apply_args(b, {"exec=serial", "obs=trace:t.json", "tune=file:x.json"});
  EXPECT_TRUE(b.obs.trace());
  EXPECT_EQ(b.obs.path, "t.json");
  EXPECT_EQ(b.tune.mode, tune::TuneMode::kFile);
  EXPECT_EQ(b.tune.path, "x.json");
}

TEST(KnobTable, ArgvRejectsDuplicateUnknownAndRetiredKeys) {
  model::RunConfig cfg;
  expect_config_error(
      [&] { apply_args(cfg, {"exec=serial", "exec=device"}); },
      "duplicate knob 'exec'");
  expect_config_error([&] { apply_args(cfg, {"out=a", "out=b"}, {"out"}); },
                      "duplicate knob 'out'");
  expect_config_error([&] { apply_args(cfg, {"phsy=bulk"}); },
                      "unknown knob 'phsy'");
  expect_config_error([&] { apply_args(cfg, {"sed=column"}); },
                      "unknown knob 'sed'");  // retired
  expect_config_error([&] { apply_args(cfg, {"lanes=2"}); },
                      "unknown knob 'lanes'");  // not this caller's
  // The message lists every key this caller takes, its own ones too.
  expect_config_error(
      [&] { apply_args(cfg, {"claimz=smoke"}); },
      "unknown knob 'claimz' (knobs: exec halo phys res fuse obs tune)");
  expect_config_error(
      [&] { apply_args(cfg, {"claimz=smoke"}, {"claims"}); },
      "unknown knob 'claimz' (knobs: exec halo phys res fuse obs tune; "
      "program keys: claims)");
  expect_config_error(
      [&] { apply_args(cfg, {"lane=2"}, {"lanes", "out"}); },
      "; program keys: lanes out)");
  expect_config_error([&] { apply_args(cfg, {"=bulk"}); }, "unknown knob ''");
}

TEST(KnobTable, ThreadCountCap) {
  // Parse rejects N above the cap (samples above); validate rejects a
  // config whose fields were set directly.
  model::RunConfig cfg;
  cfg.exec.kind = exec::ExecKind::kThreads;
  cfg.exec.nthreads = model::kMaxExecThreads;
  EXPECT_NO_THROW(cfg.validate());
  cfg.exec.nthreads = model::kMaxExecThreads + 1;
  expect_config_error([&] { cfg.validate(); }, "exec=threads:257");
  cfg.exec.kind = exec::ExecKind::kHetero;
  expect_config_error([&] { cfg.validate(); }, "exec=hetero:257");
  cfg.exec.nthreads = -1;
  expect_config_error([&] { cfg.validate(); }, "exec=");
  cfg.exec.kind = exec::ExecKind::kSerial;  // N is ignored off threads
  EXPECT_NO_THROW(cfg.validate());
}

TEST(KnobTable, CountArguments) {
  // Every positional count and count-valued key of the examples and
  // tune_cli (grids, nsteps, ngpus, lanes=, keep=) goes through
  // parse_count: canonical decimal >= 1, nothing else.
  struct Case {
    const char* text;
    int max;
    int want;  ///< 0: a ConfigError naming the argument
  };
  const int kInt = std::numeric_limits<int>::max();
  const Case cases[] = {
      {"1", kInt, 1},
      {"24", kInt, 24},
      {"2147483647", kInt, 2147483647},
      {"256", model::kMaxExecThreads, 256},
      {"", kInt, 0},
      {"0", kInt, 0},
      {"00", kInt, 0},
      {"024", kInt, 0},
      {"-1", kInt, 0},
      {"+4", kInt, 0},
      {"24x", kInt, 0},
      {"x24", kInt, 0},
      {" 24", kInt, 0},
      {"24 ", kInt, 0},
      {"2 4", kInt, 0},
      {"1e3", kInt, 0},
      {"0x10", kInt, 0},
      {"3.0", kInt, 0},
      {"\xef\xbc\x93", kInt, 0},  // fullwidth digit three
      {"2147483648", kInt, 0},
      {"99999999999", kInt, 0},
      {"18446744073709551617", kInt, 0},
      // A lane or thread count starts that many OS threads: parse only.
      {"257", model::kMaxExecThreads, 0},
      {"100000", model::kMaxExecThreads, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    if (c.want > 0) {
      EXPECT_EQ(model::parse_count("lanes", c.text, c.max), c.want);
    } else {
      expect_config_error([&] { model::parse_count("lanes", c.text, c.max); },
                          std::string("lanes '") + c.text + "'");
    }
  }
}

TEST(KnobTable, RealArguments) {
  // tune_cli's target_cv= and diffstate_cli's noise floor: the whole
  // text is one finite number >= 0, never atof's silent 0.
  const std::pair<const char*, double> good[] = {
      {"0", 0.0}, {"0.5", 0.5}, {"1e-12", 1e-12}, {"12", 12.0}};
  for (const auto& [text, want] : good) {
    EXPECT_EQ(model::parse_real("target_cv", text), want) << text;
  }
  for (const char* text : {"", "abc", "0.5x", " 0.5", "0.5 ", "-0.1", "+1",
                           "inf", "nan", "1e999", "0x1p3", "2.9e"}) {
    SCOPED_TRACE(std::string("'") + text + "'");
    expect_config_error([&] { model::parse_real("target_cv", text); },
                        std::string("target_cv '") + text + "'");
  }
}

TEST(KnobTable, ValidateRejectsEnumValuesWithoutAName) {
  model::RunConfig cfg;
  cfg.phys = static_cast<fsbm::PhysScheme>(3);
  expect_config_error([&] { cfg.validate(); }, "phys=");
  cfg = model::RunConfig{};
  cfg.res = static_cast<mem::ResidencyMode>(-1);
  expect_config_error([&] { cfg.validate(); }, "res=");
}

TEST(KnobTable, ArtifactKnobErrorsNameTheFileAndEntry) {
  // A tuned.json entry is outside input: an out-of-cap or unknown knob
  // string is rejected at load, naming where it sits.
  std::string text = kSchema2Artifact;
  const std::string winner = "\"knobs\": \"exec=threads:4 ";
  const std::size_t at = text.find(winner);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, winner.size(), "\"knobs\": \"exec=threads:4096 ");
  const std::string path = "test_knobs_badcap.json";
  {
    std::ofstream out(path);
    out << text;
  }
  expect_config_error([&] { tune::load_artifact(path); },
                      path + ": entries[0].knobs: exec=threads:4096: ");
  std::remove(path.c_str());
}

int throws_config(int, char**) { throw ConfigError("bad knob"); }
int throws_io(int, char**) { throw IoError("unreadable"); }
int returns_seven(int, char**) { return 7; }

TEST(KnobTable, RunMainTurnsInputErrorsIntoExitTwo) {
  char prog[] = "prog";
  char* argv[] = {prog, nullptr};
  EXPECT_EQ(model::run_main(throws_config, 1, argv), 2);
  EXPECT_EQ(model::run_main(throws_io, 1, argv), 2);
  EXPECT_EQ(model::run_main(returns_seven, 1, argv), 7);
}

}  // namespace
}  // namespace wrf
