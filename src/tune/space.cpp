#include "tune/space.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "model/knobs.hpp"
#include "util/error.hpp"

namespace wrf::tune {

namespace {

/// Copy the tunable rows through their text, the form tuned.json keeps.
void copy_tunable(const model::RunConfig& from, model::RunConfig& to) {
  for (const model::Knob& row : model::knobs()) {
    if (row.tunable) row.set(to, row.print(from));
  }
}

}  // namespace

KnobSet KnobSet::of(const model::RunConfig& cfg) {
  KnobSet k;
  copy_tunable(cfg, k.cfg);
  return k;
}

void KnobSet::apply_to(model::RunConfig& target) const {
  copy_tunable(cfg, target);
}

std::string KnobSet::describe() const {
  std::string out;
  for (const model::Knob& row : model::knobs()) {
    if (!row.tunable) continue;
    if (!out.empty()) out += ' ';
    out += row.token(cfg);
  }
  return out;
}

KnobSet KnobSet::parse(const std::string& s) {
  KnobSet k;
  std::set<std::string> seen;
  std::istringstream in(s);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("KnobSet: token '" + token +
                        "' is not key=value in '" + s + "'");
    }
    const model::Knob& row = model::knob(token.substr(0, eq));
    if (!row.tunable) {
      throw ConfigError("KnobSet: knob '" + row.key + "' in '" + s +
                        "' is not tunable");
    }
    if (!seen.insert(row.key).second) {
      throw ConfigError("KnobSet: duplicate knob '" + row.key + "' in '" +
                        s + "'");
    }
    row.set(k.cfg, token.substr(eq + 1));
  }
  return k;
}

bool KnobSet::operator==(const KnobSet& o) const {
  return describe() == o.describe();
}

std::string shape_key(const model::RunConfig& cfg) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "grid %dx%dx%d nkr=%d ranks=%dx%d version=%s phys=%s",
                cfg.nx, cfg.ny, cfg.nz, cfg.nkr, cfg.npx, cfg.npy,
                fsbm::version_name(cfg.version),
                model::knob_name("phys", cfg.phys).c_str());
  return buf;
}

SearchSpace SearchSpace::enumerate(const model::RunConfig& base,
                                   int hw_threads) {
  const bool offloaded = base.offloaded();
  const bool multi_rank = base.nranks() > 1;
  hw_threads = std::clamp(hw_threads, 1, model::kMaxExecThreads);

  // Candidate values per dimension, base-config validity applied here.
  std::vector<exec::ExecConfig> execs;
  {
    exec::ExecConfig e;
    execs.push_back(e);  // serial
    // Thread counts: hardware width, half-width when distinct, and one
    // oversubscribed point (2 on a 1-core host) — the measured rungs
    // decide whether oversubscription pays on this machine.
    std::vector<int> counts;
    counts.push_back(std::max(hw_threads, 2));
    if (hw_threads >= 4) counts.push_back(hw_threads / 2);
    for (const int t : counts) {
      e.kind = exec::ExecKind::kThreads;
      e.nthreads = t;
      execs.push_back(e);
    }
    if (offloaded) {
      e.kind = exec::ExecKind::kDevice;
      e.nthreads = 0;
      execs.push_back(e);
      e.kind = exec::ExecKind::kHetero;
      e.nthreads = std::max(hw_threads, 2);
      execs.push_back(e);
    }
  }

  std::vector<mem::ResidencyMode> reses{mem::ResidencyMode::kStep};
  if (offloaded) reses.push_back(mem::ResidencyMode::kPersist);

  std::vector<dyn::HaloMode> halos{dyn::HaloMode::kSync};
  if (multi_rank) halos.push_back(dyn::HaloMode::kOverlap);

  // fuse=auto is a point only where it can fire: where the scheme's
  // own pass-chain declaration, scheduled under fuse=auto for that exec
  // point, forms a multi-pass launch group.
  model::RunConfig fused = base;
  fused.fuse = exec::FuseMode::kAuto;
  const grid::Patch patch =
      grid::decompose(base.domain(), base.npx, base.npy, base.halo)[0];
  const auto fuses_for = [&](const exec::ExecConfig& e) {
    std::vector<exec::FuseMode> fuses{exec::FuseMode::kOff};
    const exec::Schedule s = fsbm::FastSbm::plan_schedule(
        patch, base.nkr, base.version, fused.scheme_params(), e.kind);
    for (const auto& group : s.groups) {
      if (group.size() > 1) {
        fuses.push_back(exec::FuseMode::kAuto);
        break;
      }
    }
    return fuses;
  };

  SearchSpace space;
  // The untuned point always leads: a tuner that prunes everything
  // still has a measured baseline, and the winner can only displace it
  // by out-measuring it.
  space.points.push_back(KnobSet::of(base));
  for (const auto& e : execs) {
    const std::vector<exec::FuseMode> fuses = fuses_for(e);
    for (const auto& h : halos) {
      for (const auto& r : reses) {
        for (const auto& f : fuses) {
          KnobSet k;
          k.cfg.exec = e;
          k.cfg.halo_mode = h;
          k.cfg.res = r;
          k.cfg.fuse = f;
          if (!space.contains(k)) space.points.push_back(k);
        }
      }
    }
  }
  return space;
}

bool SearchSpace::contains(const KnobSet& k) const noexcept {
  return std::find(points.begin(), points.end(), k) != points.end();
}

}  // namespace wrf::tune
