#include "tune/space.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"

namespace wrf::tune {

KnobSet KnobSet::of(const model::RunConfig& cfg) {
  KnobSet k;
  k.exec = cfg.exec;
  k.halo = cfg.halo_mode;
  k.res = cfg.res;
  k.fuse = cfg.fuse;
  return k;
}

void KnobSet::apply_to(model::RunConfig& cfg) const {
  cfg.exec = exec;
  cfg.halo_mode = halo;
  cfg.res = res;
  cfg.fuse = fuse;
}

std::string KnobSet::describe() const {
  std::string out = "exec=" + exec.describe();
  out += " halo=";
  out += dyn::halo_mode_name(halo);
  out += " res=";
  out += mem::residency_name(res);
  out += " fuse=";
  out += exec::fuse_name(fuse);
  return out;
}

KnobSet KnobSet::parse(const std::string& s) {
  KnobSet k;
  bool seen[4] = {false, false, false, false};
  std::istringstream in(s);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("KnobSet: token '" + token +
                        "' is not key=value in '" + s + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    int which = -1;
    if (key == "exec") {
      which = 0;
      k.exec = exec::ExecConfig::parse(val);
    } else if (key == "halo") {
      which = 1;
      k.halo = dyn::parse_halo_mode(val);
    } else if (key == "res") {
      which = 2;
      k.res = mem::parse_residency(val);
    } else if (key == "fuse") {
      which = 3;
      k.fuse = exec::parse_fuse(val);
    } else {
      throw ConfigError("KnobSet: unknown knob '" + key + "' in '" + s +
                        "' (tunable knobs: exec halo res fuse)");
    }
    if (seen[which]) {
      throw ConfigError("KnobSet: duplicate knob '" + key + "' in '" + s +
                        "'");
    }
    seen[which] = true;
  }
  return k;
}

bool KnobSet::operator==(const KnobSet& o) const noexcept {
  return exec.kind == o.exec.kind && exec.nthreads == o.exec.nthreads &&
         halo == o.halo && res == o.res && fuse == o.fuse;
}

std::string shape_key(const model::RunConfig& cfg) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "grid %dx%dx%d nkr=%d ranks=%dx%d version=%s phys=%s",
                cfg.nx, cfg.ny, cfg.nz, cfg.nkr, cfg.npx, cfg.npy,
                fsbm::version_name(cfg.version), fsbm::phys_name(cfg.phys));
  return buf;
}

SearchSpace SearchSpace::enumerate(const model::RunConfig& base,
                                   int hw_threads) {
  const bool offloaded = base.offloaded();
  const bool multi_rank = base.nranks() > 1;
  if (hw_threads < 1) hw_threads = 1;

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
          k.exec = e;
          k.halo = h;
          k.res = r;
          k.fuse = f;
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
