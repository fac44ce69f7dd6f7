#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace wrf::tune {
namespace {

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

/// Run `cfg` once and return the run result (single-rank runs skip the
/// simpi layer, matching how the benches measure).
model::RunResult timed_run(const model::RunConfig& cfg) {
  return cfg.nranks() > 1 ? model::run_simulation(cfg)
                          : model::run_single(cfg);
}

/// The measurement config for one knob point: base with the knobs
/// applied, `steps` steps, observability and tuning forced off.
model::RunConfig measured_config(const model::RunConfig& base,
                                 const KnobSet& k, int steps) {
  model::RunConfig cfg = base;
  k.apply_to(cfg);
  cfg.nsteps = std::max(steps, 1);
  cfg.obs = obs::ObsConfig{};
  cfg.tune = TuneSpec{};
  return cfg;
}

}  // namespace

Tuner::Tuner(TunerOptions opts) : opts_(std::move(opts)) {
  if (opts_.rung_steps.empty()) opts_.rung_steps = {1};
  if (opts_.prior_keep < 1) opts_.prior_keep = 1;
  if (opts_.probe_steps < 1) opts_.probe_steps = 1;
}

perfmodel::KnobWork Tuner::probe(const model::RunConfig& base) const {
  // Canonical knobs for work counting: full per-step transfer traffic,
  // one launch per pass.  All of these are bitwise-neutral, so the
  // counted physics work is the base config's.
  model::RunConfig cfg = base;
  cfg.res = mem::ResidencyMode::kStep;
  cfg.fuse = exec::FuseMode::kOff;
  cfg.halo_mode = dyn::HaloMode::kSync;
  cfg.nsteps = opts_.probe_steps;
  cfg.obs = obs::ObsConfig{};
  cfg.tune = TuneSpec{};
  const model::RunResult r = timed_run(cfg);

  const double nranks = static_cast<double>(base.nranks());
  const double steps = static_cast<double>(opts_.probe_steps);
  const double rank_steps = nranks * steps;
  const double domain_cells = static_cast<double>(base.nx) * base.ny * base.nz;

  perfmodel::KnobWork w;
  w.cells = domain_cells / nranks;
  w.offloaded = base.offloaded();
  w.nranks = base.nranks();
  const fsbm::FsbmStats& f = r.totals.fsbm;
  w.coal_flops = f.coal_flops / rank_steps;
  w.cond_nucl_flops = (f.cond_flops + f.nucl_flops + f.bulk_flops) / rank_steps;
  w.sed_flops = f.sed_flops / rank_steps;
  w.adv_flops =
      (r.totals.dyn.tend.flops + r.totals.dyn.update.flops) / rank_steps;
  w.step_h2d_bytes = static_cast<double>(f.h2d_bytes) / rank_steps;
  w.step_d2h_bytes = static_cast<double>(f.d2h_bytes) / rank_steps;
  w.kernel_launches = static_cast<double>(f.kernel_launches) / rank_steps;
  w.halo_bytes = static_cast<double>(r.totals.halo_bytes) / rank_steps;
  w.halo_messages =
      static_cast<double>(r.comm.total_messages()) / rank_steps;
  const double cell_steps = domain_cells * steps;
  if (cell_steps > 0 && f.cells_coal > 0) {
    w.coal_active_fraction = static_cast<double>(f.cells_coal) / cell_steps;
  }
  return w;
}

TuneReport Tuner::tune(const model::RunConfig& base) const {
  base.validate();

  TuneReport report;
  report.base = base;
  report.base.obs = obs::ObsConfig{};
  report.base.tune = TuneSpec{};

  const int hw = hardware_threads();
  report.work = probe(report.base);

  const SearchSpace space = SearchSpace::enumerate(report.base, hw);
  report.space_size = static_cast<int>(space.points.size());

  // Prior: price every point, advance the cheapest prior_keep.  The
  // base point (index 0) always advances — a pruned baseline would make
  // "tuned vs untuned" unmeasured.
  const perfmodel::CpuSpec cpu = perfmodel::CpuSpec::milan();
  const perfmodel::NetworkSpec net = perfmodel::NetworkSpec::slingshot();
  std::vector<double> prior_s(space.points.size(), 0.0);
  for (std::size_t i = 0; i < space.points.size(); ++i) {
    const KnobSet& k = space.points[i];
    prior_s[i] = perfmodel::knob_prior_step_seconds(
        report.work, k.exec, k.halo, k.res, k.fuse, cpu, net,
        report.base.device_spec, hw);
  }
  std::vector<std::size_t> order(space.points.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return prior_s[a] < prior_s[b];
  });
  std::vector<std::size_t> alive;
  for (const std::size_t i : order) {
    if (static_cast<int>(alive.size()) >= opts_.prior_keep) break;
    alive.push_back(i);
  }
  if (std::find(alive.begin(), alive.end(), std::size_t{0}) == alive.end()) {
    alive.push_back(0);
  }
  report.measured_points = static_cast<int>(alive.size());

  // Corrector: successive halving over the rung ladder.
  const std::string base_knobs = KnobSet::of(report.base).describe();
  double baseline_cellsteps = 0.0;
  const double domain_cells =
      static_cast<double>(report.base.nx) * report.base.ny * report.base.nz;

  struct Measured {
    std::size_t point;
    RepAggregate wall;
  };
  std::vector<Measured> last_rung;
  for (std::size_t r = 0; r < opts_.rung_steps.size(); ++r) {
    const int steps = std::max(opts_.rung_steps[r], 1);
    Rung rung;
    rung.rung = static_cast<int>(r);
    rung.steps = steps;
    rung.target_cv = opts_.policy.target_cv;

    last_rung.clear();
    for (const std::size_t i : alive) {
      const model::RunConfig cfg =
          measured_config(report.base, space.points[i], steps);
      const RepAggregate wall = measure_reps(opts_.policy, [&cfg] {
        return timed_run(cfg).wall_sec;
      });
      report.measured_runs += wall.reps;

      RungPoint pt;
      pt.knobs = space.points[i].describe();
      pt.wall = wall;
      pt.cellsteps_per_s =
          wall.min > 0 ? domain_cells * steps / wall.min : 0.0;
      pt.prior_ms_per_step = r == 0 ? prior_s[i] * 1e3 : 0.0;
      if (pt.knobs == base_knobs) baseline_cellsteps = pt.cellsteps_per_s;
      rung.points.push_back(std::move(pt));
      last_rung.push_back(Measured{i, wall});
    }

    // Keep the faster half (by min wall); the last rung keeps one.
    const bool final_rung = r + 1 == opts_.rung_steps.size();
    const std::size_t keep =
        final_rung ? 1
                   : std::max<std::size_t>(1, (last_rung.size() + 1) / 2);
    std::vector<std::size_t> idx(last_rung.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a,
                                                 std::size_t b) {
      return last_rung[a].wall.min < last_rung[b].wall.min;
    });
    std::vector<std::size_t> next;
    for (std::size_t j = 0; j < keep && j < idx.size(); ++j) {
      rung.points[idx[j]].survived = true;
      next.push_back(last_rung[idx[j]].point);
    }
    report.entry.ladder.push_back(std::move(rung));
    alive = std::move(next);
  }

  // The deciding rung's survivor is the winner.
  const std::size_t winner_idx = alive.front();
  const Rung& deciding = report.entry.ladder.back();
  const RungPoint* winner_pt = nullptr;
  for (const RungPoint& pt : deciding.points) {
    if (pt.survived) {
      winner_pt = &pt;
      break;
    }
  }
  report.entry.shape = shape_key(report.base);
  report.entry.knobs = space.points[winner_idx].describe();
  report.entry.steps = deciding.steps;
  if (winner_pt != nullptr) {
    report.entry.wall = winner_pt->wall;
    report.entry.cellsteps_per_s = winner_pt->cellsteps_per_s;
  }
  report.entry.baseline_cellsteps_per_s = baseline_cellsteps;

  report.winner = report.base;
  space.points[winner_idx].apply_to(report.winner);

  report.artifact.machine =
      local_fingerprint(report.base.device_spec.name);
  report.artifact.upsert(report.entry);
  return report;
}

}  // namespace wrf::tune
