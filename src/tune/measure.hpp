#pragma once
// Statistical measurement primitives shared by bench_paper_claims and
// the knob autotuner (tune::Tuner), so a PAPER_CLAIMS.json wall row and
// a tuned.json rung are aggregated by exactly the same code.
//
// The unit of currency is the RepAggregate: min / median / mean / CV
// over N repetitions of one measurement.  `min` is the headline number
// (least-noise estimate of the achievable wall), `median` the robustness
// check, and `cv` (stddev/mean) the stability gauge — a rung whose CV
// exceeds the target is jitter, not signal, and must not decide a
// winner.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace wrf::tune {

/// Aggregate of N repetitions of one measurement.
struct RepAggregate {
  double min = 0.0;
  double median = 0.0;
  double mean = 0.0;
  double cv = 0.0;  ///< coefficient of variation, stddev / mean
  int reps = 0;
};

/// Aggregate already-collected samples.  For callers whose rep loop
/// yields several metrics at once (e.g. ext.hetero's device and
/// host shard walls per run): collect each metric into its own vector
/// and aggregate them separately.  `samples` must be non-empty.
inline RepAggregate aggregate_samples(std::vector<double> samples) {
  RepAggregate agg;
  std::sort(samples.begin(), samples.end());
  agg.reps = static_cast<int>(samples.size());
  agg.min = samples.front();
  const std::size_t n = samples.size();
  agg.median = n % 2 == 1 ? samples[n / 2]
                          : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  double sum = 0.0;
  for (double s : samples) sum += s;
  agg.mean = sum / static_cast<double>(n);
  double var = 0.0;
  for (double s : samples) var += (s - agg.mean) * (s - agg.mean);
  var /= static_cast<double>(n);
  agg.cv = agg.mean > 0.0 ? std::sqrt(var) / agg.mean : 0.0;
  return agg;
}

/// Run `fn` (returning one double sample) `reps` times and aggregate.
/// The first call is NOT discarded: callers that want a warmup should do
/// it themselves before measuring (the FSBM benches construct a fresh
/// RankModel per rep, so there is no cross-rep cache to warm).
template <typename Fn>
RepAggregate measure_reps(int reps, Fn&& fn) {
  if (reps < 1) reps = 1;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) samples.push_back(fn());
  return aggregate_samples(std::move(samples));
}

/// Adaptive repetition policy: keep measuring until the aggregate's CV
/// drops to `target_cv` or the rep cap is hit.  On a quiet host this
/// costs `min_reps` runs; on a noisy one it spends up to `max_reps`
/// driving the estimate down instead of committing a garbage winner.
/// The caller can tell which happened from RepAggregate::cv vs the
/// target (bench_paper_claims' ext.tuner.deciding_cv row gates on it).
struct MeasurePolicy {
  int min_reps = 3;       ///< always collect at least this many
  int max_reps = 10;      ///< rep cap — never spend more than this
  double target_cv = 0.10;
};

/// Adaptive overload of measure_reps: repeat `fn` until CV <= target or
/// the rep cap, re-aggregating the full sample set each round.
template <typename Fn>
RepAggregate measure_reps(const MeasurePolicy& policy, Fn&& fn) {
  const int lo = std::max(policy.min_reps, 1);
  const int hi = std::max(policy.max_reps, lo);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(hi));
  RepAggregate agg;
  while (static_cast<int>(samples.size()) < hi) {
    samples.push_back(fn());
    if (static_cast<int>(samples.size()) < lo) continue;
    agg = aggregate_samples(samples);  // copy: keep collecting order
    if (agg.cv <= policy.target_cv) return agg;
  }
  return aggregate_samples(std::move(samples));
}

}  // namespace wrf::tune
