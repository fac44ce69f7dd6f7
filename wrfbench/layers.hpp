#pragma once
// The per-layer view both workload families fill in a traced run.  One
// struct, one emitter: every workload prints the same metric names, and a
// layer a workload does not exercise reads 0.  Values are per rep: one
// storm run (storms) or one service epoch (service_mix).

#include <cstdint>

#include "harness.hpp"
#include "model/driver.hpp"

namespace wrfbench {

namespace dyn = wrf::dyn;
namespace fsbm = wrf::fsbm;
namespace model = wrf::model;

struct Layers {
  // model: RankModel lifecycle and halo rounds.
  double setup_s = 0.0;         ///< ctor + init (summed over ranks / jobs)
  double step_s = 0.0;          ///< RankModel::step wall
  double barrier_wait_s = 0.0;  ///< per-step barrier wait
  double snapshot_s = 0.0;
  double halo_wall_s = 0.0;
  double halo_bytes = 0.0;
  // dyn, par, fsbm, bulk, mem: the run's own counters.
  model::StepStats totals;
  double par_messages = 0.0;
  double par_bytes = 0.0;
  double par_wait_s = 0.0;
  double resident_bytes = 0.0;
  double pool_bytes = 0.0;
  // gpu: kernel launches on both clocks; host wall is the launch spans'
  // (functional execution plus cache-trace replay).
  double kernel_modeled_ms = 0.0;
  double kernel_host_ms = 0.0;
  double launches = 0.0;
  double l2_hit_rate = 0.0;
  double dram_gb = 0.0;
  // svc: scheduler queueing and batching.
  double wait_p50_s = 0.0;
  double wait_p90_s = 0.0;
  double service_p50_s = 0.0;
  double dispatches = 0.0;
  double batched_jobs = 0.0;
  double occupancy = 0.0;
  double deadline_met = 0.0;
  double rejected = 0.0;
  double failed = 0.0;
  // The span ledger and the tracing cost.
  Ledger ledger;
  double trace_overhead = 0.0;
};

/// Put every per-layer metric of `l`, scaled by 1/reps, into `r`.
void put_layers(Report& r, const Layers& l, double reps);

/// Modeled device milliseconds of a run's transfers and launch latency
/// (kernels are added by the caller).
inline double modeled_overhead_ms(const fsbm::FsbmStats& f) {
  return f.launch_latency_ms + f.h2d_ms + f.d2h_ms;
}

}  // namespace wrfbench
