#include "layers.hpp"

namespace wrfbench {

void put_layers(Report& r, const Layers& l, double reps) {
  const double k = reps > 0.0 ? 1.0 / reps : 0.0;
  const fsbm::FsbmStats& f = l.totals.fsbm;
  const dyn::Rk3Stats& d = l.totals.dyn;
  auto S = [&](const char* n, double v) { r.put(n, v * k, "s", kWall); };
  auto N = [&](const char* n, double v, const char* unit = "count") {
    r.put(n, v * k, unit, kCount);
  };
  S("model.setup_s", l.setup_s);
  S("model.step_s", l.step_s);
  S("model.barrier_wait_s", l.barrier_wait_s);
  S("model.snapshot_s", l.snapshot_s);
  S("model.halo_wall_s", l.halo_wall_s);
  N("model.halo_bytes", l.halo_bytes, "B");

  N("dyn.cells", static_cast<double>(d.tend.cells + d.update.cells));
  N("dyn.flops", d.tend.flops + d.update.flops, "flop");

  N("par.messages", l.par_messages);
  N("par.bytes", l.par_bytes, "B");
  S("par.wait_s", l.par_wait_s);

  S("fsbm.wall_s", f.wall_total_sec);
  S("fsbm.coal_wall_s", f.wall_coal_sec);
  N("fsbm.cells_active", static_cast<double>(f.cells_active));
  N("fsbm.cells_coal", static_cast<double>(f.cells_coal));
  N("fsbm.coal_interactions", static_cast<double>(f.coal_interactions));
  N("fsbm.kernel_entries", static_cast<double>(f.kernel_entries));
  N("fsbm.flops", f.coal_flops + f.cond_flops + f.nucl_flops + f.sed_flops,
    "flop");
  N("fsbm.sed_substeps", static_cast<double>(f.sed_substeps));
  N("fsbm.fidelity_flips", static_cast<double>(f.promotions + f.demotions));
  // Census share of bin cells; phys=bin keeps no census (all cells bin).
  const double census = static_cast<double>(f.cells_bin + f.cells_bulk);
  r.put("fsbm.bin_fraction",
        census > 0.0 ? static_cast<double>(f.cells_bin) / census : 1.0,
        "ratio", kCount);

  N("bulk.flops", f.bulk_flops, "flop");

  r.put("gpu.kernel_modeled_ms", l.kernel_modeled_ms * k, "ms", kModeled);
  r.put("gpu.kernel_host_ms", l.kernel_host_ms * k, "ms", kWall);
  N("gpu.launches", l.launches);
  r.put("gpu.launch_latency_ms", f.launch_latency_ms * k, "ms", kModeled);
  r.put("gpu.l2_hit_rate", l.l2_hit_rate, "ratio", kModeled);
  r.put("gpu.dram_gb", l.dram_gb * k, "GB", kModeled);

  N("mem.h2d_bytes", static_cast<double>(f.h2d_bytes), "B");
  N("mem.d2h_bytes", static_cast<double>(f.d2h_bytes), "B");
  N("mem.transfers", static_cast<double>(f.h2d_transfers + f.d2h_transfers));
  r.put("mem.xfer_modeled_ms", (f.h2d_ms + f.d2h_ms) * k, "ms", kModeled);
  // Residency footprints are levels, not per-rep work: not scaled.
  r.put("mem.resident_bytes", l.resident_bytes, "B", kCount);
  r.put("mem.pool_bytes", l.pool_bytes, "B", kCount);

  // Scheduler quantiles and ratios are levels too.
  r.put("svc.wait_p50_s", l.wait_p50_s, "s", kWall);
  r.put("svc.wait_p90_s", l.wait_p90_s, "s", kWall);
  r.put("svc.service_p50_s", l.service_p50_s, "s", kWall);
  N("svc.dispatches", l.dispatches);
  N("svc.batched_jobs", l.batched_jobs);
  r.put("svc.occupancy", l.occupancy, "ratio", kWall);
  r.put("svc.deadline_met", l.deadline_met, "ratio", kWall);
  N("svc.rejected", l.rejected);
  N("svc.failed", l.failed);

  const Ledger& g = l.ledger;
  for (const char* layer : {"model", "dyn", "par", "fsbm", "gpu"}) {
    r.put(std::string("trace.") + layer + "_s", g.seconds(layer) * k, "s",
          kWall);
  }
  S("trace.unattributed_s", static_cast<double>(g.unattributed_us) * 1e-6);
  S("trace.step_wall_s", static_cast<double>(g.envelope_us) * 1e-6);
  r.put("trace.overhead", l.trace_overhead, "ratio", kWall);
}

}  // namespace wrfbench
