#pragma once
// Machine models: converting counted work into modeled Perlmutter time.
//
// We cannot run on Milan CPUs + A100 GPUs + Slingshot, so the benches
// that reproduce the paper's absolute-scale tables (IV, V, VII/Fig. 4)
// price *measured work counts* (FLOPs, table entries, bytes, messages)
// with explicit hardware models.  Each model is a handful of documented
// constants — the point is that the *shapes* (who wins, crossover
// locations) emerge from mechanism, not from dialing in the answer.
// The calibration is a single throughput constant per machine, set so
// the 16-rank baseline magnitude matches Table VII; PAPER_CLAIMS.json
// (row table7.r16_baseline_s) records the result next to the paper's.

#include <cmath>
#include <cstdint>

#include "gpu/device.hpp"

namespace wrf::perfmodel {

/// One AMD EPYC 7763 (Milan) core running the FSBM/advection code.
struct CpuSpec {
  double freq_ghz = 2.45;
  /// Sustained FLOP/cycle for this (branchy, short-vector) code path;
  /// calibrated against Table VII's 16-rank baseline (see above).
  double flops_per_cycle = 1.6;
  /// Per-core share of the socket's ~204.8 GB/s.
  double mem_bw_gbs = 3.2;

  static CpuSpec milan() { return CpuSpec{}; }

  /// Seconds to execute `flops` on one core.
  double seconds_for_flops(double flops) const {
    return flops / (freq_ghz * 1.0e9 * flops_per_cycle);
  }
};

/// Slingshot-like interconnect, per-rank effective.
struct NetworkSpec {
  double latency_us = 8.0;       ///< per message, software included
  double bandwidth_gbs = 10.0;   ///< per-rank effective
  /// Synchronization overhead grows with sqrt(ranks) (tree collectives +
  /// jitter); coefficient in microseconds.
  double sync_us_coeff = 40.0;

  static NetworkSpec slingshot() { return NetworkSpec{}; }

  /// Seconds for one rank's halo traffic in one step.
  double seconds_for(std::uint64_t messages, std::uint64_t bytes,
                     int nranks) const {
    const double t_msg = static_cast<double>(messages) * latency_us * 1e-6;
    const double t_bw =
        static_cast<double>(bytes) / (bandwidth_gbs * 1.0e9);
    const double t_sync =
        sync_us_coeff * 1e-6 * std::sqrt(static_cast<double>(nranks));
    return t_msg + t_bw + t_sync;
  }
};

/// One resident-footprint formula — the single source of truth shared by
/// the paper-scale `DeviceFootprint` below and the forecast service's
/// admission control (`svc::job_footprint_bytes`): an inventory of
/// nkr-sized bin arrays, elem-sized 3-D arrays, and 1-byte 3-D predicate
/// arrays over `cells` grid points, plus fixed per-rank reservations.
/// Keeping both callers on this helper is what makes the scheduler's
/// packing constraint and the paper's ranks-per-GPU analysis agree on
/// per-rank bytes (asserted in tests/test_svc.cpp).
struct ResidentInventory {
  int bin_arrays = 0;      ///< nkr-sized 4-D arrays
  int arrays_3d = 0;       ///< elem-sized 3-D arrays
  int byte_arrays_3d = 0;  ///< 1-byte 3-D arrays (predicates)
  int elem_bytes = 8;
  std::uint64_t fixed_bytes = 0;  ///< patch-size-independent reservations
};

inline std::uint64_t resident_footprint_bytes(const ResidentInventory& inv,
                                              std::int64_t cells, int nkr) {
  const std::uint64_t per_cell =
      static_cast<std::uint64_t>(inv.bin_arrays) *
          static_cast<std::uint64_t>(nkr) *
          static_cast<std::uint64_t>(inv.elem_bytes) +
      static_cast<std::uint64_t>(inv.arrays_3d) *
          static_cast<std::uint64_t>(inv.elem_bytes) +
      static_cast<std::uint64_t>(inv.byte_arrays_3d);
  return static_cast<std::uint64_t>(cells) * per_cell + inv.fixed_bytes;
}

/// Per-rank device-resident memory of the full FSBM scheme.
///
/// Our mini scheme maps 7 bin fields + pools; the real fast_sbm maps on
/// the order of a hundred nkr-sized 4-D arrays (multiple time levels,
/// supersaturation and tendency fields, remap scratch, the temp_arrays
/// pools) plus dozens of 3-D fields, largely in double precision on the
/// device.  This inventory is what capped the paper at 5 MPI ranks per
/// 40 GB GPU in the 2-node experiment; the constants below encode that
/// documented inventory.
struct DeviceFootprint {
  int bin_arrays = 60;    ///< nkr-sized 4-D arrays resident per rank
                          ///< (distributions at two time levels, tendencies,
                          ///< supersaturation fields, remap scratch, pools)
  int arrays_3d = 40;     ///< plain 3-D fields resident per rank
  int elem_bytes = 8;     ///< FSBM device arrays are double precision

  /// Fixed, patch-size-independent reservations each rank makes on the
  /// device.  Dominated by the CUDA local-memory (stack) reservation:
  /// NV_ACC_CUDA_STACKSIZE bytes for every thread that *could* be
  /// resident for the heavy kernel — 65536 B x 640 threads/SM (the
  /// 90-register occupancy limit) x 108 SMs = ~4.5 GB — plus the CUDA
  /// context and the raised NV_ACC_CUDA_HEAPSIZE pool.  This is what
  /// caps ranks-per-GPU almost independently of patch size, which is
  /// why the paper's 2-node run is "limited to 5 MPI tasks per GPU".
  std::uint64_t stack_reservation_bytes = 65536ull * 640 * 108;
  std::uint64_t context_bytes = 500ull << 20;
  std::uint64_t heap_bytes = 64ull << 20;

  std::uint64_t per_rank_bytes(std::int64_t cells, int nkr) const {
    ResidentInventory inv;
    inv.bin_arrays = bin_arrays;
    inv.arrays_3d = arrays_3d;
    inv.elem_bytes = elem_bytes;
    inv.fixed_bytes = stack_reservation_bytes + context_bytes + heap_bytes;
    return resident_footprint_bytes(inv, cells, nkr);
  }

  /// How many ranks of `cells` grid points fit on one device.
  int max_ranks_per_gpu(const gpu::DeviceSpec& dev, std::int64_t cells,
                        int nkr) const {
    const std::uint64_t per_rank = per_rank_bytes(cells, nkr);
    if (per_rank == 0) return 1 << 20;
    return static_cast<int>(dev.dram_bytes / per_rank);
  }
};

}  // namespace wrf::perfmodel
