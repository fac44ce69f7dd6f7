#pragma once
// Adaptive bin/bulk hybrid microphysics: the `phys=` knob.
//
// The FSBM bin chain is expensive everywhere it runs, but most of a
// CONUS-style domain at any instant is clear air or stratiform drizzle
// that a one-moment bulk scheme represents adequately.  The hybrid mode
// generalizes the PR-5 predicate machinery into a per-cell *fidelity*
// field: cells where cloud is active or precipitating (the same
// coal-gate shape that drives `call_coal_`) run the full bin chain,
// while the calm remainder runs the corrected Kessler scheme
// (src/bulk/kessler.*) on two moments carried inside the liquid bin
// field itself.  Hysteresis — a promote/demote threshold band plus a
// demotion patience counter — keeps cells from flapping between
// fidelities step to step.
//
//   phys=bin     every cell runs the bin chain (the default; bitwise
//                identical to builds that predate the knob).
//   phys=bulk    every cell runs the Kessler scheme (step 1 demotes the
//                whole domain).
//   phys=hybrid  the adaptive fidelity field decides per cell.
//
// Representation: a bulk cell stores qc on `cloud_carrier_bin` and qr on
// `rain_carrier_bin` of the liquid bin field; every other liquid bin is
// zero.  That keeps the halo exchange, advection, snapshots, and the
// water-budget diagnostics working unchanged — a bulk cell is just a
// very sparse spectrum.  Ice species are never touched by the
// transforms.
//
// Transforms (free functions so tests can drive them directly):
//   demote_liquid  — integrate the spectrum into (qc, qr) moments at the
//                    rain-bin cut and collapse it onto the carriers.
//                    Idempotent on an already-collapsed cell; conserves
//                    liquid mass to float-rounding ulps.
//   promote_liquid — integrate the (possibly advection-smeared) moments
//                    and reconstruct a moment-matched spectrum: a
//                    Gaussian-in-bin-index cloud mode around the cloud
//                    carrier and an exponential (Marshall-Palmer-like)
//                    rain tail from the cut.  Conserves each category's
//                    mass to ulps.
// Neither transform touches temp or qv, so moist static energy is
// exactly invariant across promotion/demotion; conservation is asserted
// with ulp-scaled tolerances in tests/test_fsbm_properties.cpp.

#include <cstdint>

#include "bulk/kessler.hpp"

namespace wrf::fsbm {

/// The `phys=` knob: which microphysics fidelity the scheme runs.  Its
/// names live in the knob table (model/knobs.hpp).
enum class PhysScheme : int { kBin = 0, kBulk = 1, kHybrid = 2 };

/// Per-cell fidelity codes (Field3D<uint8_t> values).
constexpr std::uint8_t kFidelityBulk = 0;
constexpr std::uint8_t kFidelityBin = 1;

/// Tunables of the hybrid mode.
struct HybridConfig {
  /// A bulk cell whose liquid mass exceeds this (and whose temperature
  /// passes the coal gate) promotes to bin fidelity, kg/kg.
  double promote_threshold = 1.0e-6;
  /// A bin cell is "calm" when its liquid mass is below this (or its
  /// temperature fails the coal gate), kg/kg.  Two orders of magnitude
  /// below the promote threshold: the band is the hysteresis.
  double demote_threshold = 1.0e-8;
  /// Consecutive calm steps before a bin cell demotes (temporal
  /// hysteresis; must be in [1, 255] — the counter is a byte).
  int demote_patience = 3;
  /// Liquid bins >= this integrate into qr, below into qc (bin 16 is
  /// ~80 um radius, the same cut the fig2 bench uses).
  int rain_bin_cut = 16;
  /// Which bins carry the bulk moments.  cloud < cut <= rain.
  int cloud_carrier_bin = 8;
  int rain_carrier_bin = 20;
  /// Test hook: force the fidelity field instead of adapting.  kAllBin
  /// is the bitwise-regression gate (phys=hybrid + kAllBin must equal
  /// phys=bin bit for bit); kAllBulk is what phys=bulk uses internally.
  enum class Override : int { kAdaptive = 0, kAllBin = 1, kAllBulk = 2 };
  Override override_mode = Override::kAdaptive;
  /// Parameters of the bulk cells' Kessler scheme.
  bulk::KesslerParams kessler;
};

/// Bulk moments of one liquid spectrum (diagnostic return of demote).
struct BulkMoments {
  double qc = 0.0;
  double qr = 0.0;
};

/// Collapse a liquid spectrum (nkr bins) in place onto the carrier
/// bins: bins below the cut integrate (in double) into qc, bins at or
/// above into qr.  Returns the moments.  Idempotent on an
/// already-collapsed cell (the carriers re-integrate to themselves).
BulkMoments demote_liquid(float* liq, int nkr, const HybridConfig& cfg);

/// Reconstruct a moment-matched spectrum in place from the carried
/// moments (strays included: the whole current spectrum is integrated
/// first, exactly like demote).  Cloud mass spreads over bins below the
/// cut with Gaussian-in-index weights centered on the cloud carrier;
/// rain mass over bins at or above the cut with an exponential tail.
/// Weights are computed and normalized in double, so each category's
/// mass round-trips to ulps.
void promote_liquid(float* liq, int nkr, const HybridConfig& cfg);

}  // namespace wrf::fsbm
