#include "fsbm/hybrid.hpp"

#include <cmath>

namespace wrf::fsbm {

BulkMoments demote_liquid(float* liq, int nkr, const HybridConfig& cfg) {
  BulkMoments m;
  for (int n = 0; n < cfg.rain_bin_cut; ++n) m.qc += liq[n];
  for (int n = cfg.rain_bin_cut; n < nkr; ++n) m.qr += liq[n];
  for (int n = 0; n < nkr; ++n) liq[n] = 0.0f;
  liq[cfg.cloud_carrier_bin] = static_cast<float>(m.qc);
  liq[cfg.rain_carrier_bin] = static_cast<float>(m.qr);
  return m;
}

void promote_liquid(float* liq, int nkr, const HybridConfig& cfg) {
  // Integrate first (strays from advection included), exactly like
  // demote, so promote(x) and promote(demote(x)) see the same moments.
  double qc = 0.0, qr = 0.0;
  for (int n = 0; n < cfg.rain_bin_cut; ++n) qc += liq[n];
  for (int n = cfg.rain_bin_cut; n < nkr; ++n) qr += liq[n];

  // Cloud mode: Gaussian in bin index around the cloud carrier (a narrow
  // droplet mode); rain tail: exponential decay from the cut, the
  // Marshall-Palmer shape a one-moment qr implies.  Both weight sets are
  // normalized in double before any float store, so the reconstructed
  // spectrum carries each category's mass to rounding ulps.
  constexpr double kCloudWidth = 3.0;
  constexpr double kRainScale = 4.0;
  double wc_sum = 0.0, wr_sum = 0.0;
  for (int n = 0; n < cfg.rain_bin_cut; ++n) {
    const double d = (n - cfg.cloud_carrier_bin) / kCloudWidth;
    wc_sum += std::exp(-0.5 * d * d);
  }
  for (int n = cfg.rain_bin_cut; n < nkr; ++n) {
    wr_sum += std::exp(-(n - cfg.rain_bin_cut) / kRainScale);
  }
  for (int n = 0; n < cfg.rain_bin_cut; ++n) {
    const double d = (n - cfg.cloud_carrier_bin) / kCloudWidth;
    liq[n] = static_cast<float>(qc * std::exp(-0.5 * d * d) / wc_sum);
  }
  for (int n = cfg.rain_bin_cut; n < nkr; ++n) {
    liq[n] = static_cast<float>(
        qr * std::exp(-(n - cfg.rain_bin_cut) / kRainScale) / wr_sum);
  }
}

}  // namespace wrf::fsbm
