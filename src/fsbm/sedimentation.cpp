#include "fsbm/sedimentation.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace wrf::fsbm {

SedStats sediment_column(const BinGrid& bins, Species sp, float* g_col,
                         const double* rho, int nz, const SedConfig& cfg) {
  SedStats st;
  const int nkr = bins.nkr();
  if (nz <= 0) return st;
  const auto nzs = static_cast<std::size_t>(nz);

  // Per-thread scratch: the level's density correction (shared by every
  // bin of the call) and the current bin's courant numbers.
  thread_local std::vector<double> corr, courant;
  corr.resize(nzs);
  courant.resize(nzs);
  for (std::size_t iz = 0; iz < nzs; ++iz) {
    corr[iz] = BinGrid::density_correction(rho[iz]);
  }

  for (int k = 0; k < nkr; ++k) {
    // Fastest fall speed in the column bounds the CFL substep.  `courant`
    // holds the level's fall speed until the substep length is known.
    const double base = bins.terminal_velocity_base(sp, k);
    double vmax = 0.0;
    for (std::size_t iz = 0; iz < nzs; ++iz) {
      courant[iz] = base * corr[iz] * cfg.vel_scale;
      vmax = std::max(vmax, courant[iz]);
    }
    if (vmax <= 0.0) continue;
    const int nsub =
        std::max(1, static_cast<int>(std::ceil(vmax * cfg.dt / cfg.dz)));
    const double dts = cfg.dt / nsub;
    st.substeps += static_cast<std::uint64_t>(nsub);
    st.flops += 8.0 * nz * nsub;
    for (std::size_t iz = 0; iz < nzs; ++iz) {
      courant[iz] = std::min(1.0, courant[iz] * dts / cfg.dz);
    }

    for (int s = 0; s < nsub; ++s) {
      // Downward upwind sweep: flux out of level iz lands in iz-1;
      // level 0's outflux is surface precipitation.  rho-weighting keeps
      // the mass budget exact on a column with varying density.
      double flux_from_above = 0.0;  // rho*g*v entering the current level
      for (int iz = nz - 1; iz >= 0; --iz) {
        const auto l = static_cast<std::size_t>(iz);
        float& g = g_col[l * nkr + k];
        const double out = rho[iz] * static_cast<double>(g) * courant[l];
        const double in = flux_from_above;
        g = static_cast<float>((rho[iz] * g - out + in) / rho[iz]);
        flux_from_above = out;
      }
      st.surface_precip += flux_from_above / rho[0];
    }
  }
  return st;
}

}  // namespace wrf::fsbm
