#include "fsbm/sedimentation.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace wrf::fsbm {

SedStats sediment_column(const BinGrid& bins, Species sp, float* g_col,
                         const double* rho, int nz, const SedConfig& cfg) {
  SedStats st;
  const int nkr = bins.nkr();
  if (nz <= 0) return st;

  for (int k = 0; k < nkr; ++k) {
    // Fastest fall speed in the column bounds the CFL substep.
    double vmax = 0.0;
    for (int iz = 0; iz < nz; ++iz) {
      vmax = std::max(vmax,
                      bins.terminal_velocity(sp, k, rho[iz]) * cfg.vel_scale);
      ++st.tv_lookups;
      ++st.corr_evals;
    }
    if (vmax <= 0.0) continue;
    const int nsub =
        std::max(1, static_cast<int>(std::ceil(vmax * cfg.dt / cfg.dz)));
    const double dts = cfg.dt / nsub;
    st.substeps += static_cast<std::uint64_t>(nsub);
    st.lockstep_substeps += static_cast<std::uint64_t>(nsub);

    for (int s = 0; s < nsub; ++s) {
      // Downward upwind sweep: flux out of level iz lands in iz-1;
      // level 0's outflux is surface precipitation.  rho-weighting keeps
      // the mass budget exact on a column with varying density.
      double flux_from_above = 0.0;  // rho*g*v entering the current level
      for (int iz = nz - 1; iz >= 0; --iz) {
        float& g = g_col[static_cast<std::size_t>(iz) * nkr + k];
        const double v =
            bins.terminal_velocity(sp, k, rho[iz]) * cfg.vel_scale;
        ++st.tv_lookups;
        ++st.corr_evals;
        const double courant = std::min(1.0, v * dts / cfg.dz);
        const double out = rho[iz] * static_cast<double>(g) * courant;
        const double in = flux_from_above;
        g = static_cast<float>((rho[iz] * g - out + in) / rho[iz]);
        flux_from_above = out;
        st.flops += 8.0;
      }
      st.surface_precip += flux_from_above / rho[0];
    }
  }
  return st;
}

SedStats sediment_block(const BinGrid& bins, Species sp, float* g_blk,
                        const double* rho_blk, int nz, int ncol,
                        const SedConfig& cfg, double* precip_col) {
  SedStats st;
  for (int c = 0; c < ncol; ++c) precip_col[c] = 0.0;
  if (nz <= 0 || ncol <= 0) return st;
  const int nkr = bins.nkr();
  const auto nc = static_cast<std::size_t>(ncol);

  // Per-thread scratch: O(ncol) CFL state plus the per-(level, column)
  // density corrections shared by every bin of this species call.
  thread_local std::vector<double> corr, vmax, dts, flux;
  thread_local std::vector<int> nsub;
  corr.resize(static_cast<std::size_t>(nz) * nc);
  vmax.resize(nc);
  dts.resize(nc);
  flux.resize(nc);
  nsub.resize(nc);

  for (int iz = 0; iz < nz; ++iz) {
    for (int c = 0; c < ncol; ++c) {
      corr[static_cast<std::size_t>(iz) * nc + static_cast<std::size_t>(c)] =
          BinGrid::density_correction(
              rho_blk[static_cast<std::size_t>(iz) * nc +
                      static_cast<std::size_t>(c)]);
    }
  }
  st.corr_evals += static_cast<std::uint64_t>(nz) * static_cast<std::uint64_t>(ncol);

  for (int k = 0; k < nkr; ++k) {
    // One base-table read per bin per block: the amortization win.
    const double base = bins.terminal_velocity_base(sp, k);
    ++st.tv_lookups;

    // Per-column CFL: each column keeps its OWN substep count and substep
    // length (so its arithmetic matches the solo column solver exactly);
    // the block marches the worst case in lockstep and masks finished
    // columns.
    for (int c = 0; c < ncol; ++c) vmax[static_cast<std::size_t>(c)] = 0.0;
    for (int iz = 0; iz < nz; ++iz) {
      const double* crow = corr.data() + static_cast<std::size_t>(iz) * nc;
      for (int c = 0; c < ncol; ++c) {
        const double v = base * crow[c] * cfg.vel_scale;
        vmax[static_cast<std::size_t>(c)] =
            std::max(vmax[static_cast<std::size_t>(c)], v);
      }
    }
    int nsub_max = 0;
    for (int c = 0; c < ncol; ++c) {
      if (vmax[static_cast<std::size_t>(c)] <= 0.0) {
        nsub[static_cast<std::size_t>(c)] = 0;
        dts[static_cast<std::size_t>(c)] = 0.0;
        continue;
      }
      const int ns = std::max(
          1, static_cast<int>(
                 std::ceil(vmax[static_cast<std::size_t>(c)] * cfg.dt /
                           cfg.dz)));
      nsub[static_cast<std::size_t>(c)] = ns;
      dts[static_cast<std::size_t>(c)] = cfg.dt / ns;
      st.substeps += static_cast<std::uint64_t>(ns);
      if (ns > nsub_max) nsub_max = ns;
    }
    if (nsub_max == 0) continue;
    st.lockstep_substeps += static_cast<std::uint64_t>(nsub_max);

    for (int s = 0; s < nsub_max; ++s) {
      for (int c = 0; c < ncol; ++c) flux[static_cast<std::size_t>(c)] = 0.0;
      for (int iz = nz - 1; iz >= 0; --iz) {
        float* grow =
            g_blk + (static_cast<std::size_t>(iz) * nkr + k) * nc;
        const double* rrow = rho_blk + static_cast<std::size_t>(iz) * nc;
        const double* crow = corr.data() + static_cast<std::size_t>(iz) * nc;
        for (int c = 0; c < ncol; ++c) {
          if (s >= nsub[static_cast<std::size_t>(c)]) continue;
          float& g = grow[c];
          const double v = base * crow[c] * cfg.vel_scale;
          const double courant =
              std::min(1.0, v * dts[static_cast<std::size_t>(c)] / cfg.dz);
          const double out = rrow[c] * static_cast<double>(g) * courant;
          const double in = flux[static_cast<std::size_t>(c)];
          g = static_cast<float>((rrow[c] * g - out + in) / rrow[c]);
          flux[static_cast<std::size_t>(c)] = out;
          st.flops += 8.0;
        }
      }
      for (int c = 0; c < ncol; ++c) {
        if (s < nsub[static_cast<std::size_t>(c)]) {
          precip_col[c] +=
              flux[static_cast<std::size_t>(c)] / rho_blk[c];  // level 0
        }
      }
    }
  }
  for (int c = 0; c < ncol; ++c) st.surface_precip += precip_col[c];
  return st;
}

SedDispatch SedDispatch::parse(const std::string& s) {
  SedDispatch d;
  if (s == "column") {
    d.kind = Kind::kColumn;
    return d;
  }
  const std::string prefix = "block";
  if (s.rfind(prefix, 0) == 0) {
    d.kind = Kind::kBlock;
    if (s.size() == prefix.size()) return d;  // bare "block": default width
    if (s[prefix.size()] == ':') {
      const std::string n = s.substr(prefix.size() + 1);
      if (!n.empty() &&
          n.find_first_not_of("0123456789") == std::string::npos) {
        errno = 0;
        const long v = std::strtol(n.c_str(), nullptr, 10);
        if (errno == 0 && v >= 1 && v <= 1 << 20) {
          d.block = static_cast<int>(v);
          return d;
        }
      }
    }
  }
  throw ConfigError("SedDispatch: unknown sed mode '" + s +
                    "' (want column | block[:N], N >= 1)");
}

std::string SedDispatch::describe() const {
  if (kind == Kind::kColumn) return "column";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "block:%d", block);
  return buf;
}

SedDispatch sed_from_args(int argc, char** argv) {
  const std::string prefix = "sed=";
  for (int a = 1; a < argc; ++a) {
    const std::string s = argv[a];
    if (s.rfind(prefix, 0) == 0) {
      return SedDispatch::parse(s.substr(prefix.size()));
    }
  }
  return SedDispatch{};
}

}  // namespace wrf::fsbm
