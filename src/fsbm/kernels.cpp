#include "fsbm/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "util/constants.hpp"

namespace wrf::fsbm {

namespace c = wrf::constants;

namespace {
struct PairDef {
  Species a;
  Species b;
  const char* name;
};

constexpr PairDef kPairs[kNumPairs] = {
    {Species::kLiquid, Species::kLiquid, "cwll"},
    {Species::kLiquid, Species::kSnow, "cwls"},
    {Species::kLiquid, Species::kGraupel, "cwlg"},
    {Species::kLiquid, Species::kHail, "cwlh"},
    {Species::kLiquid, Species::kIceColumn, "cwli_1"},
    {Species::kLiquid, Species::kIcePlate, "cwli_2"},
    {Species::kLiquid, Species::kIceDendrite, "cwli_3"},
    {Species::kSnow, Species::kSnow, "cwss"},
    {Species::kSnow, Species::kGraupel, "cwsg"},
    {Species::kSnow, Species::kHail, "cwsh"},
    {Species::kIceColumn, Species::kSnow, "cwsi_1"},
    {Species::kIcePlate, Species::kSnow, "cwsi_2"},
    {Species::kIceDendrite, Species::kSnow, "cwsi_3"},
    {Species::kGraupel, Species::kGraupel, "cwgg"},
    {Species::kGraupel, Species::kHail, "cwgh"},
    {Species::kHail, Species::kHail, "cwhh"},
    {Species::kIceColumn, Species::kIceColumn, "cwii_1"},
    {Species::kIcePlate, Species::kIcePlate, "cwii_2"},
    {Species::kIceDendrite, Species::kIceDendrite, "cwii_3"},
    {Species::kIceColumn, Species::kGraupel, "cwig"},
};
}  // namespace

Species pair_a(CollisionPair p) { return kPairs[static_cast<int>(p)].a; }
Species pair_b(CollisionPair p) { return kPairs[static_cast<int>(p)].b; }
const char* pair_name(CollisionPair p) {
  return kPairs[static_cast<int>(p)].name;
}

double KernelTables::collision_efficiency(double r_small, double r_large) {
  // Hall-like shape: efficiency rises steeply with collector size and
  // with the size ratio; tiny collectors barely collect.
  if (r_large < 5.0e-6) return 1.0e-4;
  const double size_term = std::min(1.0, std::pow(r_large / 50.0e-6, 2.0));
  const double ratio = std::min(1.0, r_small / r_large);
  const double ratio_term = 0.15 + 0.85 * ratio * (2.0 - ratio);
  const double e = size_term * ratio_term;
  return std::clamp(e, 1.0e-4, 1.0);
}

double KernelTables::hydrodynamic_kernel(const BinGrid& bins, Species a,
                                         int ka, Species b, int kb,
                                         double rho_air) {
  const double ra = bins.radius(a, ka);
  const double rb = bins.radius(b, kb);
  const double va = bins.terminal_velocity(a, ka, rho_air);
  const double vb = bins.terminal_velocity(b, kb, rho_air);
  double dv = std::abs(va - vb);
  // Same-class same-bin pairs have |dv| = 0; turbulence keeps a floor on
  // relative motion so that self-collection is not identically zero.
  const double dv_floor = 0.01 * std::max(va, vb) + 1.0e-4;
  if (dv < dv_floor) dv = dv_floor;
  const double sum_r = ra + rb;
  const double eff = collision_efficiency(std::min(ra, rb), std::max(ra, rb));
  return c::kPi * sum_r * sum_r * dv * eff;
}

KernelTables::KernelTables(const BinGrid& bins) : nkr_(bins.nkr()) {
  // Air densities at the two reference levels (T ~ 273 K and 253 K are
  // representative of those pressures in the CONUS soundings).
  const double rho750 = kTableP750 / (c::kRd * 273.0);
  const double rho500 = kTableP500 / (c::kRd * 253.0);
  const auto n = static_cast<std::size_t>(nkr_);
  for (int p = 0; p < kNumPairs; ++p) {
    auto& t750 = yw750_[static_cast<std::size_t>(p)];
    auto& t500 = yw500_[static_cast<std::size_t>(p)];
    t750.assign(n * n, 0.0f);
    t500.assign(n * n, 0.0f);
    const Species a = kPairs[p].a;
    const Species b = kPairs[p].b;
    for (int i = 0; i < nkr_; ++i) {
      for (int j = 0; j < nkr_; ++j) {
        t750[static_cast<std::size_t>(i) * n + j] = static_cast<float>(
            hydrodynamic_kernel(bins, a, i, b, j, rho750));
        t500[static_cast<std::size_t>(i) * n + j] = static_cast<float>(
            hydrodynamic_kernel(bins, a, i, b, j, rho500));
      }
    }
  }
}

std::uint64_t KernelTables::kernals_ks(double pres_pa,
                                       CollisionArrays& out) const {
  // Listing 3: the doubly nested loop over all nkr x nkr entries of all
  // 20 arrays, re-run for every grid cell in the baseline code.
  const auto n = static_cast<std::size_t>(nkr_);
  const float w = pressure_weight(pres_pa);
  for (int p = 0; p < kNumPairs; ++p) {
    const auto& t750 = yw750_[static_cast<std::size_t>(p)];
    const auto& t500 = yw500_[static_cast<std::size_t>(p)];
    auto& cw = out.cw[static_cast<std::size_t>(p)];
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        const float ckern_1 = t750[i * n + j];
        const float ckern_2 = t500[i * n + j];
        cw[i * n + j] = lerp(ckern_1, ckern_2, w);
      }
    }
  }
  return static_cast<std::uint64_t>(kNumPairs) * n * n;
}

}  // namespace wrf::fsbm
