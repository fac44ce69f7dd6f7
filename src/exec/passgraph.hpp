#pragma once
// Pass-DAG executor: the cross-pass rung of the paper's collapse ladder.
//
// FSBM's per-step work is a short chain of passes (condensation ->
// collision -> sedimentation), each today a separate dispatch paying the
// modeled per-launch latency plus inter-pass DataRegion round-trips.  A
// PassGraph holds one PassNode per pass — its field footprint (reads /
// writes), tile plan (range, grain, collapse depth), shard placement,
// and a pointer to the embedded mini-Fortran kernel source the analyzer
// can reason about.  `schedule()` walks adjacent pairs and fuses two
// device-shard passes into one launch group when
//
//   1. a *legality callback* (analyzer/fusion.hpp: dependence analysis
//      over both kernel sources, memoized per pass-pair and collapse
//      depth) proves the merged lanes have no fusion-blocking
//      dependence, and
//   2. the tile plans are structurally compatible (same collapse depth,
//      same iteration range, same grain — the fused kernel must index
//      both bodies with one flat lane id).
//
// Host-shard and predicate-split (hetero) passes never fuse.  Every
// decision — fused or not, and why — is recorded in the Schedule so
// tests and benches can assert the reason came from the analyzer
// rather than a hand-coded blocklist.
//
// A node carries no dispatch tag: the caller keeps its own table
// indexed by node id (FastSbm pairs each node with a host pass function
// or a device lane descriptor) and runs any group from it — a fused
// group is its members' lanes composed per cell, not a special kernel,
// so there is no whitelist of fusible pairs.
//
// Determinism: fusion never changes the tile cut (the fused launch uses
// the shared plan) and the legality proof is exactly the pointwise
// condition under which lane-by-lane back-to-back execution is bitwise
// identical to two sequential full passes — so fuse=auto must, and
// does, reproduce fuse=off bit for bit (asserted across the full
// version x residency x exec matrix in tests/test_fusion.cpp).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/exec.hpp"

namespace wrf::exec {

/// The `fuse=` knob: cross-pass kernel fusion policy.  Its names live
/// in the knob table (model/knobs.hpp).
enum class FuseMode : int {
  kOff = 0,   ///< every pass launches separately (the paper's layout)
  kAuto = 1,  ///< fuse adjacent device passes the analyzer proves legal
};

/// One pass's declared footprint and tile plan.
struct PassNode {
  std::string name;      ///< kernel/pass name (diagnostics, decisions)
  bool device = false;   ///< runs on the device shard
  bool split = false;    ///< predicate-split across shards (hetero)
  int collapse = 3;      ///< collapsed loop depth of the launch
  Range3 range;          ///< iteration range of the collapsed nest
  std::int64_t grain = 0;  ///< tile grain (0 = default plane grain)
  std::vector<std::string> reads;   ///< field footprint: read
  std::vector<std::string> writes;  ///< field footprint: written
  /// Embedded kernel source + procedure for the legality analysis;
  /// passes without one (host physics) are never fusion candidates.
  const std::string* kernel_src = nullptr;
  std::string procedure;
};

/// Legality callback verdict.
struct FusionCheck {
  bool fusible = false;
  std::string reason;  ///< analyzer blockers when not fusible
};

/// The recorded outcome for one adjacent pair (a, b = node ids).
struct FusionDecision {
  std::size_t a = 0, b = 0;
  bool fused = false;
  std::string reason;
};

/// Result of scheduling: consecutive passes grouped into launch units
/// (group.size() > 1 => one fused launch), plus the per-pair decisions.
struct Schedule {
  std::vector<std::vector<std::size_t>> groups;
  std::vector<FusionDecision> decisions;

  /// Decision for the adjacent pair (a, b); null when not adjacent.
  const FusionDecision* decision(std::size_t a, std::size_t b) const {
    for (const auto& d : decisions) {
      if (d.a == a && d.b == b) return &d;
    }
    return nullptr;
  }
};

/// Legality callback: may passes a and b merge their outermost
/// `collapse` loops into one launch?  Implemented by the caller over
/// analyzer::FusionOracle (kept a callback so exec does not depend on
/// the analyzer layer).
using Legality =
    std::function<FusionCheck(const PassNode&, const PassNode&, int collapse)>;

/// Ordered pass chain (the per-step DAG is a chain: each pass reads its
/// predecessor's writes).
class PassGraph {
 public:
  /// Append a pass; returns its node id (position in the chain).
  std::size_t add(PassNode node);

  const PassNode& node(std::size_t id) const { return nodes_[id]; }
  std::size_t size() const noexcept { return nodes_.size(); }

  /// Greedily group adjacent passes, consulting `legality` for each
  /// candidate pair at the pair's shared collapse depth.  Structural
  /// gates (host/split passes, missing sources, mismatched plans) are
  /// checked here; the dependence verdict always comes from the
  /// callback.  With FuseMode::kOff every pass gets its own group and
  /// each decision records "fuse=off".
  Schedule schedule(FuseMode mode, const Legality& legality) const;

 private:
  std::vector<PassNode> nodes_;
};

}  // namespace wrf::exec
