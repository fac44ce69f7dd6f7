#include "exec/passgraph.hpp"

#include <algorithm>

namespace wrf::exec {

std::size_t PassGraph::add(PassNode node) {
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

namespace {

bool same_range(const Range3& a, const Range3& b) {
  return a.i.lo == b.i.lo && a.i.hi == b.i.hi && a.k.lo == b.k.lo &&
         a.k.hi == b.k.hi && a.j.lo == b.j.lo && a.j.hi == b.j.hi;
}

/// Can the pair (a, b) share one launch?  Structural gates first (cheap,
/// and they make the *analyzer* the only source of dependence verdicts),
/// then the legality callback, then plan compatibility.
FusionCheck check_pair(const PassNode& a, const PassNode& b,
                       const Legality& legality) {
  FusionCheck c;
  if (!a.device || !b.device) {
    c.reason = (!a.device ? a.name : b.name) + " is a host-shard pass";
    return c;
  }
  if (a.split || b.split) {
    c.reason = (a.split ? a.name : b.name) +
               " is a predicate-split pass (hetero shards)";
    return c;
  }
  if (a.kernel_src == nullptr || b.kernel_src == nullptr) {
    c.reason = (a.kernel_src == nullptr ? a.name : b.name) +
               " has no embedded kernel source to analyze";
    return c;
  }
  // Dependence legality at the depth both launches could share.  Asked
  // BEFORE the structural plan checks so a genuinely illegal pair (e.g.
  // coal -> sedimentation's vertical dependence) is rejected by the
  // analyzer, not masked by a collapse-depth mismatch.
  const int depth = std::min(a.collapse, b.collapse);
  const FusionCheck verdict = legality(a, b, depth);
  if (!verdict.fusible) {
    c.reason = verdict.reason.empty() ? "analyzer rejected the pair"
                                      : verdict.reason;
    return c;
  }
  if (a.collapse != b.collapse) {
    c.reason = "collapse depth differs (" + std::to_string(a.collapse) +
               " vs " + std::to_string(b.collapse) + ")";
    return c;
  }
  if (!same_range(a.range, b.range)) {
    c.reason = "iteration ranges differ";
    return c;
  }
  if (a.grain != b.grain) {
    c.reason = "tile grains differ";
    return c;
  }
  c.fusible = true;
  c.reason = verdict.reason.empty()
                 ? "analyzer: no fusion-blocking dependence"
                 : verdict.reason;
  return c;
}

}  // namespace

Schedule PassGraph::schedule(FuseMode mode, const Legality& legality) const {
  Schedule s;
  if (nodes_.empty()) return s;
  s.groups.push_back({0});
  for (std::size_t b = 1; b < nodes_.size(); ++b) {
    const std::size_t a = b - 1;
    FusionDecision d;
    d.a = a;
    d.b = b;
    if (mode == FuseMode::kOff) {
      d.fused = false;
      d.reason = "fuse=off";
    } else {
      // Only the first pass of a group may accept a new member — the
      // legality proof covers pairs; longer chains would need a
      // pairwise-transitive argument we don't make.
      const bool chain_open = s.groups.back().size() < 2;
      const FusionCheck c = check_pair(nodes_[a], nodes_[b], legality);
      d.fused = chain_open && c.fusible;
      d.reason = !c.fusible
                     ? c.reason
                     : (chain_open ? c.reason
                                   : "previous pass already fused");
    }
    if (d.fused) {
      s.groups.back().push_back(b);
    } else {
      s.groups.push_back({b});
    }
    s.decisions.push_back(std::move(d));
  }
  return s;
}

}  // namespace wrf::exec
