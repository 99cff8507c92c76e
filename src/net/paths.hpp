// Shortest paths on the substrate with pluggable per-link weights and an
// optional usability filter (e.g. "links with enough residual capacity").
//
// Used by GREEDYEMBED's one-Dijkstra collocated search (§III-C) and by the
// tree-DP embedders, which query lazily memoized per-source trees: the
// PLAN-VNE pricing step builds a fresh set whenever the LP duals change the
// effective link costs.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/substrate.hpp"

namespace olive::net {

struct ShortestPathTree {
  NodeId source = -1;
  std::vector<double> dist;      ///< +inf where unreachable
  std::vector<LinkId> via_link;  ///< link used to reach each node (-1 at src)
  std::vector<NodeId> prev;      ///< predecessor node (-1 at src)

  bool reachable(NodeId v) const;
  /// Links from `source` to v, in order.  Empty for v == source.
  std::vector<LinkId> path_to(NodeId v) const;
};

/// Dijkstra from `src`.  `link_weight[l]` must be >= 0.  If `usable` is
/// provided, links for which it returns false are skipped.
ShortestPathTree dijkstra(
    const SubstrateNetwork& s, NodeId src, const std::vector<double>& link_weight,
    const std::function<bool(LinkId)>& usable = {});

/// All-pairs distances/trees (one Dijkstra per node, all computed eagerly).
/// The program uses LazyShortestPaths; this is the eager reference the
/// tests check it and the tree DP against.
class AllPairsShortestPaths {
 public:
  AllPairsShortestPaths(const SubstrateNetwork& s,
                        const std::vector<double>& link_weight);

  double dist(NodeId a, NodeId b) const { return trees_[a].dist[b]; }
  const ShortestPathTree& tree(NodeId src) const { return trees_.at(src); }
  std::vector<LinkId> path(NodeId a, NodeId b) const {
    return trees_.at(a).path_to(b);
  }

 private:
  std::vector<ShortestPathTree> trees_;
};

/// Memoized per-source shortest paths: a source's Dijkstra tree is computed
/// the first time it is queried and cached for the lifetime of the object.
/// The PLAN-VNE pricing step builds one of these per dual update and only
/// pays for the sources its tree-DP actually touches (restricted placements,
/// single-node apps, and warm-started rounds query far fewer than all).
/// Answers are identical to AllPairsShortestPaths on the same weights.
///
/// Thread safety: concurrent tree()/dist()/path() calls are safe, including
/// races on the same source — a per-source once-latch guarantees each tree
/// is computed exactly once and published to every thread.  (Dijkstra is a
/// pure function of the weights, so which thread computes a tree cannot
/// change its contents; this is what keeps parallel pricing bit-identical
/// to serial pricing.)
class LazyShortestPaths {
 public:
  LazyShortestPaths(const SubstrateNetwork& s,
                    std::vector<double> link_weight);

  const ShortestPathTree& tree(NodeId src) const;
  double dist(NodeId a, NodeId b) const { return tree(a).dist[b]; }
  std::vector<LinkId> path(NodeId a, NodeId b) const {
    return tree(a).path_to(b);
  }

  /// How many source trees have been computed so far (observability).
  int computed_sources() const noexcept {
    return computed_count_.load(std::memory_order_relaxed);
  }

 private:
  const SubstrateNetwork* s_;
  std::vector<double> link_weight_;
  mutable std::vector<ShortestPathTree> trees_;
  /// One once-latch per source (unique_ptr: std::once_flag is immovable).
  mutable std::unique_ptr<std::once_flag[]> once_;
  mutable std::atomic<int> computed_count_{0};
};

/// Per-link weight vector `cost(l)` (the plain resource-cost metric).
std::vector<double> link_cost_weights(const SubstrateNetwork& s);

}  // namespace olive::net
