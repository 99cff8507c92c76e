// Embedding search primitives.
//
// 1. MinCostTreeDP — exact min-cost embedding of a tree virtual network
//    with the root θ pinned to the ingress, under arbitrary per-element
//    effective costs and ignoring capacities.  Computed by dynamic
//    programming over the tree (children before parents):
//        C(i, v) = β_i·η(i,v)·nodeCost(v)
//                  + Σ_{j child of i} min_w [ β_(ij)·dist(v, w) + C(j, w) ]
//    where dist() is the shortest-path metric on the effective per-CU link
//    costs, computed lazily (LazyShortestPaths).  This is the pricing
//    oracle of the PLAN-VNE column generation and the candidate generator
//    for the plan's columns.
//
// 2. capacitated_min_cost_tree_embedding — the same DP with a capacity
//    filter: a VNF may only sit on a node whose residual fits it, and each
//    virtual link routes over the substrate links whose residuals fit it
//    (one lazily computed filtered metric per link size).  FULLG's exact
//    fast path and the Migrator's full re-embed.
//
// 3. greedy_collocated_embedding — GREEDYEMBED of §III-C: all VNFs of the
//    request collocate on one substrate node; the virtual links adjacent to
//    θ ride a single substrate path from the ingress; the least-cost
//    feasible host is found with one capacity-filtered Dijkstra.
#pragma once

#include <optional>

#include "core/load.hpp"
#include "net/embedding.hpp"
#include "net/paths.hpp"
#include "net/vnet.hpp"

namespace olive::core {

/// Effective per-CU element costs used by the DP (duals-adjusted during
/// column generation, plain element costs otherwise).
struct EffectiveCosts {
  std::vector<double> node_cost;    ///< per substrate node
  std::vector<double> link_weight;  ///< per substrate link

  static EffectiveCosts plain(const net::SubstrateNetwork& s);
};

/// The min-cost tree embedding (capacities ignored; η = inf placements
/// excluded).  The DP tables dp[i][v] depend only on (topology, effective
/// costs), not on the ingress, so one DP answers embed() for every ingress.
/// The PLAN-VNE pricing loop builds one per application per dual update and
/// reuses it across all classes of that application — with many ingress
/// classes per app this removes most of the pricing work.  `paths` must be
/// built on `costs.link_weight` and outlive the DP.
class MinCostTreeDP {
 public:
  MinCostTreeDP(const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
                const EffectiveCosts& costs,
                const net::LazyShortestPaths& paths);

  /// Min-cost embedding with the root pinned to `ingress`, or nullopt.
  std::optional<net::Embedding> embed(net::NodeId ingress) const;

 private:
  const net::SubstrateNetwork* s_;
  const net::VirtualNetwork* vn_;
  const net::LazyShortestPaths* paths_;
  std::vector<std::vector<double>> dp_;
  std::vector<std::vector<net::NodeId>> choice_;
};

/// GREEDYEMBED (§III-C): least-cost collocated embedding that fits the
/// residual capacities in `load` for the given demand.  Returns nullopt when
/// no feasible collocated embedding exists (including GPU/non-GPU VNF mixes,
/// which cannot collocate — the reason QUICKG skips the Fig. 10 scenario).
std::optional<net::Embedding> greedy_collocated_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, double demand, const LoadTracker& load);

/// Same, against precomputed per-link Dijkstra weights (must equal
/// net::link_cost_weights(s)) — the admission fast path hoists that vector
/// out of the per-request loop instead of rebuilding it every call.
std::optional<net::Embedding> greedy_collocated_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, double demand, const LoadTracker& load,
    const std::vector<double>& link_weights);

/// Capacity-filtered min-cost tree embedding: MinCostTreeDP on the plain
/// element costs, but every VNF placement and every path link must
/// individually fit `demand` under the residuals in `load` (θ is exempt
/// from the node filter).  That is a *necessary* condition for any feasible
/// embedding, so the returned optimum lower-bounds all feasible embeddings.
/// If the result also passes the joint load check, it is exactly the
/// optimal capacitated embedding — FULLG's fast path; it falls back to the
/// ILP only when several virtual elements collide on one substrate element.
std::optional<net::Embedding> capacitated_min_cost_tree_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, double demand, const LoadTracker& load);

}  // namespace olive::core
