// Migration-based repair of embeddings broken by substrate failures
// (docs/failures.md).
//
// When a failure event leaves an active embedding infeasible (a hosting
// node or path link lost its capacity), the engine evicts it and asks the
// Migrator for a replacement embedding against the *residual* capacities.
// Repair is staged cheapest-first:
//
//  1. path patch — every VNF placement still fits, so only the broken
//     substrate paths are re-routed (one capacity-filtered Dijkstra per
//     broken virtual link, min-cost on the per-CU link costs);
//  2. full re-embed — capacitated_min_cost_tree_embedding, the FULLG fast
//     path: the MinCostTreeDP recurrence with a residual-capacity filter on
//     hosts and per-link-size filtered LazyShortestPaths, the root θ still
//     pinned to the request's ingress; kept only if the joint load fits;
//  3. greedy fallback — GREEDYEMBED's least-cost collocated embedding on
//     the cached per-CU link costs.
//
// When one event breaks *several* embeddings at once, repairing them one at
// a time in id order lets the early requests grab residual capacity the
// later ones needed.  plan_batch instead solves one small OFF-VNE instance
// over the residual capacities — the broken requests aggregated into
// (app, ingress) classes, priced by the same column-generation machinery as
// PLAN-VNE with the LoadTracker residuals as a capacity overlay — and
// rounds the fractional optimum back to integral per-request embeddings
// (largest-demand-first first-fit, as in SLOTOFF).  Requests the rounding
// cannot seat fall back to the staged per-request ladder above.
//
// All stages are deterministic functions of (substrate, residuals,
// requests) — the batch solve prices single-threaded — so repaired runs
// stay bit-identical at every engine thread count.
#pragma once

#include <optional>

#include "core/load.hpp"
#include "net/embedding.hpp"
#include "net/vnet.hpp"
#include "workload/request.hpp"

namespace olive::core {

/// What the engine does with embeddings a failure event breaks.
enum class RepairPolicy {
  Drop,     ///< evict only; every hit is an SLA violation
  Migrate,  ///< staged per-request repair, ascending id order
  Batched,  ///< joint batch re-assignment, staged repair as fallback
};

/// Which repair stage produced a replacement embedding.
enum class RepairStage { None, Patched, Reembedded, Batched };

struct MigratorStats {
  long attempts = 0;      ///< repair() calls
  long path_patches = 0;  ///< healed by re-routing broken paths only
  long reembeds = 0;      ///< needed a full re-embed (incl. greedy fallback)
  long failures = 0;      ///< no feasible repair existed
  long batch_solves = 0;  ///< plan_batch calls (>= 2 broken requests)
  long batch_placed = 0;  ///< requests seated directly by a batch solve
};

class Migrator {
 public:
  Migrator(const net::SubstrateNetwork& substrate,
           const std::vector<net::Application>& apps);

  /// Repairs request r's broken embedding against the residuals in `load`
  /// (the broken allocation must already be released).  Returns the
  /// replacement embedding, or nullopt when nothing feasible exists — the
  /// caller then drops the request as an SLA violation.  `stage`, if given,
  /// reports which ladder rung succeeded (None on failure).
  std::optional<net::Embedding> repair(const workload::Request& r,
                                       const net::Embedding& broken,
                                       const LoadTracker& load,
                                       RepairStage* stage = nullptr);

  /// Jointly re-assigns a batch of broken requests against the residuals in
  /// `load` (all their allocations must already be released).  Returns one
  /// entry per input request, in order: the embedding the batch optimum
  /// seats it on, or nullopt when the solve/rounding could not place it —
  /// the caller then falls back to repair().  The returned embeddings are
  /// jointly feasible: applying all of them keeps every residual >= 0.
  std::vector<std::optional<net::Embedding>> plan_batch(
      const std::vector<const workload::Request*>& batch,
      const LoadTracker& load);

  const MigratorStats& stats() const noexcept { return stats_; }

 private:
  std::optional<net::Embedding> patch_paths(const net::VirtualNetwork& vn,
                                            const net::Embedding& broken,
                                            double demand,
                                            const LoadTracker& load) const;

  const net::SubstrateNetwork& substrate_;
  const std::vector<net::Application>& apps_;
  std::vector<double> link_costs_;  ///< per-CU link cost metric, cached
  MigratorStats stats_;
};

}  // namespace olive::core
