// PLAN-VNE solver (paper §III-B, Fig. 4) via Dantzig–Wolfe column
// generation.
//
// The arc-flow LP of Fig. 4 decomposes per aggregated request r̃: the only
// coupling constraints are the element capacities (Eq. 15).  We therefore
// solve the equivalent configuration LP:
//
//   min  Σ_c Σ_k f_{c,k} · d_c · unitCost(E_{c,k})                 (Eq. 7/8)
//        + Σ_c ψ_c · d_c · Σ_p p · y_{c,p}                          (Eq. 9)
//   s.t. Σ_k f_{c,k} + Σ_p y_{c,p} = 1            ∀ classes c       (Eq. 13)
//        Σ_c Σ_k d_c · usage_{c,k}(e) · f_{c,k} ≤ cap(e)   ∀ e      (Eq. 15)
//        y_{c,p} ∈ [0, 1/P],  f_{c,k} ≥ 0                           (Eq. 12)
//
// where each column E_{c,k} is an *integral* embedding of class c's virtual
// network rooted at its ingress (so Eq. 11 and flow preservation Eq. 14 hold
// by construction), priced by the exact tree-DP with dual-adjusted element
// costs.  The configuration LP's optimum is at least as tight as the
// arc-flow relaxation, and its solution is directly a splittable plan.
//
// Rejection quantiles: the y_{c,p} variables carry progressively increasing
// rejection costs p·ψ, which "water-fills" rejections across classes so no
// class is starved — the paper's novel starvation-prevention device.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "lp/simplex.hpp"
#include "net/vnet.hpp"

namespace olive::core {

struct PlanVneConfig {
  int quantiles = 10;  ///< P (Fig. 11 shows 10 suffices)
  /// Base rejection factor ψ; < 0 selects the paper's conservative default:
  /// the cost of placing every element of the application on the most
  /// expensive substrate element (per CU).
  double psi = -1.0;
  int max_rounds = 60;          ///< column-generation round limit
  /// Pricing parallelism: tree-DP + column search run per application on
  /// the shared thread pool.  0 selects olive::default_thread_count()
  /// (OLIVE_THREADS env, else hardware concurrency); 1 forces the exact
  /// serial path (plain inline loops, no pool involvement).  Results are
  /// bit-identical at every thread count — candidate columns are merged
  /// into the master in fixed class order, so the simplex pivot
  /// trajectory, objective, and column cache contents never depend on
  /// scheduling (see docs/parallelism.md and
  /// tests/parallel_determinism_test.cpp).
  int threads = 0;
  lp::SimplexOptions lp;
  /// Pricing-rule auto-switch for the master: when the master has at least
  /// this many rows (capacity rows + convexity rows), `lp.pricing` is
  /// upgraded to SteepestEdge for the solve.  Dantzig pivot counts grow
  /// roughly with the row count on the tall scale_xl masters (FatTree16+,
  /// CaidaIsp) while steepest edge stays near-flat; small masters keep the
  /// configured rule so every pinned golden objective and trace is
  /// byte-identical to the pre-knob solver.  0 disables the switch.
  int steepest_edge_rows = 2000;
  /// Current-capacity overlay for the Eq. 15 rows (flat element indexing;
  /// when non-empty, must have exactly element_count entries).  Empty — the
  /// default — prices against the substrate's nominal capacities, with
  /// arithmetic bit-identical to the overlay-free solver.  When set, each
  /// capacity row's rhs becomes max(0, capacities[e]) / nominal(e), and
  /// pricing treats zero-capacity (down) elements as unusable: their
  /// effective costs get a huge-finite sentinel and candidate embeddings
  /// touching them are discarded rather than entered into the master (an
  /// rhs-0 row can carry a zero dual under degeneracy, so the LP rows alone
  /// would not steer column generation away from dead elements).  Classes
  /// left with no live embedding get rejection-only plans for this solve.
  /// Negative entries (residuals driven negative by a failure) clamp to 0.
  std::vector<double> capacities;
};

struct PlanSolveInfo {
  int rounds = 0;
  int columns_generated = 0;
  long simplex_iterations = 0;  ///< summed over the initial solve + resolves
  lp::Status status = lp::Status::Optimal;
  double objective = 0;
  /// Resolved pricing thread count this solve ran with (>= 1).  Purely
  /// informational: every other field is identical at any thread count.
  int pricing_threads = 1;
  /// Basis warm start: whether a PlanWarmStart was offered, and whether the
  /// master actually started from it (a miss means the carried basis was
  /// stale — singular or primal infeasible under the new demands — and the
  /// solve fell back to the all-slack cold start).
  bool warm_start_attempted = false;
  bool warm_start_hit = false;
  /// Basis-maintenance counters summed over the master's lifetime (see
  /// lp::FactorStats; eta stats are zero in Dense basis mode).
  long refactorizations = 0;
  long eta_length_max = 0;
};

/// Basis continuity across consecutive master solves (SLOTOFF slots,
/// replans).  Rows and columns are keyed by substrate element, request
/// class, and embedding fingerprint, so the snapshot survives classes
/// appearing/departing and columns being regenerated: surviving rows start
/// from the previous optimal basis, new rows start from their slack, and
/// departed columns simply drop out.
struct PlanWarmStart {
  lp::WarmStart basis;
  bool empty() const noexcept { return basis.empty(); }
};

/// Cross-solve column cache.  Embeddings generated for a class (app,
/// ingress) stay valid across repeated solves on the same substrate, so the
/// per-slot SLOTOFF baseline seeds each solve with the previous slots'
/// columns and converges in very few pricing rounds.
class PlanColumnCache {
 public:
  struct CachedColumn {
    net::Embedding embedding;
    Usage usage;
    double unit_cost = 0;
    /// net::fingerprint64(embedding), cached so neither the seeding nor the
    /// feedback path ever re-fingerprints a stored column.
    std::uint64_t fingerprint = 0;
  };

  struct Bucket {
    std::vector<CachedColumn> columns;
    /// Fingerprints of `columns`, for O(1) duplicate checks.
    std::unordered_set<std::uint64_t> fingerprints;
    /// LRU age: the cache-wide tick of the last bucket() access.  Every
    /// solve touches its classes' buckets (seed + feedback), so a bucket's
    /// tick tracks the most recent solve that could still warm-start from
    /// its columns.
    long long last_used = 0;
  };

  PlanColumnCache() = default;
  /// `max_columns` is the cache-wide column budget enforced by trim().
  explicit PlanColumnCache(std::size_t max_columns)
      : max_columns_(max_columns) {}

  Bucket& bucket(int app, net::NodeId ingress) {
    Bucket& b = buckets_[key(app, ingress)];
    b.last_used = ++tick_;
    return b;
  }

  /// Small cap: the LP rarely uses more than a couple of columns per class,
  /// and an over-seeded master makes every per-slot solve pay for it.
  static constexpr std::size_t kMaxPerBucket = 10;

  /// Default global budget: generous enough that no small-topology run ever
  /// evicts (FatTree8 has ~512 classes ⇒ ≤ 5120 columns), yet it holds a
  /// day-long scale_xl loop over an ISP-scale class space to a flat,
  /// bounded footprint.
  static constexpr std::size_t kDefaultMaxColumns = 65536;

  std::size_t max_columns() const noexcept { return max_columns_; }
  std::size_t total_columns() const noexcept {
    std::size_t n = 0;
    for (const auto& [k, b] : buckets_) n += b.columns.size();
    return n;
  }

  /// Enforces the global budget by evicting whole least-recently-used
  /// buckets (oldest tick first, ties broken by class key — deterministic)
  /// until the total column count fits.  Whole-bucket eviction keeps the
  /// warm-start story simple: a class either re-seeds all its cached
  /// columns (so a carried basis referencing them still lands) or re-prices
  /// from scratch like a brand-new class.  solve_plan_vne calls this after
  /// its feedback pass; long re-plan/SLOTOFF loops therefore hold flat RSS.
  void trim() {
    std::size_t total = total_columns();
    if (total <= max_columns_) return;
    std::vector<std::pair<long long, long long>> order;  // (tick, key)
    order.reserve(buckets_.size());
    for (const auto& [k, b] : buckets_) order.emplace_back(b.last_used, k);
    std::sort(order.begin(), order.end());
    for (const auto& [tick, k] : order) {
      if (total <= max_columns_) break;
      const auto it = buckets_.find(k);
      total -= it->second.columns.size();
      buckets_.erase(it);
    }
  }

 private:
  static long long key(int app, net::NodeId ingress) {
    return class_key(app, ingress);
  }
  std::unordered_map<long long, Bucket> buckets_;
  std::size_t max_columns_ = kDefaultMaxColumns;
  long long tick_ = 0;
};

/// The paper's conservative rejection penalty for application `app`: the
/// per-demand-unit cost of hosting all its elements on the most expensive
/// substrate elements.
double default_psi(const net::SubstrateNetwork& s,
                   const net::VirtualNetwork& app);

/// Solves PLAN-VNE for the aggregated demand.  Classes whose application has
/// no feasible placement anywhere get rejection-only plans.  `cache`, if
/// given, seeds the column pool and receives newly generated columns.
/// `warm`, if given, is read to seed the master's starting basis and
/// overwritten with the final optimal basis, so consecutive solves on
/// overlapping demand (SLOTOFF, replans) skip most simplex iterations.
Plan solve_plan_vne(const net::SubstrateNetwork& s,
                    const std::vector<net::Application>& apps,
                    const std::vector<AggregateRequest>& aggregates,
                    const PlanVneConfig& config = {},
                    PlanSolveInfo* info = nullptr,
                    PlanColumnCache* cache = nullptr,
                    PlanWarmStart* warm = nullptr);

}  // namespace olive::core
