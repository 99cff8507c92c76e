// Simulation metrics (paper §IV) and the simulator configuration.
//
// The slot-driven event loops live in engine::Engine (src/engine/engine.hpp):
// Engine::run / run_stream drive a per-request OnlineEmbedder (OLIVE /
// QUICKG / FULLG) over a trace — each slot first releases departing
// requests, then processes that slot's arrivals in order (ON-VNE, Fig. 2) —
// and Engine::run_slotoff runs the SLOTOFF baseline: every slot it re-solves
// an OFF-VNE instance (our column-generation PLAN-VNE on the slot's actual
// active demand) and re-assigns all active requests to the resulting
// columns; requests that do not fit the accepted fraction are rejected and
// never reconsidered.  Ongoing requests may receive a completely different
// allocation each slot — the inherent advantage the paper grants SLOTOFF.
//
// Cost accounting (uniform across all algorithms):
//  * resource cost  — Σ over measured slots of Σ_active d(r)·unitCost(x(r))
//    (Eq. 3 restricted to the measurement window);
//  * rejection cost — Ψ(r) = ψ_a·d(r)·T(r) for every request arriving in the
//    window that is rejected or later preempted (Eq. 4; preemption incurs
//    the full rejection cost, §III-C).
#pragma once

#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "net/vnet.hpp"
#include "workload/request.hpp"

namespace olive::core {

struct SimulatorConfig {
  /// Measurement window, in slots relative to the first trace slot
  /// (the paper reports requests starting between slots 100 and 500 of the
  /// 600-slot test period).
  int measure_from = 100;
  int measure_to = 500;
  /// Rejection penalty ψ per app; empty selects default_psi per application.
  std::vector<double> psi_per_app;
  /// Record per-request outcomes (needed by the Fig. 12 bench).
  bool record_requests = false;
  /// Simulation continues `drain_slots` past measure_to so that late
  /// preemptions of window requests are still observed, then stops — slots
  /// beyond that cannot affect any reported metric.  Negative: run the
  /// whole trace.
  int drain_slots = 50;
};

struct RequestRecord {
  workload::RequestId id = -1;
  int arrival = 0, duration = 0;
  int app = -1;
  net::NodeId ingress = -1;
  double demand = 0;
  OutcomeKind kind = OutcomeKind::Rejected;
  int preempted_at = -1;  ///< slot of preemption, or -1
};

struct SimMetrics {
  std::string algorithm;

  // Counts over requests arriving inside the measurement window.
  long offered = 0;
  long accepted = 0;
  long rejected = 0;   ///< rejected on arrival
  long preempted = 0;  ///< accepted, later preempted
  double offered_demand = 0;
  double rejected_demand = 0;

  double resource_cost = 0;
  double rejection_cost = 0;
  double total_cost() const noexcept { return resource_cost + rejection_cost; }

  /// Rejection rate: share of window requests that were rejected on arrival
  /// or preempted (both lose their embedding).
  double rejection_rate() const noexcept {
    return offered == 0
               ? 0.0
               : static_cast<double>(rejected + preempted) / offered;
  }

  /// Per-slot series over the whole run (for Fig. 8): demand offered by all
  /// active requests vs demand of active *accepted* allocations.
  std::vector<double> offered_series;
  std::vector<double> allocated_series;

  /// Balance-index inputs (Fig. 11): per (node, app) rejection counts and
  /// per-node request counts n(v), window only.
  std::vector<std::vector<double>> rejected_by_node_app;
  std::vector<double> requests_by_node;

  /// Wall-clock seconds spent inside the algorithm (Fig. 16's runtime).
  double algo_seconds = 0;

  /// Master-LP work aggregated over every PLAN-VNE solve the run performed:
  /// the per-slot OFF-VNE solves for SLOTOFF, the mid-run re-plan solves
  /// when the engine's ReplanPolicy is on, zero for plain online runs.
  long plan_solves = 0;
  long plan_simplex_iterations = 0;
  long plan_rounds = 0;
  long plan_columns_generated = 0;
  double plan_objective_sum = 0;  ///< Σ per-slot LP objectives
  /// Basis continuity across the per-slot masters: solves that started
  /// from the previous slot's optimal basis, and the factorization
  /// counters summed/maxed over all solves (see lp::FactorStats).
  long plan_warm_start_hits = 0;
  long plan_refactorizations = 0;
  long plan_eta_length_max = 0;

  /// Mid-run re-plans that were installed (engine ReplanPolicy only), and
  /// the wall-clock the async re-plan solves spent off the critical path.
  long replans = 0;
  double replan_seconds = 0;

  /// Substrate dynamics (engine failure traces, docs/failures.md): capacity
  /// events applied, active embeddings broken by them, how many of those
  /// migration repaired, and how many were dropped (SLA violations; dropped
  /// window requests also count as preempted and incur rejection cost).
  /// All four are whole-run counts, not window-restricted.
  long failures = 0;
  long failure_hit = 0;
  long migrations = 0;
  long sla_violations = 0;
  /// Repair-stage composition of `migrations` (patched + reembedded +
  /// batched == migrations): path patches, full re-embeds (incl. the
  /// greedy fallback), and seats assigned by the joint batch solve.
  long repairs_patched = 0;
  long repairs_reembedded = 0;
  long repairs_batched = 0;

  /// Admission fast-path counters (FastPathStats folded in at run end).
  /// Diagnostics that never influence decisions, but deterministic: they
  /// are inside the bit-identity contract across thread counts (they do
  /// differ between fast path on and off, by design).  The fastpath_spec_*
  /// fields are always 0; they stay for perfbench/ until a benchmark change
  /// drops them.
  long fastpath_greedy_hits = 0;
  long fastpath_greedy_misses = 0;
  long fastpath_greedy_invalidations = 0;
  long fastpath_column_skips = 0;
  long fastpath_spec_commits = 0;
  long fastpath_spec_misses = 0;
  long fastpath_spec_serial = 0;
  long fastpath_preempt_calls = 0;
  long fastpath_preempt_scanned = 0;
  long fastpath_preempt_popped = 0;

  std::vector<RequestRecord> records;  // only if record_requests
};

}  // namespace olive::core
