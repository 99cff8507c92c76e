// Mid-run re-planning (the paper's §III-C future-work hook: re-plan at
// window boundaries for time-dependent expected demand).
//
// A ReplanPolicy fires at fixed slot boundaries (every `period` slots): it
// re-aggregates the trailing `period` slots of observed demand with the same
// bootstrapped-percentile estimator the offline plan uses, solves PLAN-VNE
// for the result *asynchronously* on the shared ThreadPool (carrying the
// column cache and the PlanWarmStart basis across consecutive re-plans, the
// PR-3 machinery), and hands the finished plan back to the engine at a
// deterministic install slot `launch + install_delay`.
//
// Determinism contract (same as parallel pricing, docs/parallelism.md): the
// install slot is fixed by the policy, never by solver latency — if the
// async solve has not finished by the install slot, the engine *blocks* on
// it.  Solver inputs are a pure function of the trace prefix and the
// launch-slot capacity view, so every thread count produces bit-identical
// runs; OLIVE_THREADS only moves how much of the solve overlaps the
// embedding loop.
#pragma once

#include <cstdint>
#include <future>
#include <optional>
#include <vector>

#include "core/aggregation.hpp"
#include "core/plan.hpp"
#include "core/plan_solver.hpp"
#include "net/substrate.hpp"
#include "net/vnet.hpp"
#include "workload/request.hpp"

namespace olive::engine {

struct ReplanConfig {
  /// Re-plan every `period` slots (launches at slots period, 2·period, …).
  /// 0 disables mid-run re-planning entirely.
  /// Each launch re-aggregates the trailing `period` slots of demand, i.e.
  /// exactly the demand since the previous launch.
  int period = 0;
  /// Slots between a launch and its deterministic install: the new plan is
  /// hot-swapped at the *beginning* of slot `launch + install_delay`,
  /// regardless of how long the solve actually took.  Must stay in
  /// [1, period) so at most one solve is in flight.
  int install_delay = 1;
  /// Percentile estimator over the trailing window (same P̂α bootstrap as
  /// the offline aggregation; `horizon` is overwritten with the window).
  core::AggregationConfig aggregation;
  /// PLAN-VNE solver settings for the re-plan solves.  The column cache
  /// and the optimal-basis snapshot always carry across consecutive
  /// re-plans.
  core::PlanVneConfig plan;
  /// Seed of the bootstrap streams (forked per re-plan sequence number).
  std::uint64_t seed = 1;
  /// >= 1: a failure burst — this many failure-hit embeddings since the
  /// last launch — triggers an early re-plan at the next slot boundary
  /// (at most one solve stays in flight; the install slot is still
  /// launch + install_delay, so runs remain deterministic).  0 disables
  /// the trigger: only the fixed period launches.
  int failure_burst = 0;
  /// Price re-plan solves against the substrate's *current* capacities:
  /// the engine snapshots the embedder's capacity view at the launch slot
  /// (after that slot's failure events) and passes it to the plan solver
  /// as a capacity overlay, so plans built mid-outage never promise shares
  /// on a down element.  The snapshot is taken on the engine thread at the
  /// policy-fixed launch slot, so runs stay bit-identical at every thread
  /// count.  Off: re-plans price nominal capacities (the pre-PR-6
  /// behavior).  Irrelevant without a failure trace — the snapshot then
  /// equals the nominal capacities and the solve is bit-identical anyway.
  bool capacity_aware = true;
  /// Must be 1: one solve per launch.  Portfolio re-planning (K > 1
  /// candidate solves scored by replay) was removed — it bought no
  /// measurable rejection or cost gain (EXPERIMENTS.md) — and ReplanPolicy
  /// refuses any other value.
  int candidates = 1;
};

/// Clips every request of `trace` whose activity overlaps [from, slot) to
/// that window and re-bases it to window coordinates (arrivals in
/// [0, slot - from)); `base` is the trace's slot-0 arrival offset.  Only
/// arrivals strictly before `slot` are visible — the policy is causal.
/// This is the exact demand-window clip every re-plan aggregates over,
/// exposed for the boundary-pinning tests.
workload::Trace clip_window(const workload::Trace& trace, int base,
                            std::int64_t from, std::int64_t slot);

/// What one re-plan did — the `on_replan` observer payload.
struct ReplanEvent {
  int sequence = 0;              ///< 0-based re-plan index within the run
  std::int64_t launch_slot = 0;  ///< boundary the solve was launched at
  std::int64_t install_slot = 0;  ///< deterministic swap slot (launch+delay)
  bool installed = false;  ///< false iff the embedder refused the plan
  int classes = 0;         ///< classes in the new plan
  double solve_seconds = 0;  ///< wall-clock of the async solve itself
  core::PlanSolveInfo info;  ///< master-LP work of the solve
};

/// Owns the launch schedule, the async solve, the cross-replan
/// cache/warm-start state, and the demand feed the windows are clipped from.
/// One instance lives inside each slot kernel (engine/kernel.hpp).
class ReplanPolicy {
 public:
  /// Refuses an invalid config (see ReplanConfig) on the caller's thread.
  ReplanPolicy(const net::SubstrateNetwork& substrate,
               const std::vector<net::Application>& apps, ReplanConfig config);
  ~ReplanPolicy();  // joins any still-flying solve

  ReplanPolicy(const ReplanPolicy&) = delete;
  ReplanPolicy& operator=(const ReplanPolicy&) = delete;

  bool enabled() const noexcept { return config_.period > 0 && !disabled_; }

  /// True when a new solve should launch at the beginning of `slot`.
  bool wants_launch(std::int64_t slot) const noexcept;

  /// Appends one slot's arrivals to the demand feed, re-based to run slots
  /// (arrival = `slot`, saturating at INT_MAX).  The slot kernel calls this
  /// for every admitted batch while re-planning is enabled.
  void observe(const workload::Request* batch, std::size_t n,
               std::int64_t slot);

  /// clip_window over every request observed so far: the feed clipped to
  /// [from, slot) in window coordinates.  Launches prune the feed only of
  /// requests that departed before their window opened, so this equals
  /// clip_window over the full run's arrivals for every window a later
  /// launch can ask for.
  workload::Trace demand_window(std::int64_t from, std::int64_t slot) const;

  /// Launches the async PLAN-VNE solve over the trailing window of the
  /// demand feed (only arrivals strictly before `slot` have been observed —
  /// the policy is causal).  No-op if the window holds no demand.
  /// `capacities`, if non-empty, is the current-capacity snapshot the solve
  /// prices against (ReplanConfig::capacity_aware; copied, so the caller's
  /// view may keep mutating while the solve flies).
  void launch(std::int64_t slot, const std::vector<double>& capacities);

  /// Install slot of the in-flight solve, or -1 when none is pending.
  std::int64_t pending_install_slot() const noexcept;

  struct Result {
    core::Plan plan;
    ReplanEvent event;
  };

  /// Blocks until the pending solve finishes and returns its plan.  Call
  /// exactly at its install slot.
  Result collect();

  /// Stops all future launches (the engine calls this when the embedder
  /// refuses `install_plan`).
  void disable() noexcept { disabled_ = true; }

  /// Failure-hit embeddings observed since the last launch (the engine
  /// reports every failure event's impact); drives the `failure_burst`
  /// early-launch trigger.
  void note_failure_impact(int broken) noexcept { failure_hits_ += broken; }

 private:
  struct Pending {
    std::int64_t install_slot = 0;
    std::future<Result> solve;
  };

  const net::SubstrateNetwork& substrate_;
  const std::vector<net::Application>& apps_;
  ReplanConfig config_;
  workload::Trace feed_;  ///< observed arrivals, run slots, arrival order
  /// Carried across consecutive solves.  Only the in-flight solve touches
  /// them while one is pending (consecutive solves never overlap:
  /// install_delay < period).
  core::PlanColumnCache cache_;
  core::PlanWarmStart warm_;
  std::optional<Pending> pending_;
  int sequence_ = 0;
  int failure_hits_ = 0;  ///< since the last launch (failure_burst trigger)
  bool disabled_ = false;
};

}  // namespace olive::engine
