// Experiment wiring shared by the benchmark harness and the examples.
//
// A Scenario bundles everything one repetition of a paper experiment needs:
// topology, sampled application set, calibrated trace (MMPP or CAIDA-like),
// history/online split, time aggregation, and the PLAN-VNE plan.  The
// mismatch knobs reproduce the §IV-B robustness studies: plan built for a
// different expected utilization (Fig. 13) and spatially shuffled plan
// input (Fig. 14).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/migrator.hpp"
#include "core/plan_solver.hpp"
#include "core/simulator.hpp"
#include "topo/topologies.hpp"
#include "workload/appgen.hpp"
#include "workload/caida.hpp"
#include "workload/failures.hpp"
#include "workload/tracegen.hpp"

namespace olive::core {

struct ScenarioConfig {
  std::string topology = "Iris";  ///< Iris | CittaStudi | 5GEN | 100N150E
                                  ///< | FatTree<k> (scale family, k even)
  double utilization = 1.0;       ///< edge utilization (1.0 == 100%)
  std::uint64_t seed = 1;

  workload::TraceConfig trace;      ///< demand_mean is overwritten by the
                                    ///< utilization calibration
  AggregationConfig aggregation;
  PlanVneConfig plan;
  SimulatorConfig sim;

  std::vector<workload::AppKind> mix;  ///< empty -> paper default mix
  bool gpu_variant = false;            ///< Fig. 10 substrate + GPU apps

  bool use_caida = false;              ///< Fig. 15 workload
  workload::CaidaConfig caida;

  /// Fig. 13: expected utilization the plan is built for (<= 0: same as
  /// `utilization`).  The online trace always runs at `utilization`.
  double plan_utilization = -1.0;
  /// Fig. 14: shuffle each history request's ingress before aggregation.
  bool shuffle_plan_ingress = false;
  /// Drifting-utilization scenario (the mid-run re-planning workload):
  /// ramps the online demand linearly so edge utilization climbs from
  /// `utilization` at the start of the test period to
  /// `utilization · (1 + drift)` at its end.  History — and hence the
  /// static plan — never sees the ramp.  MMPP traces only (the CAIDA
  /// generator ignores it).  0 disables.
  double drift = 0.0;

  /// Substrate dynamics (docs/failures.md): when `failures.enabled()`, a
  /// per-repetition failure/recovery trace is drawn over the test period
  /// and run_algorithm applies it (SlotOff folds the shrunk capacities into
  /// its per-slot masters instead of migrating).
  workload::FailureConfig failures;
  /// Repair policy for failure-hit embeddings: batched joint re-assignment
  /// (default), per-request staged migration, or drop-only (every hit is an
  /// SLA violation).
  RepairPolicy failure_repair = RepairPolicy::Batched;
};

/// One fully materialized repetition.
struct Scenario {
  ScenarioConfig config;
  net::SubstrateNetwork substrate;
  std::vector<net::Application> apps;
  workload::Trace history;  ///< R_HIST (possibly mismatched, per the knobs)
  workload::Trace online;   ///< the test period trace
  workload::FailureTrace failure_trace;  ///< empty unless failures enabled
  std::vector<AggregateRequest> aggregates;
  Plan plan;
  PlanSolveInfo plan_info;
};

/// Builds repetition `rep` of the configured scenario (different rep ->
/// different applications/trace draws, as in the paper's 30 executions).
Scenario build_scenario(const ScenarioConfig& config, int rep = 0);

/// Runs one algorithm on a built scenario by name: "OLIVE" (plus the
/// "OLIVE-NoBorrow"/"OLIVE-NoPreempt"/"OLIVE-PlanOnly" ablation variants),
/// "QuickG", "FullG" or "SlotOff" — the name table in engine/algorithms.cpp,
/// where this is defined.  Throws InvalidArgument for any other name.
/// Construct the embedder and an engine::Engine directly for observer hooks
/// or mid-run re-planning.
SimMetrics run_algorithm(const Scenario& scenario, const std::string& algorithm);

}  // namespace olive::core
