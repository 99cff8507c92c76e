// Quickstart: the whole OLIVE pipeline in ~80 lines.
//
//  1. Build a small substrate network (or use a bundled topology).
//  2. Define an application (a chain of VNFs rooted at the user node θ).
//  3. Generate a request history and aggregate it per (app, ingress).
//  4. Solve PLAN-VNE to get a globally optimized embedding plan.
//  5. Run OLIVE over live requests on the engine and inspect the outcome.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/aggregation.hpp"
#include "core/olive.hpp"
#include "core/plan_solver.hpp"
#include "engine/engine.hpp"
#include "topo/topologies.hpp"
#include "workload/appgen.hpp"
#include "workload/tracegen.hpp"

int main() {
  using namespace olive;

  // 1. Substrate: the paper's Citta Studi edge topology (30 nodes).
  Rng rng(2025);
  auto topo_rng = rng.fork(1);
  const net::SubstrateNetwork substrate = topo::citta_studi(topo_rng);
  std::cout << "substrate: " << substrate.num_nodes() << " nodes, "
            << substrate.num_links() << " links\n";

  // 2. One application: user -> firewall -> transcoder -> cache.
  std::vector<net::Application> apps;
  apps.push_back({"video-chain",
                  net::VirtualNetwork::chain(/*VNF sizes*/ {40, 80, 60},
                                             /*link sizes*/ {30, 30, 10})});

  // 3. History: an MMPP trace; the first 800 slots form R_HIST.
  workload::TraceConfig tcfg;
  tcfg.horizon = 1000;
  tcfg.plan_slots = 800;
  tcfg.lambda_per_node = 3.0;
  workload::TraceGenerator gen(substrate, apps, tcfg);
  auto trace_rng = rng.fork(2);
  const workload::Trace trace = gen.generate(trace_rng);
  const auto [history, online] = gen.split_history(trace);
  std::cout << "history: " << history.size() << " requests, online: "
            << online.size() << " requests\n";

  // 4. Aggregate per class and solve PLAN-VNE (P̂80 of per-slot demand).
  auto agg_rng = rng.fork(3);
  core::AggregationConfig acfg;
  acfg.horizon = tcfg.plan_slots;
  const auto aggregates =
      core::aggregate_history(history, static_cast<int>(apps.size()),
                              substrate.num_nodes(), acfg, agg_rng);
  core::PlanSolveInfo info;
  const core::Plan plan =
      core::solve_plan_vne(substrate, apps, aggregates, {}, &info);
  std::cout << "plan: " << plan.num_classes() << " classes, LP objective "
            << info.objective << " (" << info.rounds
            << " column-generation rounds)\n";

  // 5. Run OLIVE on the online portion and report.  The engine owns the
  // slot loop (releases -> arrivals -> metrics); swap in any other
  // OnlineEmbedder, add observers, or configure `EngineConfig::replan` for
  // mid-run re-planning.
  core::OliveEmbedder olive(substrate, apps, plan);
  engine::EngineConfig ecfg;
  ecfg.sim.measure_from = 0;
  ecfg.sim.measure_to = 200;
  engine::Engine eng(substrate, apps, ecfg);
  const core::SimMetrics m = eng.run(olive, online);
  std::cout << "OLIVE: offered " << m.offered << ", accepted " << m.accepted
            << ", rejected " << m.rejected << " (rate "
            << 100 * m.rejection_rate() << "%), resource cost "
            << m.resource_cost << "\n";
  return 0;
}
