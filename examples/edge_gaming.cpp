// Edge gaming scenario: the workload the paper's introduction motivates —
// latency-sensitive gaming/AR sessions arriving unpredictably at edge
// datacenters.
//
// Compares OLIVE against QUICKG on the Iris ISP topology under an
// overloaded evening peak (140% edge utilization) and shows where the
// plan's guaranteed shares and compensation mechanisms (borrow/preempt)
// make the difference.
//
// Build & run:  ./build/examples/edge_gaming
#include <iostream>

#include "core/scenario.hpp"

int main() {
  using namespace olive;

  core::ScenarioConfig cfg;
  cfg.topology = "Iris";
  cfg.utilization = 1.4;  // evening peak: demand exceeds edge capacity
  cfg.seed = 42;
  cfg.trace.horizon = 1200;
  cfg.trace.plan_slots = 1000;
  cfg.sim.measure_from = 20;
  cfg.sim.measure_to = 180;
  cfg.sim.record_requests = true;

  std::cout << "building scenario (topology, apps, trace, plan)...\n";
  const core::Scenario sc = core::build_scenario(cfg);
  std::cout << "  " << sc.online.size() << " live session requests, "
            << sc.plan.num_classes() << " planned classes\n\n";

  // Algorithms are resolved by name; each run gets a fresh engine over the
  // scenario's online trace.
  for (const std::string algo : {"OLIVE", "QuickG"}) {
    const auto m = core::run_algorithm(sc, algo);
    long planned = 0, borrowed = 0, greedy = 0;
    for (const auto& rec : m.records) {
      switch (rec.kind) {
        case core::OutcomeKind::Planned: ++planned; break;
        case core::OutcomeKind::Borrowed: ++borrowed; break;
        case core::OutcomeKind::Greedy: ++greedy; break;
        case core::OutcomeKind::Rejected: break;
      }
    }
    std::cout << algo << ":\n"
              << "  sessions offered   " << m.offered << "\n"
              << "  rejection rate     " << 100 * m.rejection_rate() << "%\n"
              << "  preempted          " << m.preempted << "\n"
              << "  total cost         " << m.total_cost() << "\n"
              << "  embeddings: planned " << planned << ", borrowed "
              << borrowed << ", greedy " << greedy << "\n\n";
  }
  std::cout << "OLIVE keeps far more gaming sessions alive at identical "
               "peak demand by following the offline plan and borrowing "
               "unused guaranteed capacity.\n";
  return 0;
}
