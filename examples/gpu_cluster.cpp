// GPU cluster scenario (the paper's Fig. 10 setting as an API example):
// chains with one GPU VNF that must be placed on dedicated GPU datacenters,
// expressed through the η (in)efficiency mechanism.
//
// Shows why the collocation-restricted greedy cannot serve such requests
// (a GPU and a non-GPU VNF can never share a node) while OLIVE's plan
// columns split the chain across GPU and non-GPU datacenters.
//
// Build & run:  ./build/examples/gpu_cluster
#include <iostream>

#include "core/embedder.hpp"
#include "core/scenario.hpp"

int main() {
  using namespace olive;

  core::ScenarioConfig cfg;
  cfg.topology = "Iris";
  cfg.utilization = 1.0;
  cfg.gpu_variant = true;            // half the cores + 4 edge DCs get GPUs
  cfg.mix = workload::gpu_mix();     // four chains, each with one GPU VNF
  cfg.seed = 7;
  cfg.trace.horizon = 900;
  cfg.trace.plan_slots = 750;
  cfg.trace.lambda_per_node = 3.0;
  cfg.sim.measure_from = 10;
  cfg.sim.measure_to = 140;

  const core::Scenario sc = core::build_scenario(cfg);

  int gpu_nodes = 0;
  for (net::NodeId v = 0; v < sc.substrate.num_nodes(); ++v)
    gpu_nodes += sc.substrate.node(v).gpu;
  std::cout << "substrate: " << sc.substrate.num_nodes() << " nodes ("
            << gpu_nodes << " GPU datacenters)\n";

  // Demonstrate the collocation problem directly on the API.
  core::LoadTracker load(sc.substrate);
  const auto& gpu_chain = sc.apps[0].topology;
  const auto greedy = core::greedy_collocated_embedding(
      sc.substrate, gpu_chain, /*ingress=*/0, /*demand=*/5.0, load);
  std::cout << "collocated greedy on a GPU chain: "
            << (greedy ? "embedded (unexpected!)" : "infeasible, as expected")
            << "  -> QUICKG cannot run this scenario\n\n";

  for (const std::string algo : {"OLIVE", "SlotOff", "FullG"}) {
    const auto m = core::run_algorithm(sc, algo);
    std::cout << algo << ": rejection rate " << 100 * m.rejection_rate()
              << "%, total cost " << m.total_cost() << "\n";
  }
  std::cout << "\nOLIVE's plan columns split each chain across GPU and "
               "non-GPU datacenters while respecting the eta placement "
               "constraints.\n";
  return 0;
}
