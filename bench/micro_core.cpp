// Micro-benchmarks of the core primitives (google-benchmark): the tree-DP
// pricing oracle, GREEDYEMBED's one-Dijkstra search, per-request OLIVE
// embedding, and full PLAN-VNE solves per topology — the numbers behind the
// paper's "1000 requests per second" scalability claim (§IV-B Runtime).
#include <benchmark/benchmark.h>

#include "core/embedder.hpp"
#include "core/olive.hpp"
#include "core/plan_solver.hpp"
#include "core/scenario.hpp"

namespace {

using namespace olive;

core::Scenario make_scenario(const std::string& topo) {
  core::ScenarioConfig cfg;
  cfg.topology = topo;
  cfg.utilization = 1.0;
  cfg.seed = 99;
  cfg.trace.horizon = 600;
  cfg.trace.plan_slots = 500;
  return core::build_scenario(cfg, 0);
}

void BM_TreeDpEmbedding(benchmark::State& state) {
  const auto sc = make_scenario("Iris");
  const auto costs = core::EffectiveCosts::plain(sc.substrate);
  const net::LazyShortestPaths paths(sc.substrate, costs.link_weight);
  for (auto _ : state) {
    const auto emb =
        core::MinCostTreeDP(sc.substrate, sc.apps[0].topology, costs, paths)
            .embed(10);
    benchmark::DoNotOptimize(emb);
  }
}
BENCHMARK(BM_TreeDpEmbedding);

void BM_GreedyCollocatedEmbedding(benchmark::State& state) {
  const auto sc = make_scenario("Iris");
  core::LoadTracker load(sc.substrate);
  for (auto _ : state) {
    const auto emb = core::greedy_collocated_embedding(
        sc.substrate, sc.apps[0].topology, 10, 5.0, load);
    benchmark::DoNotOptimize(emb);
  }
}
BENCHMARK(BM_GreedyCollocatedEmbedding);

void BM_OlivePerRequest(benchmark::State& state) {
  const auto sc = make_scenario("Iris");
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan);
  std::size_t i = 0;
  algo.reset();
  for (auto _ : state) {
    if (i >= sc.online.size()) {
      state.PauseTiming();
      algo.reset();
      i = 0;
      state.ResumeTiming();
    }
    const auto out = algo.embed(sc.online[i++]);
    benchmark::DoNotOptimize(out.kind);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OlivePerRequest);

void BM_PlanVneSolve(benchmark::State& state) {
  const char* names[] = {"Iris", "CittaStudi", "5GEN", "100N150E"};
  const auto sc = make_scenario(names[state.range(0)]);
  for (auto _ : state) {
    const auto plan = core::solve_plan_vne(sc.substrate, sc.apps,
                                           sc.aggregates, sc.config.plan);
    benchmark::DoNotOptimize(plan.num_classes());
  }
  state.SetLabel(names[state.range(0)]);
}
BENCHMARK(BM_PlanVneSolve)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace
