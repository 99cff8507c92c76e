// Drifting-utilization study — the mid-run re-planning experiment family
// (extends the Fig. 13/14 robustness studies; not a paper figure).
//
// The online demand ramps linearly from the calibrated utilization to
// (1 + drift)x across the test period while the plan is built from the
// undrifted history, so the static plan goes progressively stale.  OLIVE
// runs three ways on Iris and CittaStudi (--topology filters): with the
// static plan, with the engine's asynchronous ReplanPolicy re-solving the
// trailing demand window at fixed boundaries (install slots deterministic,
// PLAN-VNE warm-started across re-plans; docs/replanning.md), and as
// plan-less QUICKG for reference.
//
// Expected shape: at drift 0 re-planning only pays swap churn (the two
// OLIVE rows tie within noise); as drift grows the static plan's guarantees
// under-cover the demand and the re-planned OLIVE rejects measurably less.
//
// Note on timing: repetitions run on the shared pool, and a re-plan solve
// submitted from a pool worker executes inline at the launch slot (the
// ThreadPool nesting guard), so this harness measures the re-planning
// *outcome*, not the async overlap — results are bit-identical either way
// (the install slot is policy-fixed); pin OLIVE_THREADS=1 and use
// perf_smoke's replan_window case when wall-clock matters.
#include "bench/common.hpp"
#include "core/olive.hpp"
#include "engine/engine.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace olive;
  const auto& cli = bench::parse_cli(argc, argv);
  const auto scale = cli.scale;
  bench::print_header(
      "Replan drift study: OLIVE static vs periodic async re-plan", scale);

  // Three re-plans per test period at either scale.
  const int period = (scale.horizon - scale.plan_slots) / 3;

  Table table({"topology", "drift_pct", "algorithm", "rejection_rate_pct",
               "total_cost", "replans", "replan_warm_hits"});
  std::cout << "topology,drift_pct,algorithm,rejection_rate_pct,total_cost,"
               "replans,replan_warm_hits\n";

  for (const std::string topo : {"Iris", "CittaStudi"}) {
    if (!bench::topology_selected(topo)) continue;
    for (const double drift : {0.0, 0.75, 1.5}) {
      auto cfg = bench::base_config(scale, topo, 1.0);
      cfg.drift = drift;
      for (const std::string algo : {"OLIVE", "OLIVE-Replan", "QuickG"}) {
        if (!bench::algo_selected(algo)) continue;
        struct Row {
          double rejection = 0, cost = 0;
          long replans = 0, warm = 0;
        };
        const auto rows = bench::map_repetitions(
            cfg, scale.reps, [&](const core::Scenario& sc, int rep) -> Row {
              if (algo != "OLIVE-Replan") {
                const auto m = core::run_algorithm(sc, algo);
                return {m.rejection_rate(), m.total_cost(), 0, 0};
              }
              engine::EngineConfig ecfg;
              ecfg.sim = sc.config.sim;
              ecfg.replan.period = period;
              ecfg.replan.plan = sc.config.plan;
              ecfg.replan.plan.max_rounds = 8;
              // Per-rep bootstrap stream, like every other harness stream
              // (identical seeds would correlate the rows the CI is over).
              ecfg.replan.seed =
                  Rng(sc.config.seed)
                      .fork(stable_hash("replan-bootstrap"))
                      .fork(static_cast<std::uint64_t>(rep) + 1)();
              engine::Engine eng(sc.substrate, sc.apps, ecfg);
              core::OliveEmbedder oe(sc.substrate, sc.apps, sc.plan, algo);
              const auto m = eng.run(oe, sc.online);
              return {m.rejection_rate(), m.total_cost(), m.replans,
                      m.plan_warm_start_hits};
            });
        std::vector<double> rej, cost;
        long replans = 0, warm = 0;
        for (const Row& r : rows) {
          rej.push_back(r.rejection);
          cost.push_back(r.cost);
          replans += r.replans;
          warm += r.warm;
        }
        bench::stream_row(table,
                          {topo, Table::num(100 * drift, 0), algo,
                           bench::pct(stats::mean_ci(rej)),
                           bench::with_ci(stats::mean_ci(cost)),
                           std::to_string(replans), std::to_string(warm)});
      }
    }
  }
  std::cout << "\n";
  table.print(std::cout);
  bench::write_json("replan_drift", {&table});
  return 0;
}
