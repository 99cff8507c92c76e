#include "core/scenario.hpp"

#include <cstdlib>

#include "util/error.hpp"

namespace olive::core {

namespace {

net::SubstrateNetwork build_topology(const std::string& name, Rng& rng) {
  if (name == "Iris") return topo::iris(rng);
  if (name == "CittaStudi") return topo::citta_studi(rng);
  if (name == "5GEN") return topo::fivegen(rng);
  if (name == "100N150E") return topo::erdos_renyi(rng);
  // Synthetic scale family: "FatTree<k>" (k even), e.g. FatTree4, FatTree8,
  // and the scale_xl tier's FatTree16 / FatTree32.
  if (name.rfind("FatTree", 0) == 0) {
    const int k = std::atoi(name.c_str() + 7);
    OLIVE_REQUIRE(k >= 2, "FatTree topology needs an arity, e.g. FatTree8");
    return topo::fat_tree(rng, k);
  }
  // ISP-scale scale_xl scenario shaped like the CAIDA source model.
  if (name == "CaidaIsp") return topo::caida_isp(rng);
  throw InvalidArgument("unknown topology: " + name);
}

workload::Trace generate_trace(const Scenario& sc,
                               const workload::TraceConfig& cfg, Rng rng) {
  if (sc.config.use_caida) {
    return workload::generate_caida_trace(sc.substrate, sc.apps, cfg,
                                          sc.config.caida, rng);
  }
  workload::TraceGenerator gen(sc.substrate, sc.apps, cfg);
  return gen.generate(rng);
}

}  // namespace

Scenario build_scenario(const ScenarioConfig& config, int rep) {
  Scenario sc;
  sc.config = config;
  Rng root(config.seed);
  Rng rep_rng = root.fork(static_cast<std::uint64_t>(rep) + 1);

  Rng topo_rng = rep_rng.fork(stable_hash("topology"));
  sc.substrate = build_topology(config.topology, topo_rng);
  if (config.gpu_variant) {
    Rng gpu_rng = rep_rng.fork(stable_hash("gpu"));
    sc.substrate = topo::make_gpu_variant(sc.substrate, gpu_rng);
  }

  // Application set drawn fresh per repetition (§IV-A Methodology).
  Rng app_rng = rep_rng.fork(stable_hash("apps"));
  const auto mix =
      config.mix.empty() ? workload::default_mix() : config.mix;
  sc.apps = workload::sample_application_set(mix, {}, app_rng);

  // Calibrate the mean demand to the target edge utilization; the paper
  // keeps the demand's coefficient of variation at 0.4 (N(10,4)).
  workload::TraceConfig tcfg = config.trace;
  tcfg.demand_mean = workload::utilization_to_demand_mean(
      sc.substrate, sc.apps, tcfg, config.utilization);
  tcfg.demand_std = 0.4 * tcfg.demand_mean;
  tcfg.drift = config.drift;

  Rng trace_rng = rep_rng.fork(stable_hash("trace"));
  const workload::Trace full = generate_trace(sc, tcfg, trace_rng);
  workload::Trace history;
  for (const auto& r : full)
    (r.arrival < tcfg.plan_slots ? history : sc.online).push_back(r);

  // Fig. 13: the plan may be built for a different expected utilization —
  // regenerate the history portion at that demand level (same seed, so the
  // arrival pattern matches and only the demand scale differs).
  if (config.plan_utilization > 0 &&
      config.plan_utilization != config.utilization) {
    workload::TraceConfig pcfg = tcfg;
    pcfg.demand_mean = workload::utilization_to_demand_mean(
        sc.substrate, sc.apps, pcfg, config.plan_utilization);
    pcfg.demand_std = 0.4 * pcfg.demand_mean;
    Rng plan_trace_rng = rep_rng.fork(stable_hash("trace"));
    const workload::Trace plan_full = generate_trace(sc, pcfg, plan_trace_rng);
    history.clear();
    for (const auto& r : plan_full)
      if (r.arrival < pcfg.plan_slots) history.push_back(r);
  }

  // Fig. 14: spatially shuffle the plan's input demand.
  if (config.shuffle_plan_ingress) {
    Rng shuffle_rng = rep_rng.fork(stable_hash("shuffle"));
    const auto edges = sc.substrate.nodes_in_tier(net::Tier::Edge);
    for (auto& r : history)
      r.ingress = edges[shuffle_rng.below(edges.size())];
  }
  sc.history = std::move(history);

  // Substrate dynamics: one deterministic failure stream per repetition,
  // over the test-period slots (slot 0 = start of the online period).
  if (config.failures.enabled()) {
    Rng fail_rng = rep_rng.fork(stable_hash("failures"));
    sc.failure_trace = workload::generate_failure_trace(
        sc.substrate, config.failures, tcfg.horizon - tcfg.plan_slots,
        fail_rng);
  }

  Rng agg_rng = rep_rng.fork(stable_hash("aggregation"));
  AggregationConfig acfg = config.aggregation;
  acfg.horizon = tcfg.plan_slots;
  sc.aggregates = aggregate_history(sc.history, static_cast<int>(sc.apps.size()),
                                    sc.substrate.num_nodes(), acfg, agg_rng);
  sc.plan = solve_plan_vne(sc.substrate, sc.apps, sc.aggregates, config.plan,
                           &sc.plan_info);
  return sc;
}

}  // namespace olive::core
