// The algorithm name table: the paper's four evaluation algorithms (§IV-A)
// plus OLIVE's ablation variants, and core::run_algorithm, the one by-name
// entry point.  A new baseline is one more name in kAlgorithms and one
// more branch in make_embedder.
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>

#include "core/fullg.hpp"
#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "engine/engine.hpp"
#include "util/error.hpp"

namespace olive::core {

namespace {

constexpr const char* kAlgorithms[] = {
    "OLIVE",  "OLIVE-NoBorrow", "OLIVE-NoPreempt", "OLIVE-PlanOnly",
    "QuickG", "FullG",          "SlotOff"};

/// The per-request embedder behind every name but SlotOff.
std::unique_ptr<OnlineEmbedder> make_embedder(const Scenario& sc,
                                              const std::string& name) {
  // QUICKG is OLIVE with the empty plan, exactly as the paper defines it.
  if (name == "QuickG")
    return std::make_unique<OliveEmbedder>(sc.substrate, sc.apps,
                                           Plan::empty(), name);
  if (name == "FullG")
    return std::make_unique<FullGreedyEmbedder>(sc.substrate, sc.apps);
  // Ablation variants: OLIVE with individual §III-C mechanisms disabled.
  OliveOptions opts;
  const bool plan_only = name == "OLIVE-PlanOnly";
  opts.enable_borrow = !plan_only && name != "OLIVE-NoBorrow";
  opts.enable_preempt = !plan_only && name != "OLIVE-NoPreempt";
  opts.enable_greedy = !plan_only;
  return std::make_unique<OliveEmbedder>(sc.substrate, sc.apps, sc.plan, name,
                                         opts);
}

}  // namespace

SimMetrics run_algorithm(const Scenario& sc, const std::string& algorithm) {
  if (std::find(std::begin(kAlgorithms), std::end(kAlgorithms), algorithm) ==
      std::end(kAlgorithms)) {
    std::string known;
    for (const char* name : kAlgorithms)
      known += (known.empty() ? "" : ", ") + std::string(name);
    throw InvalidArgument("unknown algorithm: " + algorithm + " (known: " +
                          known + ")");
  }

  engine::EngineConfig ecfg{sc.config.sim, {}, {}};
  ecfg.failures.trace = sc.failure_trace;
  ecfg.failures.repair = sc.config.failure_repair;
  engine::Engine eng(sc.substrate, sc.apps, std::move(ecfg));
  if (algorithm == "SlotOff") {
    // The per-slot OFF-VNE instances start from the warm column cache, so a
    // handful of pricing rounds per slot recovers near-optimality.
    PlanVneConfig plan = sc.config.plan;
    plan.max_rounds = std::min(plan.max_rounds, 8);
    return eng.run_slotoff(sc.online, plan);
  }
  const auto algo = make_embedder(sc, algorithm);
  return eng.run(*algo, sc.online);
}

}  // namespace olive::core
