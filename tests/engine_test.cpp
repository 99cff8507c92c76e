// The engine's contracts: core::run_algorithm resolves every built-in by
// name and refuses unknown ones, observers see every slot and outcome without
// perturbing the run, and on the drifting-utilization scenario the
// asynchronous ReplanPolicy beats the static plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "engine/replan.hpp"
#include "util/error.hpp"

namespace olive::engine {
namespace {

core::ScenarioConfig small_config(std::uint64_t seed = 7) {
  core::ScenarioConfig cfg;
  cfg.topology = "Iris";
  cfg.utilization = 1.0;
  cfg.seed = seed;
  cfg.trace.horizon = 400;
  cfg.trace.plan_slots = 300;
  cfg.sim.measure_from = 10;
  cfg.sim.measure_to = 60;
  return cfg;
}

/// Bitwise equality over every deterministic SimMetrics field (wall-clock
/// fields are excluded: algo_seconds/replan_seconds measure elapsed time).
void expect_metrics_identical(const core::SimMetrics& a,
                              const core::SimMetrics& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.preempted, b.preempted);
  EXPECT_EQ(a.offered_demand, b.offered_demand);
  EXPECT_EQ(a.rejected_demand, b.rejected_demand);
  EXPECT_EQ(a.resource_cost, b.resource_cost);
  EXPECT_EQ(a.rejection_cost, b.rejection_cost);
  EXPECT_EQ(a.offered_series, b.offered_series);
  EXPECT_EQ(a.allocated_series, b.allocated_series);
  EXPECT_EQ(a.rejected_by_node_app, b.rejected_by_node_app);
  EXPECT_EQ(a.requests_by_node, b.requests_by_node);
  EXPECT_EQ(a.plan_solves, b.plan_solves);
  EXPECT_EQ(a.plan_simplex_iterations, b.plan_simplex_iterations);
  EXPECT_EQ(a.plan_rounds, b.plan_rounds);
  EXPECT_EQ(a.plan_columns_generated, b.plan_columns_generated);
  EXPECT_EQ(a.plan_objective_sum, b.plan_objective_sum);
  EXPECT_EQ(a.plan_warm_start_hits, b.plan_warm_start_hits);
  EXPECT_EQ(a.plan_refactorizations, b.plan_refactorizations);
  EXPECT_EQ(a.plan_eta_length_max, b.plan_eta_length_max);
  EXPECT_EQ(a.replans, b.replans);
}

TEST(RunAlgorithm, ResolvesEveryBuiltinAndRejectsUnknownNames) {
  // Ten online slots at a low arrival rate: FullG's per-request exact
  // embedding is slow, and this test only checks dispatch.
  core::ScenarioConfig cfg = small_config();
  cfg.trace.horizon = 310;
  cfg.trace.lambda_per_node = 1.0;
  cfg.sim.measure_from = 0;
  cfg.sim.measure_to = 10;
  const core::Scenario sc = core::build_scenario(cfg);
  const std::vector<std::string> builtins = {
      "OLIVE",  "OLIVE-NoBorrow", "OLIVE-NoPreempt", "OLIVE-PlanOnly",
      "QuickG", "FullG",          "SlotOff"};
  for (const std::string& name : builtins) {
    const core::SimMetrics m = core::run_algorithm(sc, name);
    EXPECT_EQ(m.algorithm, name);
    EXPECT_GT(m.offered, 0) << name;
  }
  try {
    core::run_algorithm(sc, "nope");
    FAIL() << "expected InvalidArgument for an unknown name";
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("nope"), std::string::npos) << message;
    for (const std::string& name : builtins)
      EXPECT_NE(message.find(name), std::string::npos) << message;
  }
}

TEST(RunAlgorithm, MatchesDirectEngineUse) {
  const core::Scenario sc = core::build_scenario(small_config());
  const core::SimMetrics by_name = core::run_algorithm(sc, "OLIVE");
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  Engine engine(sc.substrate, sc.apps, EngineConfig{sc.config.sim, {}, {}});
  const core::SimMetrics direct = engine.run(algo, sc.online);
  expect_metrics_identical(by_name, direct);
}

struct CountingObserver final : Observer {
  int slots = 0;
  int outcomes = 0;
  int accepted = 0;
  std::vector<ReplanEvent> replans;

  void on_slot_begin(int) override { ++slots; }
  void on_outcome(const workload::Request&, const core::EmbedOutcome& out,
                  int) override {
    ++outcomes;
    if (out.accepted()) ++accepted;
  }
  void on_replan(const ReplanEvent& event) override {
    replans.push_back(event);
  }
};

TEST(EngineObserver, SeesEverySlotAndOutcomeWithoutPerturbingTheRun) {
  const core::Scenario sc = core::build_scenario(small_config());

  core::OliveEmbedder plain(sc.substrate, sc.apps, sc.plan, "OLIVE");
  Engine plain_engine(sc.substrate, sc.apps,
                      EngineConfig{sc.config.sim, {}, {}});
  const core::SimMetrics reference = plain_engine.run(plain, sc.online);

  core::OliveEmbedder observed(sc.substrate, sc.apps, sc.plan, "OLIVE");
  Engine engine(sc.substrate, sc.apps, EngineConfig{sc.config.sim, {}, {}});
  CountingObserver counter;
  engine.add_observer(&counter);
  const core::SimMetrics metrics = engine.run(observed, sc.online);

  expect_metrics_identical(reference, metrics);
  EXPECT_EQ(counter.slots,
            static_cast<int>(metrics.offered_series.size()));
  const int base = sc.online.front().arrival;
  int processed = 0;
  for (const auto& r : sc.online)
    if (r.arrival - base < counter.slots) ++processed;
  EXPECT_EQ(counter.outcomes, processed);
  EXPECT_GT(counter.accepted, 0);
  EXPECT_TRUE(counter.replans.empty());  // policy off
}

/// The drifting-utilization scenario (acceptance criterion): online demand
/// ramps to 2.5x the plan's expectation, so the static plan goes stale and
/// periodic re-planning must lower OLIVE's total cost.
core::ScenarioConfig drifting_config() {
  core::ScenarioConfig cfg;
  cfg.topology = "Iris";
  cfg.utilization = 1.0;
  cfg.drift = 1.5;
  cfg.seed = 7;
  cfg.trace.horizon = 700;
  cfg.trace.plan_slots = 400;
  cfg.sim.measure_from = 20;
  cfg.sim.measure_to = 280;
  cfg.sim.drain_slots = 20;
  return cfg;
}

ReplanConfig drifting_replan(const core::ScenarioConfig& cfg) {
  ReplanConfig replan;
  replan.period = 100;
  replan.plan = cfg.plan;
  replan.plan.max_rounds = 8;
  replan.seed = cfg.seed;
  return replan;
}

TEST(EngineReplan, BeatsTheStaticPlanUnderDriftingUtilization) {
  const core::ScenarioConfig cfg = drifting_config();
  const core::Scenario sc = core::build_scenario(cfg);
  const core::SimMetrics static_plan = core::run_algorithm(sc, "OLIVE");

  EngineConfig ecfg{cfg.sim, drifting_replan(cfg), {}};
  Engine engine(sc.substrate, sc.apps, ecfg);
  CountingObserver counter;
  engine.add_observer(&counter);
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  const core::SimMetrics replanned = engine.run(algo, sc.online);

  // Two launches (slots 100, 200) inside the 300-slot test period, both
  // installed one slot later; the second re-plan starts from the first's
  // carried basis.
  EXPECT_EQ(replanned.replans, 2);
  EXPECT_EQ(replanned.plan_solves, 2);
  EXPECT_EQ(replanned.plan_warm_start_hits, 1);
  ASSERT_EQ(counter.replans.size(), 2u);
  for (const ReplanEvent& ev : counter.replans) {
    EXPECT_TRUE(ev.installed);
    EXPECT_EQ(ev.install_slot, ev.launch_slot + 1);
    EXPECT_GT(ev.classes, 0);
  }
  EXPECT_EQ(counter.replans[0].launch_slot, 100);
  EXPECT_EQ(counter.replans[1].launch_slot, 200);

  // The payoff: fresher guarantees shed rejections faster than the swap
  // churn adds preemptions.
  EXPECT_LT(replanned.total_cost(), static_plan.total_cost());
  EXPECT_LT(replanned.rejection_rate(), static_plan.rejection_rate());
}

/// An embedder with no notion of a plan: install_plan keeps the default
/// refusal, so the engine must disable re-planning after the first swap
/// attempt instead of solving windows nobody consumes.
struct PlanlessEmbedder final : core::OnlineEmbedder {
  core::LoadTracker load_;
  explicit PlanlessEmbedder(const net::SubstrateNetwork& s) : load_(s) {}
  std::string name() const override { return "planless"; }
  void reset() override {}
  core::EmbedOutcome embed(const workload::Request&) override { return {}; }
  void depart(const workload::Request&) override {}
  const core::LoadTracker& load() const override { return load_; }
};

TEST(EngineReplan, PlanlessEmbedderDisablesThePolicyAfterOneRefusal) {
  const core::ScenarioConfig cfg = small_config();
  const core::Scenario sc = core::build_scenario(cfg);

  EngineConfig ecfg{cfg.sim, {}, {}};
  ecfg.replan.period = 10;
  ecfg.replan.plan = cfg.plan;
  ecfg.replan.plan.max_rounds = 4;
  Engine engine(sc.substrate, sc.apps, ecfg);
  CountingObserver counter;
  engine.add_observer(&counter);
  PlanlessEmbedder algo(sc.substrate);
  const core::SimMetrics metrics = engine.run(algo, sc.online);

  EXPECT_EQ(metrics.replans, 0);
  EXPECT_EQ(metrics.plan_solves, 0);
  ASSERT_EQ(counter.replans.size(), 1u);  // one refused swap, then silence
  EXPECT_FALSE(counter.replans[0].installed);
  EXPECT_EQ(metrics.accepted, 0);  // it rejects everything
}

// ----------------------------------------------- clip_window boundaries
//
// The demand-window clip every re-plan aggregates over.  Both boundary
// rules were audited in PR 10 and are pinned here exactly:
//  * a request with arrival + duration == from departed at the instant the
//    window opens and contributes nothing — it must be excluded;
//  * an arrival before `from` that is still active inside the window is
//    kept, re-based to arrival 0, with its duration clipped to the part
//    overlapping [from, slot).

workload::Request make_req(workload::RequestId id, int arrival, int duration) {
  workload::Request r;
  r.id = id;
  r.arrival = arrival;
  r.duration = duration;
  r.ingress = 0;
  r.app = 0;
  r.demand = 1.0;
  return r;
}

TEST(ClipWindow, DepartureExactlyAtWindowStartIsExcluded) {
  workload::Trace trace;
  trace.push_back(make_req(1, 0, 10));  // departure == 10 == from: excluded
  trace.push_back(make_req(2, 0, 11));  // departure 11 > from: one slot left
  const workload::Trace clipped = clip_window(trace, /*base=*/0,
                                              /*from=*/10, /*slot=*/20);
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped[0].id, 2);
  EXPECT_EQ(clipped[0].arrival, 0);   // re-based to window coordinates
  EXPECT_EQ(clipped[0].duration, 1);  // only the overlap survives
}

TEST(ClipWindow, PreWindowArrivalIsClippedToTheOverlap) {
  workload::Trace trace;
  trace.push_back(make_req(1, 5, 100));  // spans the whole window and past it
  trace.push_back(make_req(2, 12, 3));   // fully inside
  trace.push_back(make_req(3, 20, 5));   // arrival == slot: not yet visible
  const workload::Trace clipped = clip_window(trace, /*base=*/0,
                                              /*from=*/10, /*slot=*/20);
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_EQ(clipped[0].id, 1);
  EXPECT_EQ(clipped[0].arrival, 0);    // 5 < from: re-based to the start
  EXPECT_EQ(clipped[0].duration, 10);  // clipped to [from, slot)
  EXPECT_EQ(clipped[1].id, 2);
  EXPECT_EQ(clipped[1].arrival, 2);
  EXPECT_EQ(clipped[1].duration, 3);
}

TEST(ClipWindow, RespectsTraceBaseAnd64BitSlots) {
  workload::Trace trace;
  trace.push_back(make_req(1, 1000, 4));  // slot 0 once re-based
  trace.push_back(make_req(2, 1015, 4));
  const workload::Trace clipped = clip_window(trace, /*base=*/1000,
                                              /*from=*/14, /*slot=*/18);
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped[0].id, 2);
  EXPECT_EQ(clipped[0].arrival, 1);
  EXPECT_EQ(clipped[0].duration, 3);  // departure 19 clips at slot 18
}

// -------------------------------------------- the removed portfolio width

TEST(EngineReplan, RefusesAPortfolioWidthBeforeTheFirstSlot) {
  // Portfolio re-planning is gone; a config still asking for K > 1
  // candidates is an error with a diagnostic, raised when the run is set
  // up — never a silent fallback to one solve, never a mid-run throw.
  const core::ScenarioConfig cfg = small_config();
  const core::Scenario sc = core::build_scenario(cfg);
  EngineConfig ecfg{cfg.sim, {}, {}};
  ecfg.replan.period = 10;
  ecfg.replan.candidates = 2;
  Engine engine(sc.substrate, sc.apps, ecfg);
  CountingObserver counter;
  engine.add_observer(&counter);
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  try {
    engine.run(algo, sc.online);
    ADD_FAILURE() << "candidates = 2 was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("portfolio re-planning was removed"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(counter.slots, 0);
}

// ------------------------------------------------ the re-plan demand feed

void expect_windows_identical(const workload::Trace& a,
                              const workload::Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "request " << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << "request " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "request " << i;
    EXPECT_EQ(a[i].demand, b[i].demand) << "request " << i;
  }
}

TEST(ReplanFeed, PrunedFeedClipsLikeTheFullTraceAtEveryLaunch) {
  // The policy keeps its own demand feed and prunes it at each launch; the
  // launch's window must still clip exactly like the full trace, long-lived
  // requests that arrived before the window included.
  const core::ScenarioConfig cfg = small_config();
  const core::Scenario sc = core::build_scenario(cfg);
  ReplanConfig rcfg;
  rcfg.period = 10;
  rcfg.install_delay = 1;
  rcfg.plan = cfg.plan;
  rcfg.plan.max_rounds = 2;
  ReplanPolicy policy(sc.substrate, sc.apps, rcfg);

  const workload::Trace& trace = sc.online;
  const int base = trace.front().arrival;
  const std::int64_t n_slots = trace.back().arrival - base + 1;
  int launches = 0;
  long long long_lived = 0;
  std::size_t next = 0;
  for (std::int64_t t = 0; t < n_slots && launches < 5; ++t) {
    if (policy.pending_install_slot() == t) policy.collect();
    if (policy.wants_launch(t)) {
      policy.launch(t, {});
      ++launches;
      // The launch's own window: [t - period, t).
      const std::int64_t from = std::max<std::int64_t>(0, t - rcfg.period);
      SCOPED_TRACE(::testing::Message() << "slot " << t);
      expect_windows_identical(policy.demand_window(from, t),
                               clip_window(trace, base, from, t));
      for (const auto& r : trace)
        if (r.arrival - base < from && r.arrival - base + r.duration > from)
          ++long_lived;
    }
    std::size_t end = next;
    while (end < trace.size() && trace[end].arrival - base == t) ++end;
    policy.observe(trace.data() + next, end - next, t);
    next = end;
  }
  EXPECT_EQ(launches, 5);
  EXPECT_GT(long_lived, 0);  // the windows really start mid-lease
}

}  // namespace
}  // namespace olive::engine
