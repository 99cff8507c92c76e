// Engine Observer hook contracts: call ordering, counts, and payload
// contents of on_slot_begin / on_outcome / on_replan / on_failure under
// re-plan swaps and substrate failures.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "engine/engine.hpp"

namespace olive::engine {
namespace {

/// Flattens every hook call into one ordered log.
struct RecordingObserver final : Observer {
  struct Call {
    enum Kind { SlotBegin, Outcome, Replan, Failure } kind;
    int slot = 0;
    // Outcome payload
    workload::RequestId request_id = -1;
    bool accepted = false;
    // Replan payload
    ReplanEvent replan;
    // Failure payload
    FailureRecord failure;
  };
  std::vector<Call> calls;
  int current_slot = -1;

  void on_slot_begin(int slot) override {
    current_slot = slot;
    calls.push_back({Call::SlotBegin, slot, -1, false, {}, {}});
  }
  void on_outcome(const workload::Request& r, const core::EmbedOutcome& out,
                  int slot) override {
    calls.push_back({Call::Outcome, slot, r.id, out.accepted(), {}, {}});
  }
  void on_replan(const ReplanEvent& event) override {
    calls.push_back({Call::Replan, current_slot, -1, false, event, {}});
  }
  void on_failure(const FailureRecord& record) override {
    calls.push_back({Call::Failure, current_slot, -1, false, {}, record});
  }

  std::vector<Call> of_kind(Call::Kind kind) const {
    std::vector<Call> out;
    for (const Call& c : calls)
      if (c.kind == kind) out.push_back(c);
    return out;
  }
};

core::ScenarioConfig observed_config() {
  core::ScenarioConfig cfg;
  cfg.topology = "Iris";
  cfg.seed = 7;
  cfg.drift = 1.0;  // so every re-plan actually changes the plan
  cfg.trace.horizon = 400;
  cfg.trace.plan_slots = 300;
  cfg.sim.measure_from = 10;
  cfg.sim.measure_to = 60;
  cfg.sim.drain_slots = 20;
  cfg.failures.node_mtbf = 200;
  cfg.failures.link_mtbf = 400;
  cfg.failures.repair_mean = 15;
  return cfg;
}

TEST(EngineObserverHooks, OrderingCountsAndPayloadsUnderReplanAndFailures) {
  const core::ScenarioConfig cfg = observed_config();
  const core::Scenario sc = core::build_scenario(cfg);
  ASSERT_FALSE(sc.failure_trace.empty());

  EngineConfig ecfg;
  ecfg.sim = cfg.sim;
  ecfg.replan.period = 20;
  ecfg.replan.install_delay = 2;
  ecfg.replan.failure_burst = 5;  // bursts may add off-period launches
  ecfg.replan.plan = cfg.plan;
  ecfg.replan.plan.max_rounds = 6;
  ecfg.replan.seed = cfg.seed;
  ecfg.failures.trace = sc.failure_trace;
  Engine engine(sc.substrate, sc.apps, ecfg);
  RecordingObserver rec;
  engine.add_observer(&rec);
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan);
  const core::SimMetrics metrics = engine.run(algo, sc.online);

  using Call = RecordingObserver::Call;
  const auto slots = rec.of_kind(Call::SlotBegin);
  const auto outcomes = rec.of_kind(Call::Outcome);
  const auto replans = rec.of_kind(Call::Replan);
  const auto failures = rec.of_kind(Call::Failure);

  // --- on_slot_begin: every slot exactly once, in order, first call of
  // its slot.
  ASSERT_EQ(slots.size(), metrics.offered_series.size());
  for (std::size_t t = 0; t < slots.size(); ++t)
    EXPECT_EQ(slots[t].slot, static_cast<int>(t));
  ASSERT_FALSE(rec.calls.empty());
  EXPECT_EQ(rec.calls.front().kind, Call::SlotBegin);

  // --- global ordering: every non-slot call carries the slot of the last
  // on_slot_begin, and within a slot re-plan swaps and failures precede
  // every outcome (swap -> failures -> releases -> arrivals).
  int seen_slot = -1;
  bool outcome_seen_this_slot = false;
  for (const Call& c : rec.calls) {
    if (c.kind == Call::SlotBegin) {
      EXPECT_EQ(c.slot, seen_slot + 1);
      seen_slot = c.slot;
      outcome_seen_this_slot = false;
      continue;
    }
    EXPECT_EQ(c.slot, seen_slot);
    if (c.kind == Call::Outcome) outcome_seen_this_slot = true;
    if (c.kind == Call::Replan || c.kind == Call::Failure) {
      EXPECT_FALSE(outcome_seen_this_slot)
          << "swap/failure after an outcome in slot " << seen_slot;
    }
  }

  // --- on_outcome: one call per processed arrival, in trace order, with
  // accepted() matching the metrics totals.
  const int base = sc.online.front().arrival;
  std::vector<int> expected_ids;
  for (const auto& r : sc.online)
    if (r.arrival - base < static_cast<int>(slots.size()))
      expected_ids.push_back(r.id);
  ASSERT_EQ(outcomes.size(), expected_ids.size());
  long accepted_calls = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].request_id, expected_ids[i]);
    if (outcomes[i].accepted) ++accepted_calls;
  }
  // Window arrivals are a subset of the processed ones, and accepted
  // outcomes may later be preempted or failure-dropped — so the hook's
  // counts bound the window metrics from above.
  EXPECT_GT(accepted_calls, 0);
  EXPECT_GE(accepted_calls, metrics.accepted);
  EXPECT_GE(static_cast<long>(outcomes.size()) - accepted_calls,
            metrics.rejected);

  // --- on_replan: sequence numbers increase from 0, install slots are
  // policy-fixed (launch + install_delay), payloads carry the solve.
  ASSERT_EQ(static_cast<long>(replans.size()), metrics.replans);
  ASSERT_GE(replans.size(), 2u);
  for (std::size_t i = 0; i < replans.size(); ++i) {
    const ReplanEvent& ev = replans[i].replan;
    EXPECT_EQ(ev.sequence, static_cast<int>(i));
    EXPECT_EQ(ev.install_slot, ev.launch_slot + ecfg.replan.install_delay);
    EXPECT_EQ(replans[i].slot, ev.install_slot);  // fires at the swap slot
    EXPECT_TRUE(ev.installed);
    EXPECT_GT(ev.classes, 0);
    EXPECT_GE(ev.solve_seconds, 0);  // payload carries the solve
  }

  // --- on_failure: one call per applied event, in trace order, with the
  // event payload echoed and the impact counts reconciling to the metrics.
  ASSERT_EQ(static_cast<long>(failures.size()), metrics.failures);
  std::size_t next_event = 0;
  long hit = 0, migrated = 0, dropped = 0;
  long patched = 0, reembedded = 0, batched = 0;
  for (const auto& c : failures) {
    const FailureRecord& r = c.failure;
    ASSERT_LT(next_event, sc.failure_trace.size());
    const workload::FailureEvent& ev = sc.failure_trace[next_event++];
    EXPECT_EQ(r.event.slot, ev.slot);
    EXPECT_EQ(r.event.kind, ev.kind);
    EXPECT_EQ(r.event.element, ev.element);
    EXPECT_EQ(r.slot, ev.slot);
    EXPECT_EQ(c.slot, ev.slot);
    EXPECT_EQ(r.affected, r.migrated + r.dropped);
    // Per-record repair-stage composition of the migrated count.
    EXPECT_EQ(r.migrated, r.patched + r.reembedded + r.batched);
    const bool went_down = ev.kind == workload::FailureKind::NodeDown ||
                           ev.kind == workload::FailureKind::LinkDown;
    if (went_down) {
      EXPECT_EQ(r.capacity_after, 0.0);
      EXPECT_GT(r.capacity_before, 0.0);
    }
    hit += r.affected;
    migrated += r.migrated;
    dropped += r.dropped;
    patched += r.patched;
    reembedded += r.reembedded;
    batched += r.batched;
  }
  EXPECT_EQ(hit, metrics.failure_hit);
  EXPECT_EQ(migrated, metrics.migrations);
  EXPECT_EQ(dropped, metrics.sla_violations);
  EXPECT_EQ(patched, metrics.repairs_patched);
  EXPECT_EQ(reembedded, metrics.repairs_reembedded);
  EXPECT_EQ(batched, metrics.repairs_batched);
  EXPECT_GT(hit, 0);
  EXPECT_GT(migrated, 0);
}

TEST(EngineObserverHooks, ObserversDoNotPerturbFailureRuns) {
  const core::ScenarioConfig cfg = observed_config();
  const core::Scenario sc = core::build_scenario(cfg);

  const auto run = [&](Observer* obs) {
    EngineConfig ecfg;
    ecfg.sim = cfg.sim;
    ecfg.failures.trace = sc.failure_trace;
    Engine engine(sc.substrate, sc.apps, ecfg);
    if (obs) engine.add_observer(obs);
    core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan);
    return engine.run(algo, sc.online);
  };
  RecordingObserver rec;
  const core::SimMetrics observed = run(&rec);
  const core::SimMetrics plain = run(nullptr);
  EXPECT_EQ(observed.accepted, plain.accepted);
  EXPECT_EQ(observed.resource_cost, plain.resource_cost);
  EXPECT_EQ(observed.rejection_cost, plain.rejection_cost);
  EXPECT_EQ(observed.migrations, plain.migrations);
  EXPECT_EQ(observed.sla_violations, plain.sla_violations);
  EXPECT_FALSE(rec.calls.empty());
}

}  // namespace
}  // namespace olive::engine
