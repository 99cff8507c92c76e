// Tests for OLIVE's admission fast path (docs/olive-fastpath.md): the
// grow-epoch greedy memo, the class residual max and the preempt reverse
// index.  The contract under test is bit-identity — every shortcut must
// reproduce the specification path's decision exactly, under departures,
// preemption, capacity rescales, and plan hot-swaps.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>
#include <vector>

#include "core/aggregation.hpp"
#include "core/olive.hpp"
#include "core/plan_solver.hpp"
#include "core/scenario.hpp"
#include "engine/engine.hpp"
#include "workload/request.hpp"

#include "metrics_equality.hpp"

namespace olive::core {
namespace {

// Admission orders are the newest-first victim tie-break; a 32-bit counter
// would overflow on a long-running server and scramble that order.
static_assert(std::is_same_v<OliveEmbedder::AdmissionOrder, std::int64_t>);

net::SubstrateNetwork two_host_network(double cap0, double cap1,
                                       double ingress_cap) {
  net::SubstrateNetwork s;
  s.add_node({"ingress", net::Tier::Edge, ingress_cap, 3.0, false});
  s.add_node({"hostA", net::Tier::Edge, cap0, 1.0, false});
  s.add_node({"hostB", net::Tier::Edge, cap1, 2.0, false});
  s.add_link(0, 1, 10000, 1.0);
  s.add_link(1, 2, 10000, 1.0);
  return s;
}

std::vector<net::Application> chain_app() {
  return {net::Application{"chain",
                           net::VirtualNetwork::chain({10, 10}, {2, 2})}};
}

workload::Request make_request(int id, double demand, net::NodeId ingress = 0) {
  workload::Request r;
  r.id = id;
  r.arrival = 0;
  r.duration = 10;
  r.ingress = ingress;
  r.app = 0;
  r.demand = demand;
  return r;
}

Plan one_class_plan(const net::SubstrateNetwork& s,
                    const std::vector<net::Application>& apps,
                    double planned_demand) {
  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 0, planned_demand, planned_demand, 1});
  return solve_plan_vne(s, apps, aggs);
}

void expect_same_outcome(const EmbedOutcome& a, const EmbedOutcome& b,
                         const char* what) {
  EXPECT_EQ(a.kind, b.kind) << what;
  EXPECT_EQ(a.unit_cost, b.unit_cost) << what;
  EXPECT_EQ(a.usage, b.usage) << what;
  EXPECT_EQ(a.embedding.node_map, b.embedding.node_map) << what;
  EXPECT_EQ(a.embedding.link_paths, b.embedding.link_paths) << what;
  EXPECT_EQ(a.preempted_ids, b.preempted_ids) << what;
}

TEST(GreedyMemo, ServesRepeatsWithinAnEpochAndInvalidatesOnRelease) {
  const auto s = two_host_network(1000, 1000, 1000);
  const auto apps = chain_app();
  // Empty plan: every admission is a GREEDYEMBED (QUICKG mode).
  OliveEmbedder algo(s, apps, Plan::empty());

  const auto first = algo.embed(make_request(1, 2.0));
  EXPECT_EQ(first.kind, OutcomeKind::Greedy);
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_misses, 1);

  // Same class, same demand, no residual growth since: memo hit, and the
  // embedding is byte-identical.
  const auto second = algo.embed(make_request(2, 2.0));
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_hits, 1);
  expect_same_outcome(first, second, "memo hit repeat");

  // A larger demand may reuse the memo too (feasible sets only shrink), a
  // smaller one must not (something infeasible at 2.0 may fit at 1.0).
  algo.embed(make_request(3, 5.0));
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_hits, 2);
  algo.embed(make_request(4, 1.0));
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_misses, 2);

  // A departure releases residuals — the grow-epoch moves and the memo is
  // stale: a cheaper host may have opened up.
  algo.depart(make_request(1, 2.0));
  algo.embed(make_request(5, 1.0));
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_invalidations, 1);
  EXPECT_EQ(algo.fastpath_stats().greedy_memo_misses, 3);
}

TEST(GreedyMemo, ElementWiseCheckRejectsStaleEmbeddings) {
  // Host A (cost 1) fills up between two same-class arrivals *without* any
  // release: the second must not blindly reuse the memoized host-A
  // embedding — the element-wise residual check forces a recompute, which
  // lands on host B.  A fast-path-off twin keeps the oracle honest.
  const auto s = two_host_network(100, 1000, 1000);
  const auto apps = chain_app();
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(s, apps, Plan::empty());
  OliveEmbedder slow(s, apps, Plan::empty(), "OLIVE", off);

  // Demand 2.0 puts 2*20=40 CU on the host: host A (100 CU) fits twice.
  for (int id = 1; id <= 4; ++id) {
    const auto a = fast.embed(make_request(id, 2.0));
    const auto b = slow.embed(make_request(id, 2.0));
    expect_same_outcome(a, b, "fill sequence");
  }
  // Host A now holds 80/100 CU; the next 40 CU request must move to B.
  const auto a = fast.embed(make_request(5, 2.0));
  const auto b = slow.embed(make_request(5, 2.0));
  expect_same_outcome(a, b, "spill to host B");
  EXPECT_EQ(a.embedding.node_map[1], 2);  // hostB
  EXPECT_GT(fast.fastpath_stats().greedy_memo_hits, 0);
}

TEST(GreedyMemo, CapacityRaiseInvalidates) {
  // Fill cheap host A, spill to B, then *rescale A back up*: the raise
  // bumps the grow-epoch, so the next arrival must re-discover A instead
  // of reusing the memoized host-B embedding.
  const auto s = two_host_network(40, 1000, 1000);
  const auto apps = chain_app();
  OliveEmbedder algo(s, apps, Plan::empty());

  EXPECT_EQ(algo.embed(make_request(1, 2.0)).embedding.node_map[1], 1);
  EXPECT_EQ(algo.embed(make_request(2, 2.0)).embedding.node_map[1], 2);
  // Recovery/rescale: host A's element grows to 80 CU total.
  EXPECT_TRUE(algo.set_element_capacity(s.node_element(1), 80.0));
  const auto back = algo.embed(make_request(3, 2.0));
  EXPECT_EQ(back.embedding.node_map[1], 1);
  EXPECT_GE(algo.fastpath_stats().greedy_memo_invalidations, 1);
}

TEST(ClassMax, SkipsExhaustedPlanStages) {
  const auto s = two_host_network(1000, 1000, 1000);
  const auto apps = chain_app();
  OliveEmbedder algo(s, apps, one_class_plan(s, apps, 10.0));

  EXPECT_EQ(algo.embed(make_request(1, 10.0)).kind, OutcomeKind::Planned);
  // Plan residual is 0 < 5 - 1e-9: the full-fit and preempt stages cannot
  // pass any column gate, so the class max skips them wholesale (borrow
  // still scans — residual 0 fails its > 1e-9 gate per column).
  const auto out = algo.embed(make_request(2, 5.0));
  EXPECT_EQ(out.kind, OutcomeKind::Greedy);
  EXPECT_GT(algo.fastpath_stats().column_skips, 0);

  // A departure restores the residual: the stage must run again.
  algo.depart(make_request(1, 10.0));
  EXPECT_EQ(algo.embed(make_request(3, 10.0)).kind, OutcomeKind::Planned);
}

TEST(PreemptIndex, MatchesFullScanVictimOrder) {
  // Three borrowers of different demands squat on host A; a guaranteed
  // arrival preempts.  The reverse index must select the same victims in
  // the same order as the specification's full active-set scan.
  const auto s = two_host_network(400, 400, 10);
  const auto apps = chain_app();
  const Plan plan = one_class_plan(s, apps, 20.0);
  OliveOptions off;
  off.enable_fastpath = false;
  OliveEmbedder fast(s, apps, plan);
  OliveEmbedder slow(s, apps, plan, "OLIVE", off);

  for (OliveEmbedder* algo : {&fast, &slow}) {
    // Borrowers from the unplanned ingress 2: demands 4, 3, 5 (80/60/100 CU).
    EXPECT_EQ(algo->embed(make_request(1, 4.0, 2)).kind, OutcomeKind::Greedy);
    EXPECT_EQ(algo->embed(make_request(2, 3.0, 2)).kind, OutcomeKind::Greedy);
    EXPECT_EQ(algo->embed(make_request(3, 5.0, 2)).kind, OutcomeKind::Greedy);
  }
  const auto a = fast.embed(make_request(4, 20.0, 0));
  const auto b = slow.embed(make_request(4, 20.0, 0));
  expect_same_outcome(a, b, "preempt victims");
  EXPECT_EQ(a.kind, OutcomeKind::Planned);
  EXPECT_FALSE(a.preempted_ids.empty());

  // Departing a survivor afterwards exercises index swap-remove/backpatch.
  for (OliveEmbedder* algo : {&fast, &slow})
    for (int id = 1; id <= 3; ++id) algo->depart(make_request(id, 0.0, 2));
  const auto a2 = fast.embed(make_request(5, 4.0, 2));
  const auto b2 = slow.embed(make_request(5, 4.0, 2));
  expect_same_outcome(a2, b2, "post-preempt greedy");
}

TEST(FastPathTwin, EngineDrivenRunMatchesSpecificationPath) {
  // Full engine drive on a generated scenario: the fast path must be
  // invisible in every deterministic metric (the fuzz suite covers the
  // failure gauntlet; this pins the plain path).  Only the fastpath_*
  // counters, which count the shortcuts themselves, may differ.
  ScenarioConfig cfg;
  cfg.topology = "CittaStudi";
  cfg.utilization = 1.1;
  cfg.seed = 9;
  cfg.trace.horizon = 240;
  cfg.trace.plan_slots = 180;
  cfg.trace.lambda_per_node = 2.0;
  cfg.sim.measure_from = 5;
  cfg.sim.measure_to = 40;
  cfg.sim.drain_slots = 10;
  const Scenario sc = build_scenario(cfg);

  const auto run = [&](bool fastpath) {
    engine::EngineConfig ecfg;
    ecfg.sim = cfg.sim;
    engine::Engine eng(sc.substrate, sc.apps, ecfg);
    OliveOptions opt;
    opt.enable_fastpath = fastpath;
    OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE", opt);
    return eng.run(algo, sc.online);
  };
  const SimMetrics off = run(false);
  const SimMetrics on = run(true);
  EXPECT_GT(off.offered, 0);
  EXPECT_GT(on.fastpath_greedy_hits + on.fastpath_column_skips, 0);
  expect_metrics_identical(off, on, "fastpath off vs on", {.fastpath = true});
}

// --- PreemptSelect: the indexed victim selection (inline-keyed entries,
// churn-limit filter at gather time, lazy heap selection) against the
// specification's full scan and sort.

OliveOptions spec_options() {
  OliveOptions off;
  off.enable_fastpath = false;
  return off;
}

TEST(PreemptSelect, OversizeBorrowerBehindEnoughSmallVictims) {
  // Host A (500 CU) holds six demand-2 borrowers and one demand-11 borrower
  // (above the churn limit of the demand-10 planned arrival).  Four small
  // victims cover the 160 CU deficit before the big one is reached, so the
  // gather-time filter drops it without changing the outcome.
  const auto s = two_host_network(500, 400, 10);
  const auto apps = chain_app();
  const Plan plan = one_class_plan(s, apps, 10.0);
  OliveEmbedder fast(s, apps, plan);
  OliveEmbedder slow(s, apps, plan, "OLIVE", spec_options());
  const std::vector<double> borrowers = {2.0, 2.0, 2.0, 11.0, 2.0, 2.0, 2.0};
  for (OliveEmbedder* algo : {&fast, &slow})
    for (std::size_t i = 0; i < borrowers.size(); ++i)
      ASSERT_EQ(algo->embed(make_request(static_cast<int>(i) + 1,
                                         borrowers[i], 2))
                    .embedding.node_map[1],
                1);  // all on host A

  const auto a = fast.embed(make_request(100, 10.0, 0));
  const auto b = slow.embed(make_request(100, 10.0, 0));
  expect_same_outcome(a, b, "oversize borrower left alone");
  EXPECT_EQ(a.kind, OutcomeKind::Planned);
  // The four newest demand-2 borrowers, newest first.
  EXPECT_EQ(a.preempted_ids, (std::vector<workload::RequestId>{7, 6, 5, 3}));
  const FastPathStats st = fast.fastpath_stats();
  EXPECT_EQ(st.preempt_scanned, 7);
  EXPECT_EQ(st.preempt_popped, 4);
}

TEST(PreemptSelect, HelpfulOversizeCandidateRefusesWithoutSideEffects) {
  // Host A (400 CU) holds four demand-2 borrowers and one demand-11
  // borrower; the demand-10 planned arrival needs 180 CU more than is free.
  // The small victims free only 160 CU, so the specification's scan reaches
  // the big borrower, which helps but trips the churn guard: preemption is
  // refused.  The fast path drops the big borrower at gather time and runs
  // out of candidates instead — the same refusal, with nothing released.
  const auto s = two_host_network(400, 100, 10);
  const auto apps = chain_app();
  const Plan plan = one_class_plan(s, apps, 10.0);
  OliveEmbedder fast(s, apps, plan);
  OliveEmbedder slow(s, apps, plan, "OLIVE", spec_options());
  const std::vector<double> borrowers = {2.0, 11.0, 2.0, 2.0, 2.0};
  for (OliveEmbedder* algo : {&fast, &slow})
    for (std::size_t i = 0; i < borrowers.size(); ++i)
      ASSERT_EQ(algo->embed(make_request(static_cast<int>(i) + 1,
                                         borrowers[i], 2))
                    .embedding.node_map[1],
                1);

  for (OliveEmbedder* algo : {&fast, &slow}) {
    const auto residuals = algo->load().residuals();
    const auto epoch = algo->load().grow_epoch();
    const auto actives = algo->active_allocations();
    // Host B (100 CU) cannot take 200 CU either: the arrival is rejected.
    const auto out = algo->embed(make_request(100, 10.0, 0));
    EXPECT_EQ(out.kind, OutcomeKind::Rejected);
    EXPECT_TRUE(out.preempted_ids.empty());
    EXPECT_EQ(algo->load().residuals(), residuals);
    EXPECT_EQ(algo->load().grow_epoch(), epoch);
    const auto after = algo->active_allocations();
    ASSERT_EQ(after.size(), actives.size());
    for (std::size_t i = 0; i < after.size(); ++i)
      EXPECT_EQ(after[i].id, actives[i].id);
  }
  EXPECT_GT(fast.fastpath_stats().preempt_calls, 0);
  EXPECT_EQ(fast.fastpath_stats().preempt_popped, 4);
}

TEST(PreemptSelect, AllocationOnTwoDeficientElementsIsListedOnce) {
  // Two apps on the same chain topology: only app 0 is planned, so app-1
  // arrivals at the planned ingress are greedy borrowers that use both the
  // host and the scarce ingress link — the two elements the planned
  // arrival finds deficient.  Each borrower sits in both index buckets and
  // must still be taken (and reported) once.
  net::SubstrateNetwork s;
  s.add_node({"ingress", net::Tier::Edge, 10, 3.0, false});
  s.add_node({"hostA", net::Tier::Edge, 400, 1.0, false});
  s.add_node({"hostB", net::Tier::Edge, 400, 2.0, false});
  s.add_link(0, 1, 40, 1.0);
  s.add_link(1, 2, 10000, 1.0);
  std::vector<net::Application> apps = chain_app();
  apps.push_back(apps.front());
  apps.back().name = "chain-unplanned";
  const Plan plan = one_class_plan(s, apps, 10.0);
  OliveEmbedder fast(s, apps, plan);
  OliveEmbedder slow(s, apps, plan, "OLIVE", spec_options());
  for (OliveEmbedder* algo : {&fast, &slow}) {
    for (int id = 1; id <= 4; ++id) {
      workload::Request r = make_request(id, 4.0, 0);
      r.app = 1;
      ASSERT_EQ(algo->embed(r).embedding.node_map[1], 1);
    }
  }
  const auto a = fast.embed(make_request(100, 10.0, 0));
  const auto b = slow.embed(make_request(100, 10.0, 0));
  expect_same_outcome(a, b, "two deficient elements");
  EXPECT_EQ(a.kind, OutcomeKind::Planned);
  EXPECT_EQ(a.preempted_ids, (std::vector<workload::RequestId>{4, 3}));
  const FastPathStats st = fast.fastpath_stats();
  EXPECT_EQ(st.preempt_scanned, 8);  // four borrowers, two buckets each
  EXPECT_EQ(st.preempt_popped, 2);
}

TEST(PreemptSelect, RandomizedDifferentialAgainstTheFullScan) {
  // A seeded stream of arrivals and departures on an over-subscribed
  // two-host network whose ingress link is scarce too, so a preemption can
  // find two deficient elements; demands come from a small set so
  // equal-demand ties (broken newest-first) are common.  Midway a new plan
  // re-classifies every planned allocation as a borrower.  Every outcome —
  // victims and their order included — must match the specification path.
  net::SubstrateNetwork s;
  s.add_node({"ingress", net::Tier::Edge, 10, 3.0, false});
  s.add_node({"hostA", net::Tier::Edge, 400, 1.0, false});
  s.add_node({"hostB", net::Tier::Edge, 400, 2.0, false});
  s.add_link(0, 1, 50, 1.0);
  s.add_link(1, 2, 10000, 1.0);
  const auto apps = chain_app();
  OliveEmbedder fast(s, apps, one_class_plan(s, apps, 12.0));
  OliveEmbedder slow(s, apps, one_class_plan(s, apps, 12.0), "OLIVE",
                     spec_options());
  std::mt19937_64 rng(20251017);
  std::vector<workload::Request> live;
  long preemptions = 0;
  const int n = 5000;
  for (int id = 1; id <= n; ++id) {
    if (id == n / 2) {
      ASSERT_TRUE(fast.install_plan(one_class_plan(s, apps, 8.0)));
      ASSERT_TRUE(slow.install_plan(one_class_plan(s, apps, 8.0)));
    }
    while (!live.empty() && rng() % 3 == 0) {
      const std::size_t k = rng() % live.size();
      fast.depart(live[k]);
      slow.depart(live[k]);
      live[k] = live.back();
      live.pop_back();
    }
    const double demand = 0.5 * static_cast<double>(1 + rng() % 8);
    const workload::Request r =
        make_request(id, demand, rng() % 2 == 0 ? 0 : 2);
    const auto a = fast.embed(r);
    const auto b = slow.embed(r);
    expect_same_outcome(a, b, "randomized differential");
    if (::testing::Test::HasFailure()) FAIL() << "diverged at request " << id;
    if (!a.preempted_ids.empty()) ++preemptions;
    for (const workload::RequestId v : a.preempted_ids)
      std::erase_if(live, [&](const auto& q) { return q.id == v; });
    if (a.accepted()) live.push_back(r);
  }
  EXPECT_GT(preemptions, 20);
  const auto fa = fast.active_allocations();
  const auto sa = slow.active_allocations();
  ASSERT_EQ(fa.size(), sa.size());
  for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_EQ(fa[i].id, sa[i].id);
  EXPECT_EQ(fast.load().residuals(), slow.load().residuals());
  const FastPathStats st = fast.fastpath_stats();
  EXPECT_GT(st.preempt_calls, 0);
  EXPECT_LE(st.preempt_popped, st.preempt_scanned);
}

TEST(PreemptSelect, CountersReachSimMetrics) {
  // The preempt counters are diagnostics folded into SimMetrics at run
  // end; a run that preempts reports its attempts, and every victim was a
  // popped candidate that had been gathered from the index.
  ScenarioConfig cfg;
  cfg.topology = "CittaStudi";
  cfg.utilization = 1.1;
  cfg.seed = 9;
  cfg.drift = 1.5;
  cfg.trace.horizon = 240;
  cfg.trace.plan_slots = 180;
  cfg.trace.lambda_per_node = 2.0;
  cfg.sim.measure_from = 5;
  cfg.sim.measure_to = 40;
  cfg.sim.drain_slots = 10;
  const Scenario sc = build_scenario(cfg);
  engine::EngineConfig ecfg;
  ecfg.sim = cfg.sim;
  engine::Engine eng(sc.substrate, sc.apps, ecfg);
  OliveEmbedder algo(sc.substrate, sc.apps, sc.plan);
  const SimMetrics m = eng.run(algo, sc.online);
  ASSERT_GT(m.preempted, 0);
  EXPECT_GT(m.fastpath_preempt_calls, 0);
  EXPECT_LE(m.fastpath_preempt_popped, m.fastpath_preempt_scanned);
  EXPECT_GE(m.fastpath_preempt_popped, m.preempted);
  const FastPathStats st = algo.fastpath_stats();
  EXPECT_EQ(m.fastpath_preempt_calls, st.preempt_calls);
  EXPECT_EQ(m.fastpath_preempt_scanned, st.preempt_scanned);
  EXPECT_EQ(m.fastpath_preempt_popped, st.preempt_popped);
}

}  // namespace
}  // namespace olive::core
