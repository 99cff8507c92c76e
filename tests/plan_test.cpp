// Tests for PLAN-VNE (paper §III-B): structural invariants of the plan
// (Eqs. 12–13, 15), equivalence with a directly-built arc-flow LP on small
// instances, the quantile "water-filling" starvation-prevention property,
// and the default ψ rule.
#include <gtest/gtest.h>

#include <cmath>

#include "core/plan_solver.hpp"
#include "lp/simplex.hpp"
#include "net/paths.hpp"
#include "util/error.hpp"

namespace olive::core {
namespace {

net::SubstrateNetwork small_network(double node_cap = 1000,
                                    double link_cap = 500) {
  // Square: 0-1-2-3-0, node costs 4,1,2,3.
  net::SubstrateNetwork s;
  s.add_node({"a", net::Tier::Edge, node_cap, 4.0, false});
  s.add_node({"b", net::Tier::Edge, node_cap, 1.0, false});
  s.add_node({"c", net::Tier::Edge, node_cap, 2.0, false});
  s.add_node({"d", net::Tier::Edge, node_cap, 3.0, false});
  s.add_link(0, 1, link_cap, 1.0);
  s.add_link(1, 2, link_cap, 1.0);
  s.add_link(2, 3, link_cap, 1.0);
  s.add_link(3, 0, link_cap, 1.0);
  return s;
}

std::vector<net::Application> one_chain_app() {
  return {net::Application{"chain",
                           net::VirtualNetwork::chain({10, 10}, {5, 5})}};
}

void expect_plan_feasible(const net::SubstrateNetwork& s, const Plan& plan) {
  std::vector<double> load(s.element_count(), 0.0);
  for (const auto& pc : plan.classes()) {
    double fraction_total = pc.rejected_fraction();
    for (const auto& col : pc.columns) {
      fraction_total += col.fraction;
      EXPECT_GE(col.fraction, -1e-9);
      EXPECT_LE(col.fraction, 1 + 1e-9);
      for (const auto& [elem, amt] : col.usage)
        load[elem] += col.fraction * pc.aggregate.demand * amt;
    }
    // Eq. 13: accepted + rejected fractions sum to 1.
    EXPECT_NEAR(fraction_total, 1.0, 1e-6);
    // Eq. 12: quantile fractions within [0, 1/P].
    const double P = static_cast<double>(pc.rejected_per_quantile.size());
    for (const double y : pc.rejected_per_quantile) {
      EXPECT_GE(y, -1e-9);
      EXPECT_LE(y, 1.0 / P + 1e-9);
    }
  }
  // Eq. 15: aggregate planned load within capacity.
  for (int e = 0; e < s.element_count(); ++e)
    EXPECT_LE(load[e], s.element_capacity(e) * (1 + 1e-6)) << "element " << e;
}

TEST(PlanVne, UncongestedPlanAcceptsEverythingAtDpCost) {
  const auto s = small_network();
  const auto apps = one_chain_app();
  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 0, 10.0, 10.0, 5});
  PlanSolveInfo info;
  const Plan plan = solve_plan_vne(s, apps, aggs, {}, &info);
  ASSERT_EQ(plan.num_classes(), 1);
  expect_plan_feasible(s, plan);
  EXPECT_NEAR(plan.cls(0).accepted_fraction(), 1.0, 1e-6);
  EXPECT_NEAR(plan.cls(0).rejected_fraction(), 0.0, 1e-6);
  // With ample capacity the plan cost equals demand x min embedding cost:
  // host both VNFs on node 1 (cost 1): 20*1 + link 0 carries beta 5: +5.
  EXPECT_NEAR(info.objective, 10.0 * 25.0, 1e-4);
}

TEST(PlanVne, MatchesDirectArcFlowLpOnSmallInstance) {
  // Build Fig. 4's arc-flow LP directly (single class, P=1) and compare.
  const auto s = small_network(100, 60);
  const auto apps = one_chain_app();
  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 0, 8.0, 8.0, 3});
  PlanVneConfig cfg;
  cfg.quantiles = 1;
  cfg.psi = 50.0;
  PlanSolveInfo info;
  const Plan plan = solve_plan_vne(s, apps, aggs, cfg, &info);
  expect_plan_feasible(s, plan);

  // Direct arc-flow LP: variables y^q_s for the 2 VNFs on 4 nodes, arc flows
  // for the 2 virtual links on 8 arcs, one rejection variable.
  const auto& vn = apps[0].topology;
  lp::Model m;
  const double d = 8.0;
  // x[i][v] for i in {1,2}
  std::vector<std::vector<int>> x(3, std::vector<int>(4));
  for (int i = 1; i <= 2; ++i)
    for (int v = 0; v < 4; ++v)
      x[i][v] = m.add_col(0, 1, d * vn.vnode(i).size * s.node(v).cost);
  // arcs: 2 per link; f[l][arc]
  std::vector<std::vector<int>> f(2, std::vector<int>(8));
  for (int l = 0; l < 2; ++l)
    for (int a = 0; a < 8; ++a)
      f[l][a] = m.add_col(0, 1, d * vn.vlink(l).size * s.link(a / 2).cost);
  const int reject = m.add_col(0, 1, 50.0 * d);  // P=1 quantile
  // theta: constant 1 at node 0 (ingress), handled via RHS.
  // Acceptance: sum_v x[1][v] ... every VNF carries the accepted fraction:
  // x fraction = 1 - reject.
  for (int i = 1; i <= 2; ++i) {
    const int row = m.add_row(lp::Sense::EQ, 1.0);
    for (int v = 0; v < 4; ++v) m.add_entry(row, x[i][v], 1.0);
    m.add_entry(row, reject, 1.0);
  }
  // Flow conservation per virtual link l and node v:
  //   out - in = src_frac(v) - dst_frac(v)
  // link 0: theta(at node 0, fraction = 1-reject) -> VNF1
  // link 1: VNF1 -> VNF2.
  for (int l = 0; l < 2; ++l) {
    for (int v = 0; v < 4; ++v) {
      double rhs = 0;
      const int row = m.add_row(lp::Sense::EQ, 0.0);
      for (const auto& [nbr, sl] : s.adjacency(v)) {
        (void)nbr;
        const bool is_a = s.link(sl).a == v;
        m.add_entry(row, f[l][2 * sl + (is_a ? 0 : 1)], 1.0);   // out
        m.add_entry(row, f[l][2 * sl + (is_a ? 1 : 0)], -1.0);  // in
      }
      if (l == 0) {
        // source: theta at node 0 with fraction (1 - reject)
        if (v == 0) {
          m.add_entry(row, reject, -1.0);
          rhs = 1.0;  // moved constant
        }
        m.add_entry(row, x[1][v], 1.0);  // sink VNF1
      } else {
        m.add_entry(row, x[1][v], -1.0);  // source VNF1
        m.add_entry(row, x[2][v], 1.0);   // sink VNF2
      }
      // adjust rhs
      if (rhs != 0) {
        // row built with rhs 0; rebuild with proper rhs via slack trick:
        // instead, add constant by moving to a bound-fixed column.
        const int cst = m.add_col(1, 1, 0.0);
        m.add_entry(row, cst, -rhs);
      }
    }
  }
  // Capacities.
  for (int v = 0; v < 4; ++v) {
    const int row = m.add_row(lp::Sense::LE, s.node(v).capacity);
    for (int i = 1; i <= 2; ++i)
      m.add_entry(row, x[i][v], d * vn.vnode(i).size);
  }
  for (int sl = 0; sl < 4; ++sl) {
    const int row = m.add_row(lp::Sense::LE, s.link(sl).capacity);
    for (int l = 0; l < 2; ++l) {
      m.add_entry(row, f[l][2 * sl], d * vn.vlink(l).size);
      m.add_entry(row, f[l][2 * sl + 1], d * vn.vlink(l).size);
    }
  }
  const auto direct = lp::solve_lp(m);
  ASSERT_EQ(direct.status, lp::Status::Optimal);
  // The configuration LP is at least as tight as the arc-flow relaxation,
  // and on this instance the gap should be negligible.
  EXPECT_GE(info.objective, direct.objective - 1e-6);
  EXPECT_NEAR(info.objective, direct.objective,
              0.02 * std::abs(direct.objective) + 1e-6);
}

TEST(PlanVne, CapacityForcesPartialRejection) {
  // Node capacities too small to accept the full aggregate demand.
  const auto s = small_network(100, 1000);
  const auto apps = one_chain_app();  // 20 CU of node size per demand unit
  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 0, 50.0, 50.0, 10});  // needs 1000 CU, only 400 exist
  PlanSolveInfo info;
  const Plan plan = solve_plan_vne(s, apps, aggs, {}, &info);
  expect_plan_feasible(s, plan);
  // At most 400/1000 = 40% can be accepted.
  EXPECT_LE(plan.cls(0).accepted_fraction(), 0.4 + 1e-6);
  EXPECT_GE(plan.cls(0).rejected_fraction(), 0.6 - 1e-6);
  EXPECT_GT(plan.cls(0).columns.size(), 1u);  // demand split across hosts
}

TEST(PlanVne, QuantilesBalanceRejectionAcrossClasses) {
  // Two identical classes compete for capacity that fits only half the
  // total demand (4x100 CU vs 2x20x20 = 800 CU wanted): with quantiles,
  // both classes reject ~50% instead of one being starved (§III-B's
  // rejection-quantile device).
  const auto s = small_network(100, 1e6);
  const auto apps = one_chain_app();
  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 0, 20.0, 20.0, 10});
  aggs.push_back({0, 2, 20.0, 20.0, 10});
  PlanVneConfig cfg;
  cfg.quantiles = 10;
  const Plan plan = solve_plan_vne(s, apps, aggs, cfg);
  expect_plan_feasible(s, plan);
  const double r0 = plan.cls(0).rejected_fraction();
  const double r1 = plan.cls(1).rejected_fraction();
  EXPECT_GT(r0, 0.05);
  EXPECT_GT(r1, 0.05);
  EXPECT_NEAR(r0, r1, 0.15);  // near-equal rejection shares
}

TEST(PlanVne, SingleQuantileAllowsStarvation) {
  // Same setup with P=1: rejections concentrate (no water-filling), so the
  // spread between the two classes can be extreme.
  const auto s = small_network(100, 1e6);
  const auto apps = one_chain_app();
  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 0, 20.0, 20.0, 10});
  aggs.push_back({0, 2, 20.0, 20.0, 10});
  PlanVneConfig p1;
  p1.quantiles = 1;
  const Plan plan1 = solve_plan_vne(s, apps, aggs, p1);
  PlanVneConfig p10;
  p10.quantiles = 10;
  const Plan plan10 = solve_plan_vne(s, apps, aggs, p10);
  const auto spread = [](const Plan& p) {
    return std::abs(p.cls(0).rejected_fraction() -
                    p.cls(1).rejected_fraction());
  };
  EXPECT_GE(spread(plan1) + 1e-9, spread(plan10));
}

TEST(PlanVne, GpuClassWithNoGpuNodesIsRejectedOnly) {
  const auto s = small_network();
  auto vn = net::VirtualNetwork::chain({10}, {5});
  vn.vnode(1).gpu = true;
  const std::vector<net::Application> apps{{"gpu", vn}};
  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 0, 10.0, 10.0, 5});
  const Plan plan = solve_plan_vne(s, apps, aggs);
  ASSERT_EQ(plan.num_classes(), 1);
  EXPECT_TRUE(plan.cls(0).columns.empty());
  EXPECT_NEAR(plan.cls(0).rejected_fraction(), 1.0, 1e-6);
}

TEST(PlanVne, EmptyAggregatesGiveEmptyPlan) {
  const auto s = small_network();
  const auto apps = one_chain_app();
  const Plan plan = solve_plan_vne(s, apps, {});
  EXPECT_TRUE(plan.empty_plan());
  EXPECT_EQ(plan.class_index(0, 0), -1);
}

TEST(PlanVne, ClassIndexLookup) {
  const auto s = small_network();
  const auto apps = one_chain_app();
  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 1, 5.0, 5.0, 2});
  aggs.push_back({0, 3, 5.0, 5.0, 2});
  const Plan plan = solve_plan_vne(s, apps, aggs);
  EXPECT_EQ(plan.class_index(0, 1), 0);
  EXPECT_EQ(plan.class_index(0, 3), 1);
  EXPECT_EQ(plan.class_index(0, 2), -1);
  EXPECT_EQ(plan.class_index(1, 1), -1);
}

TEST(PlanVne, ColumnCacheAcceleratesRepeatSolves) {
  const auto s = small_network(100, 60);
  const auto apps = one_chain_app();
  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 0, 8.0, 8.0, 3});
  aggs.push_back({0, 2, 8.0, 8.0, 3});
  PlanColumnCache cache;
  PlanSolveInfo cold, warm;
  const Plan p1 = solve_plan_vne(s, apps, aggs, {}, &cold, &cache);
  const Plan p2 = solve_plan_vne(s, apps, aggs, {}, &warm, &cache);
  EXPECT_NEAR(p1.objective(), p2.objective(), 1e-6 * (1 + p1.objective()));
  EXPECT_LE(warm.columns_generated, cold.columns_generated);
}

TEST(PlanVne, ColumnCacheLruEvictionKeepsSolvesOptimal) {
  const auto s = small_network();
  const auto apps = one_chain_app();
  // Four classes, one per ingress: four cache buckets.
  std::vector<AggregateRequest> aggs;
  for (int v = 0; v < 4; ++v) aggs.push_back({0, v, 5.0, 5.0, 3});
  PlanSolveInfo unbounded;
  const Plan reference = solve_plan_vne(s, apps, aggs, {}, &unbounded);

  // A 2-column global budget forces trim() to evict whole LRU buckets after
  // every solve.  Eviction only costs re-pricing: each solve must still be
  // optimal at the unbounded objective, feasible, and able to consume the
  // carried warm-start basis (missing columns fall back to repair/cold —
  // valid either way, never wrong).
  PlanColumnCache cache(/*max_columns=*/2);
  PlanWarmStart warm;
  for (int round = 0; round < 4; ++round) {
    PlanSolveInfo info;
    const Plan plan = solve_plan_vne(s, apps, aggs, {}, &info, &cache, &warm);
    EXPECT_EQ(info.status, lp::Status::Optimal) << "round " << round;
    EXPECT_NEAR(info.objective, unbounded.objective,
                1e-6 * (1 + std::abs(unbounded.objective)))
        << "round " << round;
    expect_plan_feasible(s, plan);
    EXPECT_LE(cache.total_columns(), cache.max_columns()) << "round " << round;
    if (round > 0) {
      EXPECT_TRUE(info.warm_start_attempted);
    }
  }

  // The default budget is far above anything a small topology generates:
  // trim() must be a no-op there (pinned so the LRU machinery can never
  // perturb existing runs).
  PlanColumnCache roomy;
  solve_plan_vne(s, apps, aggs, {}, nullptr, &roomy);
  const std::size_t before = roomy.total_columns();
  EXPECT_GT(before, 0u);
  roomy.trim();
  EXPECT_EQ(roomy.total_columns(), before);
}

TEST(PlanVne, CapacityOverlayScalesRowsAndExcludesDeadElements) {
  const auto s = small_network(100, 60);
  const auto apps = one_chain_app();
  std::vector<AggregateRequest> aggs;
  aggs.push_back({0, 0, 8.0, 8.0, 3});

  // An empty overlay is the nominal solve, bit for bit.
  PlanSolveInfo nominal, empty_overlay;
  const Plan base = solve_plan_vne(s, apps, aggs, {}, &nominal);
  PlanVneConfig cfg;
  cfg.capacities = {};
  const Plan same = solve_plan_vne(s, apps, aggs, cfg, &empty_overlay);
  EXPECT_EQ(nominal.objective, empty_overlay.objective);
  EXPECT_EQ(base.objective(), same.objective());

  // Kill node 1 (the cheapest host): no plan column may touch it, and the
  // plan must stay feasible against the *overlay* capacities.
  cfg.capacities.assign(s.element_count(), 0.0);
  for (int e = 0; e < s.element_count(); ++e)
    cfg.capacities[e] = s.element_capacity(e);
  cfg.capacities[1] = 0.0;
  const Plan degraded = solve_plan_vne(s, apps, aggs, cfg);
  ASSERT_EQ(degraded.num_classes(), 1);
  EXPECT_GT(degraded.cls(0).accepted_fraction(), 0.0);
  std::vector<double> load(s.element_count(), 0.0);
  for (const auto& col : degraded.cls(0).columns) {
    for (const auto& [elem, amt] : col.usage) {
      EXPECT_NE(elem, 1) << "plan column touches the dead node";
      load[elem] += col.fraction * 8.0 * amt;
    }
  }
  for (int e = 0; e < s.element_count(); ++e)
    EXPECT_LE(load[e], cfg.capacities[e] * (1 + 1e-6)) << "element " << e;
  // Avoiding the cheapest host costs optimality: the overlay objective
  // must be at least the nominal one.
  EXPECT_GE(degraded.objective(), base.objective() - 1e-9);

  // A partial (rescaled) capacity shrinks the planned load on the element.
  cfg.capacities[1] = 20.0;  // node 1 at 20% of nominal
  const Plan rescaled = solve_plan_vne(s, apps, aggs, cfg);
  double on_node1 = 0;
  for (const auto& col : rescaled.cls(0).columns)
    for (const auto& [elem, amt] : col.usage)
      if (elem == 1) on_node1 += col.fraction * 8.0 * amt;
  EXPECT_LE(on_node1, 20.0 * (1 + 1e-6));

  // Wrong overlay length is rejected with a diagnostic.
  cfg.capacities.resize(3);
  EXPECT_THROW(solve_plan_vne(s, apps, aggs, cfg), InvalidArgument);
}

TEST(DefaultPsi, PricesMostExpensiveElements) {
  const auto s = small_network();  // max node cost 4, max link cost 1
  const auto vn = net::VirtualNetwork::chain({10, 10}, {5, 5});
  EXPECT_DOUBLE_EQ(default_psi(s, vn), 20 * 4.0 + 10 * 1.0);
}

}  // namespace
}  // namespace olive::core
