// Regression tests for the simplex pricing machinery: candidate-list
// partial pricing and incremental dual updates must reach the same optimum
// as a full Dantzig scan on every model, including warm-started column
// generation and phase-1 instances.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace olive::lp {
namespace {

/// Random bounded LP with LE/GE/EQ rows; feasible by construction only in
/// the all-reject sense is not needed — infeasible draws are compared too
/// (both pricing modes must agree on the status).
Model random_lp(Rng& rng, int cols, int rows, bool with_eq_rows) {
  Model m;
  for (int c = 0; c < cols; ++c)
    m.add_col(0, rng.uniform(0.5, 2.0), rng.uniform(-5.0, 5.0));
  for (int r = 0; r < rows; ++r) {
    Sense sense = Sense::LE;
    double rhs = rng.uniform(1.0, 10.0);
    if (with_eq_rows && r % 7 == 3) {
      sense = Sense::GE;
      rhs = rng.uniform(0.1, 0.5);
    } else if (with_eq_rows && r % 7 == 5) {
      sense = Sense::EQ;
      rhs = rng.uniform(0.1, 0.4);
    }
    const int row = m.add_row(sense, rhs);
    // ~6 entries per row, deterministic positions per draw.
    for (int k = 0; k < 6; ++k) {
      const int c = static_cast<int>(rng.below(cols));
      m.add_entry(row, c, rng.uniform(0.1, 1.5));
    }
  }
  return m;
}

SimplexOptions full_pricing() {
  SimplexOptions o;
  o.partial_pricing_min_cols = std::numeric_limits<int>::max();  // never list
  return o;
}

SimplexOptions partial_pricing() {
  SimplexOptions o;
  o.partial_pricing_min_cols = 0;  // engage the candidate list everywhere
  o.candidate_list_size = 16;
  return o;
}

TEST(SimplexPricing, PartialMatchesFullOnRandomModels) {
  Rng rng(stable_hash("pricing-equivalence"));
  for (int draw = 0; draw < 20; ++draw) {
    const bool with_eq = draw % 2 == 1;  // odd draws exercise phase 1
    Model m = random_lp(rng, /*cols=*/120, /*rows=*/25, with_eq);
    const auto full = solve_lp(m, full_pricing());
    const auto partial = solve_lp(m, partial_pricing());
    ASSERT_EQ(full.status, partial.status) << "draw " << draw;
    if (full.status != Status::Optimal) continue;
    const double tol = 1e-7 * (1.0 + std::abs(full.objective));
    EXPECT_NEAR(full.objective, partial.objective, tol) << "draw " << draw;
    // Both claim optimality: the solutions must be feasible for the model.
    EXPECT_LE(m.max_violation(full.x), 1e-6);
    EXPECT_LE(m.max_violation(partial.x), 1e-6);
  }
}

TEST(SimplexPricing, PartialMatchesFullUnderColumnGeneration) {
  Rng rng(stable_hash("pricing-colgen"));
  for (int draw = 0; draw < 6; ++draw) {
    Model m = random_lp(rng, /*cols=*/60, /*rows=*/20, /*with_eq_rows=*/false);
    Simplex full(m, full_pricing());
    Simplex partial(m, partial_pricing());
    auto rf = full.solve();
    auto rp = partial.solve();
    ASSERT_EQ(rf.status, Status::Optimal);
    ASSERT_EQ(rp.status, Status::Optimal);
    // Append identical batches of columns to both and re-optimize.
    for (int batch = 0; batch < 4; ++batch) {
      for (int k = 0; k < 30; ++k) {
        const double up = rng.uniform(0.5, 2.0);
        const double cost = rng.uniform(-6.0, 2.0);
        SparseColumn entries;
        for (int e = 0; e < 5; ++e)
          entries.emplace_back(static_cast<int>(rng.below(20)),
                               rng.uniform(0.1, 1.5));
        full.add_column(0, up, cost, entries);
        partial.add_column(0, up, cost, entries);
      }
      rf = full.resolve();
      rp = partial.resolve();
      ASSERT_EQ(rf.status, Status::Optimal) << "draw " << draw;
      ASSERT_EQ(rp.status, Status::Optimal) << "draw " << draw;
      const double tol = 1e-7 * (1.0 + std::abs(rf.objective));
      EXPECT_NEAR(rf.objective, rp.objective, tol)
          << "draw " << draw << " batch " << batch;
    }
  }
}

SimplexOptions with_rule(PricingRule rule, bool partial) {
  SimplexOptions o = partial ? partial_pricing() : full_pricing();
  o.pricing = rule;
  return o;
}

TEST(SimplexPricing, WeightedRulesReachTheDantzigOptimum) {
  // Steepest edge picks a different pivot path, never a different
  // optimum: on every random model (including phase-1 instances) and in
  // both full-scan and candidate-list modes it must agree with Dantzig on
  // status and objective.
  Rng rng(stable_hash("pricing-rules"));
  for (int draw = 0; draw < 12; ++draw) {
    const bool with_eq = draw % 2 == 1;  // odd draws exercise phase 1
    Model m = random_lp(rng, /*cols=*/140, /*rows=*/30, with_eq);
    const auto dantzig = solve_lp(m, full_pricing());
    for (const bool partial : {false, true}) {
      const auto res =
          solve_lp(m, with_rule(PricingRule::SteepestEdge, partial));
      ASSERT_EQ(dantzig.status, res.status) << "draw " << draw;
      if (dantzig.status != Status::Optimal) continue;
      const double tol = 1e-7 * (1.0 + std::abs(dantzig.objective));
      EXPECT_NEAR(dantzig.objective, res.objective, tol)
          << "draw " << draw << " partial " << partial;
      EXPECT_LE(m.max_violation(res.x), 1e-6);
    }
  }
}

TEST(SimplexPricing, SteepestEdgeUnderColumnGeneration) {
  // The weight framework must survive the colgen loop: appended columns get
  // their slack-basis norms at the next run() start, resolve() after each
  // batch still reaches the Dantzig optimum.
  Rng rng(stable_hash("pricing-rules-colgen"));
  for (int draw = 0; draw < 4; ++draw) {
    Model m = random_lp(rng, /*cols=*/60, /*rows=*/20, /*with_eq_rows=*/false);
    Simplex dantzig(m, full_pricing());
    Simplex steepest(m, with_rule(PricingRule::SteepestEdge, /*partial=*/true));
    auto rd = dantzig.solve();
    auto rs = steepest.solve();
    ASSERT_EQ(rd.status, Status::Optimal);
    ASSERT_EQ(rs.status, Status::Optimal);
    for (int batch = 0; batch < 4; ++batch) {
      for (int k = 0; k < 30; ++k) {
        const double up = rng.uniform(0.5, 2.0);
        const double cost = rng.uniform(-6.0, 2.0);
        SparseColumn entries;
        for (int e = 0; e < 5; ++e)
          entries.emplace_back(static_cast<int>(rng.below(20)),
                               rng.uniform(0.1, 1.5));
        dantzig.add_column(0, up, cost, entries);
        steepest.add_column(0, up, cost, entries);
      }
      rd = dantzig.resolve();
      rs = steepest.resolve();
      ASSERT_EQ(rd.status, Status::Optimal) << "draw " << draw;
      ASSERT_EQ(rs.status, Status::Optimal) << "draw " << draw;
      const double tol = 1e-7 * (1.0 + std::abs(rd.objective));
      EXPECT_NEAR(rd.objective, rs.objective, tol)
          << "draw " << draw << " batch " << batch;
    }
  }
}

TEST(SimplexPricing, DualsAgreeBetweenPricingModes) {
  // Duals are recomputed exactly at optimality, so both modes must price
  // every column non-negatively (up to tolerance) under their own duals.
  Rng rng(stable_hash("pricing-duals"));
  Model m = random_lp(rng, 150, 30, /*with_eq_rows=*/false);
  for (const auto& opts : {full_pricing(), partial_pricing()}) {
    const auto res = solve_lp(m, opts);
    ASSERT_EQ(res.status, Status::Optimal);
    ASSERT_EQ(res.duals.size(), static_cast<std::size_t>(m.num_rows()));
    for (int c = 0; c < m.num_cols(); ++c) {
      double rc = m.col_cost(c);
      for (const auto& [r, v] : m.col(c)) rc -= res.duals[r] * v;
      // Columns at lower bound must have rc >= -tol at a minimum.
      if (res.x[c] <= m.col_lo(c) + 1e-9) {
        EXPECT_GE(rc, -1e-6);
      }
      // Columns strictly inside their bounds must price to ~0.
      if (res.x[c] > m.col_lo(c) + 1e-6 && res.x[c] < m.col_up(c) - 1e-6) {
        EXPECT_NEAR(rc, 0.0, 1e-6);
      }
    }
  }
}

}  // namespace
}  // namespace olive::lp
