// Shared helpers of the determinism and equivalence suites: one bitwise
// SimMetrics comparison, and a scoped OLIVE_THREADS override.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "core/simulator.hpp"

namespace olive {

/// Field groups a comparison leaves out, each for a documented reason.
struct MetricsSkip {
  /// LP work counters (simplex iterations, rounds, columns, warm starts,
  /// refactorizations, eta length).  The Dense and SparseLU bases reach the
  /// same plans through different amounts of work.
  bool solver_work = false;
  /// The fastpath_* counters.  They count the fast path's own shortcuts, so
  /// they differ between fast path on and off by design.
  bool fastpath = false;
};

/// Bitwise equality over every deterministic SimMetrics field.  The
/// wall-clock diagnostics (algo_seconds, replan_seconds) are never compared.
inline void expect_metrics_identical(const core::SimMetrics& a,
                                     const core::SimMetrics& b,
                                     const std::string& what = {},
                                     MetricsSkip skip = {}) {
  SCOPED_TRACE(what);
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
  EXPECT_EQ(a.plan_objective_sum, b.plan_objective_sum);
  EXPECT_EQ(a.replans, b.replans);
  if (!skip.solver_work) {
    EXPECT_EQ(a.plan_simplex_iterations, b.plan_simplex_iterations);
    EXPECT_EQ(a.plan_rounds, b.plan_rounds);
    EXPECT_EQ(a.plan_columns_generated, b.plan_columns_generated);
    EXPECT_EQ(a.plan_warm_start_hits, b.plan_warm_start_hits);
    EXPECT_EQ(a.plan_refactorizations, b.plan_refactorizations);
    EXPECT_EQ(a.plan_eta_length_max, b.plan_eta_length_max);
  }

  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.failure_hit, b.failure_hit);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.repairs_patched, b.repairs_patched);
  EXPECT_EQ(a.repairs_reembedded, b.repairs_reembedded);
  EXPECT_EQ(a.repairs_batched, b.repairs_batched);

  if (!skip.fastpath) {
    EXPECT_EQ(a.fastpath_greedy_hits, b.fastpath_greedy_hits);
    EXPECT_EQ(a.fastpath_greedy_misses, b.fastpath_greedy_misses);
    EXPECT_EQ(a.fastpath_greedy_invalidations,
              b.fastpath_greedy_invalidations);
    EXPECT_EQ(a.fastpath_column_skips, b.fastpath_column_skips);
    EXPECT_EQ(a.fastpath_spec_commits, b.fastpath_spec_commits);
    EXPECT_EQ(a.fastpath_spec_misses, b.fastpath_spec_misses);
    EXPECT_EQ(a.fastpath_spec_serial, b.fastpath_spec_serial);
    EXPECT_EQ(a.fastpath_preempt_calls, b.fastpath_preempt_calls);
    EXPECT_EQ(a.fastpath_preempt_scanned, b.fastpath_preempt_scanned);
    EXPECT_EQ(a.fastpath_preempt_popped, b.fastpath_preempt_popped);
  }

  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const core::RequestRecord& x = a.records[i];
    const core::RequestRecord& y = b.records[i];
    EXPECT_EQ(x.id, y.id) << "record " << i;
    EXPECT_EQ(x.arrival, y.arrival) << "record " << i;
    EXPECT_EQ(x.duration, y.duration) << "record " << i;
    EXPECT_EQ(x.app, y.app) << "record " << i;
    EXPECT_EQ(x.ingress, y.ingress) << "record " << i;
    EXPECT_EQ(x.demand, y.demand) << "record " << i;
    EXPECT_EQ(x.kind, y.kind) << "record " << i;
    EXPECT_EQ(x.preempted_at, y.preempted_at) << "record " << i;
  }
}

/// Sets OLIVE_THREADS (the library's default width) for one scope and
/// restores the previous value, so a "threads N" run is N wide everywhere,
/// not only where a config field names a thread count.
class ScopedOliveThreads {
 public:
  explicit ScopedOliveThreads(int threads) {
    if (const char* old = std::getenv("OLIVE_THREADS")) saved_ = old;
    setenv("OLIVE_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~ScopedOliveThreads() {
    if (saved_)
      setenv("OLIVE_THREADS", saved_->c_str(), 1);
    else
      unsetenv("OLIVE_THREADS");
  }
  ScopedOliveThreads(const ScopedOliveThreads&) = delete;
  ScopedOliveThreads& operator=(const ScopedOliveThreads&) = delete;

 private:
  std::optional<std::string> saved_;
};

}  // namespace olive
