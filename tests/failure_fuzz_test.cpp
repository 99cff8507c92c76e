// Randomized fuzz/differential sweep over substrate-dynamics scenarios
// (part of the `concurrency` CTest label; runs under TSan and ASan+UBSan
// in CI).
//
// Each seeded case draws a random scenario shape — topology, demand drift,
// failure intensity (node/link outages + rescales, sometimes hitting edge
// nodes), correlated shared-risk groups, scheduled maintenance, repair
// policy (batched / per-request / drop), and mid-run re-planning with the
// failure-burst trigger and capacity-aware masters — and asserts the two
// determinism contracts end to end:
//
//   * bit-identical SimMetrics, fast-path counters included, at library
//     widths {1, 4} (pricing threads and OLIVE_THREADS; the engine's
//     install slots are policy-fixed, failure handling is trace-driven and
//     admission is sequential, so threading must be invisible);
//   * Dense vs SparseLU basis equality: the same runs driven by the dense
//     reference basis produce identical costs and counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

#include "metrics_equality.hpp"

namespace olive {
namespace {

struct FuzzShape {
  core::ScenarioConfig cfg;
  bool replan = false;
};

/// Derives one random-but-reproducible scenario shape from a seed.
FuzzShape shape_from_seed(std::uint64_t seed) {
  Rng rng(seed);
  FuzzShape shape;
  core::ScenarioConfig& cfg = shape.cfg;
  cfg.topology = rng.chance(0.5) ? "Iris" : "CittaStudi";
  cfg.utilization = rng.uniform(0.8, 1.2);
  cfg.seed = seed;
  cfg.trace.horizon = 300;
  cfg.trace.plan_slots = 220;
  cfg.sim.measure_from = 5;
  cfg.sim.measure_to = 60;
  cfg.sim.drain_slots = 15;
  cfg.drift = rng.chance(0.5) ? rng.uniform(0.5, 1.5) : 0.0;
  cfg.failures.node_mtbf = rng.uniform(150, 500);
  cfg.failures.link_mtbf = rng.uniform(300, 900);
  cfg.failures.repair_mean = rng.uniform(5, 30);
  cfg.failures.rescale_rate = rng.chance(0.5) ? 0.05 : 0.0;
  cfg.failures.fail_edge = rng.chance(0.3);
  if (rng.chance(0.5)) {
    // Correlated dimension: derived rack/pod shared-risk groups.
    cfg.failures.derive_groups = true;
    cfg.failures.group_mtbf = rng.uniform(400, 1200);
  }
  if (rng.chance(0.5)) {
    // Deterministic dimension: a scheduled transport maintenance window.
    workload::MaintenanceWindow w;
    w.slot = static_cast<int>(rng.uniform(10, 60));
    w.duration = static_cast<int>(rng.uniform(5, 20));
    w.tier = net::Tier::Transport;
    w.count = rng.chance(0.5) ? 1 : 2;
    cfg.failures.maintenance.push_back(w);
  }
  const double policy = rng.uniform(0.0, 1.0);
  cfg.failure_repair = policy < 0.5   ? core::RepairPolicy::Batched
                       : policy < 0.8 ? core::RepairPolicy::Migrate
                                      : core::RepairPolicy::Drop;
  shape.replan = rng.chance(0.5);
  return shape;
}

/// One full engine-driven run of the shape at the given library width
/// (pricing threads and OLIVE_THREADS) and master-LP basis.  `opt` selects
/// the OLIVE admission path — the fast-path differential below runs the
/// same shape with the memo / class-max / preempt-index shortcuts on and
/// off.
core::SimMetrics run_shape(const FuzzShape& shape, int threads,
                           lp::BasisKind basis,
                           core::OliveOptions opt = {}) {
  const ScopedOliveThreads width(threads);
  core::ScenarioConfig cfg = shape.cfg;
  cfg.plan.threads = threads;
  cfg.plan.lp.basis = basis;
  const core::Scenario sc = core::build_scenario(cfg);

  engine::EngineConfig ecfg;
  ecfg.sim = cfg.sim;
  ecfg.failures.trace = sc.failure_trace;
  ecfg.failures.repair = cfg.failure_repair;
  if (shape.replan) {
    ecfg.replan.period = 25;
    ecfg.replan.failure_burst = 4;
    ecfg.replan.plan = cfg.plan;
    ecfg.replan.plan.max_rounds = 6;
    ecfg.replan.seed = cfg.seed;
  }
  engine::Engine eng(sc.substrate, sc.apps, ecfg);
  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE", opt);
  return eng.run(algo, sc.online);
}

class FailureFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureFuzzTest, BitIdenticalAcrossThreadCounts) {
  // Every deterministic field, the fast-path counters included: admission
  // is sequential, so not even a diagnostic may move with the width.
  const FuzzShape shape = shape_from_seed(GetParam());
  const core::SimMetrics serial =
      run_shape(shape, 1, lp::BasisKind::SparseLU);
  EXPECT_GT(serial.offered, 0);
  EXPECT_GT(serial.failures, 0);
  const core::SimMetrics parallel =
      run_shape(shape, 4, lp::BasisKind::SparseLU);
  expect_metrics_identical(
      serial, parallel, "threads 1 vs 4, seed " + std::to_string(GetParam()));
}

TEST_P(FailureFuzzTest, FastPathCacheBitIdentical) {
  // The admission fast path (docs/olive-fastpath.md) under the full
  // substrate-dynamics gauntlet: failures, preemption, rescales, plan
  // hot-swaps.  Decisions must be bit-identical with it off and on; the
  // fastpath_* counters count the shortcuts themselves and are skipped.
  const FuzzShape shape = shape_from_seed(GetParam());
  core::OliveOptions off;
  off.enable_fastpath = false;
  const core::SimMetrics base =
      run_shape(shape, 1, lp::BasisKind::SparseLU, off);
  EXPECT_GT(base.offered, 0);
  expect_metrics_identical(
      base, run_shape(shape, 1, lp::BasisKind::SparseLU),
      "fastpath off vs on, seed " + std::to_string(GetParam()),
      {.fastpath = true});
}

TEST_P(FailureFuzzTest, DenseAndSparseLuCostsMatch) {
  // Cold solves are bitwise identical across basis modes, so the whole
  // failure run must be too.  Warm-started re-plan resolves only promise
  // equal *objectives* (the two modes may pick different vertices of the
  // same optimal face — see lp_differential_test WarmStartedResolvesAgree),
  // so the basis differential pins the replan-off regime.
  FuzzShape shape = shape_from_seed(GetParam());
  shape.replan = false;
  const core::SimMetrics sparse =
      run_shape(shape, 1, lp::BasisKind::SparseLU);
  const core::SimMetrics dense = run_shape(shape, 1, lp::BasisKind::Dense);
  expect_metrics_identical(
      sparse, dense, "sparse vs dense, seed " + std::to_string(GetParam()),
      {.solver_work = true});
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureFuzzTest,
                         ::testing::Values(11ULL, 23ULL, 37ULL, 58ULL,
                                           71ULL),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace olive
