// The scale_xl streaming contracts (workload/stream.hpp, Engine::run_stream):
// with the same seed, the streamed and materialized trace paths are
// bit-identical — identical request vectors from the generators, identical
// SimMetrics from the engine, with per-request records, failure traces and
// re-planning too — and the CAIDA generator is deterministic across
// identical RNG forks.
#include <gtest/gtest.h>

#include <vector>

#include "core/olive.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "topo/topologies.hpp"
#include "workload/appgen.hpp"
#include "workload/caida.hpp"
#include "workload/failures.hpp"
#include "workload/stream.hpp"
#include "workload/tracegen.hpp"

#include "metrics_equality.hpp"

namespace olive {
namespace {

void expect_traces_identical(const workload::Trace& a,
                             const workload::Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "request " << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << "request " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "request " << i;
    EXPECT_EQ(a[i].ingress, b[i].ingress) << "request " << i;
    EXPECT_EQ(a[i].app, b[i].app) << "request " << i;
    EXPECT_EQ(a[i].demand, b[i].demand) << "request " << i;  // bitwise
  }
}

class StreamFixture : public ::testing::Test {
 protected:
  StreamFixture() : topo_rng_(42), substrate_(topo::citta_studi(topo_rng_)) {
    Rng app_rng(7);
    apps_ = workload::sample_application_set(workload::default_mix(), {},
                                             app_rng);
    config_.horizon = 600;
    config_.plan_slots = 500;
  }
  Rng topo_rng_;
  net::SubstrateNetwork substrate_;
  std::vector<net::Application> apps_;
  workload::TraceConfig config_;
};

TEST_F(StreamFixture, MmppStreamMatchesMaterializedGenerator) {
  workload::TraceGenerator gen(substrate_, apps_, config_);
  Rng a(123), b(123);
  const workload::Trace materialized = gen.generate(a);
  workload::MmppTraceStream stream(substrate_, apps_, config_, b);
  EXPECT_EQ(stream.end_slot(), config_.horizon);
  const workload::Trace streamed = workload::materialize(stream);
  expect_traces_identical(materialized, streamed);
}

TEST_F(StreamFixture, CaidaStreamMatchesMaterializedGenerator) {
  const workload::CaidaConfig caida;
  Rng a(400), b(400);
  const workload::Trace materialized =
      workload::generate_caida_trace(substrate_, apps_, config_, caida, a);
  workload::CaidaTraceStream stream(substrate_, apps_, config_, caida, b);
  const workload::Trace streamed = workload::materialize(stream);
  expect_traces_identical(materialized, streamed);
}

TEST_F(StreamFixture, CaidaGeneratorDeterministicAcrossIdenticalForks) {
  // fork() is const on the parent: forking the same tag twice yields two
  // independent-but-identical generators, so trace generation is a pure
  // function of (parent state, tag) no matter how many consumers fork.
  const Rng root(777);
  Rng f1 = root.fork(stable_hash("caida-trace"));
  Rng f2 = root.fork(stable_hash("caida-trace"));
  const workload::Trace t1 =
      workload::generate_caida_trace(substrate_, apps_, config_, {}, f1);
  const workload::Trace t2 =
      workload::generate_caida_trace(substrate_, apps_, config_, {}, f2);
  expect_traces_identical(t1, t2);
}

TEST_F(StreamFixture, VectorStreamRoundTrips) {
  workload::TraceGenerator gen(substrate_, apps_, config_);
  Rng rng(321);
  const workload::Trace trace = gen.generate(rng);
  workload::VectorTraceStream stream(trace);
  EXPECT_EQ(stream.end_slot(), trace.back().arrival + 1);
  const workload::Trace replayed = workload::materialize(stream);
  expect_traces_identical(trace, replayed);
}

TEST_F(StreamFixture, RunStreamBitIdenticalToRun) {
  workload::TraceGenerator gen(substrate_, apps_, config_);
  Rng a(911);
  const workload::Trace trace = gen.generate(a);

  // measure_to + drain (60 + 50) is far below the 600-slot horizon, so the
  // drain cap binds for every path.
  engine::EngineConfig plain;
  plain.sim.measure_from = 10;
  plain.sim.measure_to = 60;

  engine::EngineConfig records = plain;
  records.sim.record_requests = true;

  engine::EngineConfig failures = plain;
  workload::FailureConfig fcfg;
  fcfg.node_mtbf = 60;
  fcfg.link_mtbf = 60;
  fcfg.repair_mean = 10;
  fcfg.rescale_rate = 0.1;
  Rng fail_rng(5);
  failures.failures.trace =
      workload::generate_failure_trace(substrate_, fcfg, 110, fail_rng);
  ASSERT_FALSE(failures.failures.trace.empty());

  engine::EngineConfig replan = plain;
  replan.replan.period = 20;
  replan.replan.install_delay = 3;
  replan.replan.plan.max_rounds = 4;

  struct Case {
    const char* name;
    engine::EngineConfig config;
  };
  for (const Case& c : {Case{"plain", plain}, Case{"records", records},
                        Case{"failures", failures}, Case{"replan", replan}}) {
    SCOPED_TRACE(c.name);
    engine::Engine eng(substrate_, apps_, c.config);

    core::OliveEmbedder run_algo(substrate_, apps_, core::Plan::empty(),
                                 "QuickG");
    const core::SimMetrics run_metrics = eng.run(run_algo, trace);

    {  // replayed materialized trace, with the generator's longer horizon
      core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(),
                               "QuickG");
      workload::VectorTraceStream stream(trace, config_.horizon);
      const core::SimMetrics m = eng.run_stream(algo, stream);
      expect_metrics_identical(run_metrics, m);
    }
    {  // live generator stream, same seed: never materializes the trace
      core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(),
                               "QuickG");
      Rng b(911);
      workload::MmppTraceStream stream(substrate_, apps_, config_, b);
      const core::SimMetrics m = eng.run_stream(algo, stream);
      expect_metrics_identical(run_metrics, m);
    }

    // Each case really exercises its feature.
    if (c.config.sim.record_requests) {
      EXPECT_FALSE(run_metrics.records.empty());
    }
    if (!c.config.failures.trace.empty()) {
      EXPECT_GT(run_metrics.failures, 0);
      EXPECT_GT(run_metrics.failure_hit, 0);
    }
    if (c.config.replan.period > 0) {
      EXPECT_GT(run_metrics.replans, 0);
    }
  }
}

}  // namespace
}  // namespace olive
