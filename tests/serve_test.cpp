// The serving layer's deterministic contracts (docs/serving.md):
//  * SimulatedClock starts at the epoch and consumes zero wall entropy;
//  * the log2 latency histogram's buckets and conservative percentiles;
//  * the equivalence lockdown — serve::Server under SimulatedClock is
//    bit-identical to Engine::run_stream on the same Mmpp/Caida configs,
//    and to Engine::run with re-planning and per-request records on (the
//    two-mode determinism contract's simulated half);
//  * live serving refuses configurations it cannot honor, on the caller's
//    thread, and stop() joins a re-plan solve still in flight;
//  * pre-drawn open-loop arrival schedules are deterministic and match the
//    requested rate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/olive.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "serve/latency.hpp"
#include "serve/server.hpp"
#include "topo/topologies.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "workload/appgen.hpp"
#include "workload/caida.hpp"
#include "workload/stream.hpp"
#include "workload/tracegen.hpp"

#include "metrics_equality.hpp"

namespace olive {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- Clock

TEST(SimulatedClock, StartsAtTheEpochAndAdvancesDeterministically) {
  // Zero wall entropy: a fresh simulated clock always reads the epoch —
  // never steady_clock::now() — so two runs see identical time_points.
  serve::SimulatedClock a, b;
  EXPECT_EQ(a.now(), serve::Clock::time_point{});
  EXPECT_EQ(a.now(), b.now());
  EXPECT_TRUE(a.simulated());

  a.advance(10ms);
  b.advance(10ms);
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.now() - serve::Clock::time_point{}, 10ms);
}

TEST(SimulatedClock, SleepUntilAdvancesButNeverRewinds) {
  serve::SimulatedClock c;
  const auto t1 = serve::Clock::time_point{} + 5ms;
  c.sleep_until(t1);
  EXPECT_EQ(c.now(), t1);
  c.sleep_until(t1 - 2ms);  // a past deadline returns immediately
  EXPECT_EQ(c.now(), t1);
}

TEST(SteadyClock, IsMonotoneAndNotSimulated) {
  serve::SteadyClock c;
  EXPECT_FALSE(c.simulated());
  const auto t1 = c.now();
  const auto t2 = c.now();
  EXPECT_LE(t1, t2);
  c.sleep_until(t1);  // already past: returns immediately
}

// ------------------------------------------------------------- Histogram

TEST(LatencyHistogram, BucketsByBitWidth) {
  serve::LatencyHistogram h;
  h.record(0);     // bucket 0
  h.record(1);     // bit_width(1)=1 -> bucket 1, upper 2ns
  h.record(2);     // bit_width(2)=2 -> bucket 2, upper 4ns
  h.record(1000);  // bit_width(1000)=10 -> bucket 10, upper 1024ns
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_DOUBLE_EQ(serve::LatencyHistogram::bucket_upper_us(10), 1.024);
}

TEST(LatencyHistogram, PercentilesAreBucketUpperBounds) {
  serve::LatencyHistogram h;
  // 99 samples in bucket 1 (1-2ns), one in bucket 20 (~1ms).
  for (int i = 0; i < 99; ++i) h.record(2);
  h.record(1u << 19);  // bit_width = 20
  EXPECT_DOUBLE_EQ(h.percentile_us(0.50),
                   serve::LatencyHistogram::bucket_upper_us(2));
  EXPECT_DOUBLE_EQ(h.percentile_us(0.99),
                   serve::LatencyHistogram::bucket_upper_us(2));
  EXPECT_DOUBLE_EQ(h.percentile_us(0.999),
                   serve::LatencyHistogram::bucket_upper_us(20));
  EXPECT_DOUBLE_EQ(h.percentile_us(1.0),
                   serve::LatencyHistogram::bucket_upper_us(20));
}

TEST(LatencyHistogram, EmptyAndOverflowAreSafe) {
  serve::LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.percentile_us(0.99), 0.0);
  h.record(~std::uint64_t{0});  // clamps into the last bucket
  EXPECT_EQ(h.bucket_count(serve::LatencyHistogram::kBuckets - 1), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

// PR-10 audit pin: with total_ == 0 every percentile is defined as 0 — no
// bucket scan, no division by zero — and the property holds again right
// after a reset(), not just on a never-touched histogram.
TEST(LatencyHistogram, EmptyHistogramReportsZeroAtEveryPercentile) {
  serve::LatencyHistogram h;
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_DOUBLE_EQ(h.percentile_us(q), 0.0) << "q=" << q;
  h.record(1000);
  EXPECT_GT(h.percentile_us(0.5), 0.0);
  h.reset();
  for (const double q : {0.0, 0.5, 1.0})
    EXPECT_DOUBLE_EQ(h.percentile_us(q), 0.0) << "after reset, q=" << q;
}

// -------------------------------------------------- Equivalence lockdown

class ServeEquivalence : public ::testing::Test {
 protected:
  ServeEquivalence() : topo_rng_(42), substrate_(topo::citta_studi(topo_rng_)) {
    Rng app_rng(7);
    apps_ = workload::sample_application_set(workload::default_mix(), {},
                                             app_rng);
    config_.horizon = 600;
    config_.plan_slots = 500;
    // measure_to + drain (60 + 50) far below the horizon, so the drain cap
    // binds — the regime the run_stream equivalence contract covers.
    sim_.measure_from = 10;
    sim_.measure_to = 60;
  }

  core::SimMetrics engine_run(workload::TraceStream& stream) {
    engine::EngineConfig ec;
    ec.sim = sim_;
    engine::Engine eng(substrate_, apps_, ec);
    core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
    return eng.run_stream(algo, stream);
  }

  core::SimMetrics server_run(workload::TraceStream& stream) {
    serve::ServerConfig scfg;
    scfg.sim = sim_;
    serve::Server server(substrate_, apps_, scfg);
    core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
    const core::SimMetrics m = server.run_simulated(algo, stream);
    // Simulated runs read no wall clock: the timing diagnostic stays 0.
    EXPECT_EQ(m.algo_seconds, 0.0);
    return m;
  }

  Rng topo_rng_;
  net::SubstrateNetwork substrate_;
  std::vector<net::Application> apps_;
  workload::TraceConfig config_;
  core::SimulatorConfig sim_;
};

TEST_F(ServeEquivalence, SimulatedServerBitIdenticalToRunStreamOnMmpp) {
  Rng a(911), b(911);
  workload::MmppTraceStream s1(substrate_, apps_, config_, a);
  const core::SimMetrics engine_m = engine_run(s1);
  workload::MmppTraceStream s2(substrate_, apps_, config_, b);
  const core::SimMetrics serve_m = server_run(s2);
  expect_metrics_identical(engine_m, serve_m);
  EXPECT_GT(engine_m.offered, 0);
}

TEST_F(ServeEquivalence, SimulatedServerBitIdenticalToRunStreamOnCaida) {
  const workload::CaidaConfig caida;
  Rng a(400), b(400);
  workload::CaidaTraceStream s1(substrate_, apps_, config_, caida, a);
  const core::SimMetrics engine_m = engine_run(s1);
  workload::CaidaTraceStream s2(substrate_, apps_, config_, caida, b);
  const core::SimMetrics serve_m = server_run(s2);
  expect_metrics_identical(engine_m, serve_m);
  EXPECT_GT(engine_m.offered, 0);
}

TEST_F(ServeEquivalence, TwoSimulatedRunsAreBitIdentical) {
  // Full determinism of the serving path itself, including ServerStats.
  Rng a(1234), b(1234);
  serve::ServerConfig scfg;
  scfg.sim = sim_;
  core::SimMetrics m1, m2;
  serve::ServerStats st1, st2;
  {
    serve::Server server(substrate_, apps_, scfg);
    core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
    workload::MmppTraceStream s(substrate_, apps_, config_, a);
    m1 = server.run_simulated(algo, s);
    st1 = server.stats();
  }
  {
    serve::Server server(substrate_, apps_, scfg);
    core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
    workload::MmppTraceStream s(substrate_, apps_, config_, b);
    m2 = server.run_simulated(algo, s);
    st2 = server.stats();
  }
  expect_metrics_identical(m1, m2);
  EXPECT_EQ(st1.decided, st2.decided);
  EXPECT_EQ(st1.accepted, st2.accepted);
  EXPECT_EQ(st1.rejected, st2.rejected);
  EXPECT_EQ(st1.departed, st2.departed);
  EXPECT_EQ(st1.slots, st2.slots);
  EXPECT_EQ(st1.serve_seconds, st2.serve_seconds);  // simulated -> exact
  EXPECT_EQ(st1.admission_latency.count(),
            static_cast<std::uint64_t>(st1.decided));
  EXPECT_GT(st1.decided, 0);
}

TEST_F(ServeEquivalence, SimulatedServerWithReplanningMatchesEngineRun) {
  // Re-planning and per-request records through the serving layer: the
  // deterministic twin of live re-planning is Engine::run on the
  // materialized trace.
  engine::ReplanConfig replan;
  replan.period = 20;
  replan.install_delay = 3;
  replan.plan.max_rounds = 4;
  core::SimulatorConfig sim = sim_;
  sim.record_requests = true;

  workload::TraceGenerator gen(substrate_, apps_, config_);
  Rng a(911), b(911);
  const workload::Trace trace = gen.generate(a);
  engine::Engine eng(substrate_, apps_, engine::EngineConfig{sim, replan, {}});
  core::OliveEmbedder engine_algo(substrate_, apps_, core::Plan::empty(),
                                  "QuickG");
  const core::SimMetrics engine_m = eng.run(engine_algo, trace);

  serve::ServerConfig scfg;
  scfg.sim = sim;
  scfg.replan = replan;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder serve_algo(substrate_, apps_, core::Plan::empty(),
                                 "QuickG");
  workload::MmppTraceStream stream(substrate_, apps_, config_, b);
  const core::SimMetrics serve_m = server.run_simulated(serve_algo, stream);

  expect_metrics_identical(engine_m, serve_m);
  EXPECT_GT(engine_m.replans, 0);
  EXPECT_FALSE(engine_m.records.empty());
  EXPECT_EQ(server.stats().plan_swaps, serve_m.replans);
  // The install wait is read through the simulated clock: zero.
  EXPECT_EQ(serve_m.algo_seconds, 0.0);
  EXPECT_EQ(server.stats().swap_stall_seconds, 0.0);
}

TEST_F(ServeEquivalence, EmptyStreamYieldsEmptyMetrics) {
  const workload::Trace empty;
  workload::VectorTraceStream stream(empty, /*horizon=*/5);
  serve::ServerConfig scfg;
  scfg.sim = sim_;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
  const core::SimMetrics m = server.run_simulated(algo, stream);
  EXPECT_EQ(m.offered, 0);
  EXPECT_EQ(m.accepted, 0);
  EXPECT_TRUE(m.offered_series.empty());
}

// -------------------------------------------------- Live-mode refusals

TEST_F(ServeEquivalence, LiveStartRefusesPerRequestRecords) {
  // Records grow with uptime; a live server must say so, not ignore it.
  serve::ServerConfig scfg;
  scfg.sim = sim_;
  scfg.sim.record_requests = true;
  serve::Server server(substrate_, apps_, scfg);
  core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
  SteadyClock clock;
  EXPECT_THROW(server.start(algo, clock), InvalidArgument);
  EXPECT_FALSE(server.running());
}

TEST_F(ServeEquivalence, LiveStartRefusesAnInvalidReplanConfig) {
  // Refused on the caller's thread before the embedder is touched or a
  // slot is served: an install delay outside [1, period), and a portfolio
  // width (portfolio re-planning was removed).
  for (const bool portfolio : {false, true}) {
    serve::ServerConfig scfg;
    scfg.sim = sim_;
    scfg.replan.period = 10;
    if (portfolio) {
      scfg.replan.candidates = 2;
    } else {
      scfg.replan.install_delay = 10;  // must stay in [1, period)
    }
    serve::Server server(substrate_, apps_, scfg);
    core::OliveEmbedder algo(substrate_, apps_, core::Plan::empty(), "QuickG");
    SteadyClock clock;
    EXPECT_THROW(server.start(algo, clock), InvalidArgument) << portfolio;
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.stats().slots, 0);
  }
}

// -------------------------------------------------- Live-mode lifetime

/// Occupies every worker of the global ThreadPool until opened, so a
/// re-plan solve submitted meanwhile is queued behind the gate and cannot
/// finish before open().  The destructor opens the gate and waits until
/// every worker has let go of it, so a failed test never leaves the pool
/// blocked and no worker touches a destroyed gate.
class PoolGate {
 public:
  /// Blocks every worker; returns once all of them are held.
  void close() {
    const int workers = ThreadPool::global().workers();
    for (int i = 0; i < workers; ++i)
      ThreadPool::global().submit([this] {
        ++held_;
        while (!open_) std::this_thread::sleep_for(1ms);
        --held_;
      });
    while (held_ < workers) std::this_thread::sleep_for(1ms);
  }
  void open() { open_ = true; }
  ~PoolGate() {
    open();
    while (held_ > 0) std::this_thread::sleep_for(1ms);
  }

 private:
  std::atomic<int> held_{0};
  std::atomic<bool> open_{false};
};

/// OLIVE (empty plan at first) behind a forwarding wrapper that closes the
/// pool gate at the first plan install and then reports, from the serving
/// thread's own call sequence, when the next re-plan has been launched.
class GatingEmbedder final : public core::OnlineEmbedder {
 public:
  GatingEmbedder(const net::SubstrateNetwork& s,
                 const std::vector<net::Application>& apps, PoolGate& gate)
      : inner_(s, apps, core::Plan::empty(), "QuickG"), gate_(gate) {}

  /// True once a re-plan launched after the gate closed.  A launch happens
  /// in begin_slot before that slot's departures; once the gate is closed
  /// (inside install_plan, at slot launch + install_delay) an embed() puts
  /// the serving thread in some slot s, and the next depart() is in slot
  /// s + 1 or later — past the launch slot launch + period, since
  /// install_delay + 1 == period below.
  bool launched_behind_gate() const { return launched_; }

  std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  core::EmbedOutcome embed(const workload::Request& r) override {
    if (gated_) embedded_ = true;
    return inner_.embed(r);
  }
  void hint_arrivals(const workload::Request* batch,
                     std::size_t count) override {
    inner_.hint_arrivals(batch, count);
  }
  void depart(const workload::Request& r) override {
    if (embedded_) launched_ = true;
    inner_.depart(r);
  }
  bool install_plan(core::Plan plan) override {
    if (!gated_) {
      gate_.close();
      gated_ = true;
    }
    return inner_.install_plan(std::move(plan));
  }
  const core::LoadTracker& load() const override { return inner_.load(); }

 private:
  core::OliveEmbedder inner_;
  PoolGate& gate_;
  bool gated_ = false;    // serving thread only
  bool embedded_ = false;  // serving thread only
  std::atomic<bool> launched_{false};
};

TEST_F(ServeEquivalence, LiveStopJoinsAnInFlightReplanSolve) {
  // stop() must not return while a re-plan solve is still in flight: the
  // solve reads the serving run's policy state, and a caller may tear down
  // everything the server borrowed the moment stop() returns.  The solve
  // launched after the first install is held behind a closed pool gate, so
  // a stop() that returns before the gate opens did not join it.
  ThreadPool::global().ensure_workers(2);  // zero workers would solve inline
  serve::ServerConfig scfg;
  scfg.sim = sim_;
  scfg.slot_duration = 5ms;
  scfg.replan.period = 20;
  scfg.replan.install_delay = 19;  // launches at 20, 40; installs at 39, 59
  scfg.replan.plan.max_rounds = 2;
  workload::TraceGenerator gen(substrate_, apps_, config_);
  Rng rng(5);
  workload::Trace trace = gen.generate(rng);
  ASSERT_FALSE(trace.empty());
  for (auto& r : trace) r.duration = 1;  // every admitted slot has departures

  PoolGate gate;
  serve::Server server(substrate_, apps_, scfg);
  GatingEmbedder algo(substrate_, apps_, gate);
  SteadyClock clock;
  server.start(algo, clock);
  const auto give_up = std::chrono::steady_clock::now() + 30s;
  for (std::size_t i = 0; !algo.launched_behind_gate() &&
                          std::chrono::steady_clock::now() < give_up;
       ++i) {
    server.submit(trace[i % trace.size()]);
    if (i % 16 == 0) std::this_thread::sleep_for(100us);
  }
  ASSERT_TRUE(algo.launched_behind_gate()) << "no re-plan launched";

  std::atomic<bool> stop_returned{false};
  std::thread stopper([&] {
    server.stop(/*drain=*/false);
    stop_returned = true;
  });
  std::this_thread::sleep_for(200ms);
  const bool returned_before_the_solve_could_run = stop_returned;
  gate.open();
  stopper.join();
  EXPECT_FALSE(returned_before_the_solve_could_run)
      << "stop() returned while the re-plan solve was still queued";
  EXPECT_GE(server.stats().decided, 1);
}

// -------------------------------------------------- Open-loop schedule

TEST(OpenLoopArrivals, DeterministicAndRateMatched) {
  Rng a(99), b(99);
  const auto s1 = workload::draw_open_loop_arrivals(10000.0, 1.0, a);
  const auto s2 = workload::draw_open_loop_arrivals(10000.0, 1.0, b);
  ASSERT_EQ(s1.size(), s2.size());
  EXPECT_EQ(s1, s2);  // bitwise: pre-drawn schedules are reproducible

  // ~rate * duration arrivals (Poisson; 10 sigma of slack), strictly
  // increasing and inside [0, duration).
  EXPECT_NEAR(static_cast<double>(s1.size()), 10000.0, 1000.0);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_GE(s1[i], 0.0);
    EXPECT_LT(s1[i], 1.0);
    if (i > 0) {
      EXPECT_GT(s1[i], s1[i - 1]);
    }
  }
}

TEST(OpenLoopArrivals, RejectsNonPositiveInputs) {
  Rng rng(1);
  EXPECT_THROW(workload::draw_open_loop_arrivals(0.0, 1.0, rng),
               InvalidArgument);
  EXPECT_THROW(workload::draw_open_loop_arrivals(100.0, 0.0, rng),
               InvalidArgument);
}

}  // namespace
}  // namespace olive
