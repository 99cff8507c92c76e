// olive_bench — the OLIVE benchmark (see README.md in this directory).
//
//   olive_bench --workload plan_steady|drift_replan|live_open_loop
//               --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Every workload runs on one pinned instance of the paper's largest
// evaluation topology, 100N150E (scenario seed 7, quick-scale horizon).  The
// seed perturbs the inputs the program receives — the order of each slot's
// arrivals, and for the live workload the Poisson schedules — not the
// instance, whose own draw moves the rejection rate between 6% and 19%.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// from a separate traced run.  The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; lines before it, prefixed
// "# ", are the human-readable report.  Any failed correctness check makes
// the exit code 1.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aggregation.hpp"
#include "core/olive.hpp"
#include "core/plan_solver.hpp"
#include "core/scenario.hpp"
#include "engine/engine.hpp"
#include "probes.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workload/stream.hpp"

namespace olive::perfbench {
namespace {

// ----------------------------------------------------------------- settings

constexpr std::uint64_t kScenarioSeed = 7;
constexpr int kOnlineSlots = 300;  // test period of the quick-scale scenario
constexpr int kSetupRepeats = 3;   // setup_s is the median of these builds
constexpr double kDrift = 1.5;
constexpr int kReplanPeriodSlots = 50;  // drift_replan: 5 re-plans per run
constexpr std::uint64_t kDefaultSeed = 1;

// live_open_loop.  The slot length makes kHeavyRps deliver the scenario's
// calibrated per-slot arrivals, so the heavy phase sees plan_steady's
// admission pressure; the light phase runs on the same slots.
constexpr double kLightRps = 30000;
constexpr double kHeavyRps = 120000;
// Shares of --seconds: light phase, heavy phase, one ladder step.
constexpr double kLightShare = 0.15;
constexpr double kHeavyShare = 0.4;
constexpr double kLadderStepShare = 0.06;
// Rate ladder for the highest sustainable rate (admit_rps on this
// workload), starting at four times kHeavyRps; every step rescales the slot
// length to keep the calibrated per-slot pressure, and steps are shorter
// than a re-plan period.  The limit sits above the millisecond-scale
// scheduling stalls of a shared 4-vCPU host and below the unbounded queueing
// delay past capacity.
constexpr double kLadderFactor = 1.2;
constexpr int kLadderBisections = 3;
constexpr double kLatencyLimitUs = 50000;  // p99 limit of a passing step

const std::vector<std::string> kWorkloads = {"plan_steady", "drift_replan",
                                             "live_open_loop"};

// ------------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void fail(const std::string& what) {
    correct_ = false;
    std::cout << "# CHECK FAILED: " << what << "\n";
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  bool correct() const { return correct_; }
  long attempted = 0;
  long failed = 0;

  void print(bool traced) const {
    std::cout << "# " << (traced ? "per-layer" : "end-to-end") << " metrics:\n";
    for (const Metric& m : metrics_)
      std::cout << "#   " << m.name << " = " << num(m.value) << " " << m.unit << "\n";
    std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::cout << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": "
                << num(metrics_[i].value) << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    std::cout << "}}" << std::endl;
  }

  static std::string num(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds used so far by every thread of the process.
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

/// The same minus the calling thread's, which on the live workload is the
/// producer: the CPU the program under test has used.
double program_cpu_s() { return process_cpu_s() - cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string quantile_label(double q) {
  std::ostringstream s;
  s << "p" << q * 100;
  return s.str();
}

void print_tail(const std::string& what, const LatencyRecorder& r) {
  const double q = r.tail_quantile();
  std::cout << "#   " << what << ": p50 " << Report::num(r.percentile(0.5) / 1000)
            << " us, p90 " << Report::num(r.percentile(0.9) / 1000) << " us, p99 "
            << Report::num(r.percentile(0.99) / 1000) << " us, " << quantile_label(q) << " "
            << Report::num(r.percentile(q) / 1000)
            << " us (highest percentile with >= 10 samples beyond it; "
            << r.count() << " samples)\n";
}

/// Untraced, the end-to-end metrics are the result.  Traced, they are
/// printed on a report line for run.py's overhead table (traced minus
/// untraced) and the per-layer metrics are the result.
void add_e2e(Report& r, bool traced, const std::vector<Metric>& e2e) {
  if (!traced) {
    for (const Metric& m : e2e) r.add(m.name, m.value, m.unit);
    return;
  }
  std::cout << "# traced e2e {";
  for (std::size_t i = 0; i < e2e.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << e2e[i].name << "\": " << Report::num(e2e[i].value);
  std::cout << "}\n";
}

// -------------------------------------------------------------------- setup

core::ScenarioConfig scenario_config(bool drift) {
  core::ScenarioConfig cfg;
  cfg.topology = "100N150E";
  cfg.utilization = 1.0;
  cfg.seed = kScenarioSeed;
  cfg.trace.horizon = 1200 + kOnlineSlots;
  cfg.trace.plan_slots = 1200;
  // The whole test period is measured: no warm-up exclusion, no drain, so
  // every decision the probes see is also in SimMetrics.
  cfg.sim.measure_from = 0;
  cfg.sim.measure_to = kOnlineSlots;
  cfg.sim.drain_slots = 0;
  cfg.drift = drift ? kDrift : 0.0;
  return cfg;
}

struct Setup {
  core::Scenario sc;
  workload::Trace online;  ///< the scenario's online trace, seed-perturbed
  double setup_s = 0;
  // Traced only: the set-up layers, medians over the repeats.
  double aggregation_s = 0, plan_solve_s = 0, other_s = 0;
};

/// Builds the scenario kSetupRepeats times (plus the embedder and the
/// engine or server around it); setup_s is the median.  Traced, each repeat
/// also re-runs the aggregation and the plan solve on the built history,
/// timed on their own, and checks they reproduce the scenario's.
Setup build_setup(const core::ScenarioConfig& cfg, bool live, std::uint64_t seed,
                  SpanLog& spans, Report& report) {
  Setup out;
  std::vector<double> total, agg, solve;
  const int setup_span = spans.open("setup");
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    core::Scenario sc = core::build_scenario(cfg, 0);
    {
      core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan);
      if (live) {
        serve::Server server(sc.substrate, sc.apps, {});
      } else {
        engine::Engine eng(sc.substrate, sc.apps, {});
      }
    }
    const auto t1 = Clock::now();
    spans.add("build_scenario", setup_span, t0, t1);
    total.push_back(seconds_between(t0, t1));
    if (spans.enabled()) {
      // The same RNG fork build_scenario hands aggregate_history.
      Rng agg_rng = Rng(cfg.seed).fork(1).fork(stable_hash("aggregation"));
      core::AggregationConfig acfg = cfg.aggregation;
      acfg.horizon = cfg.trace.plan_slots;
      const auto a0 = Clock::now();
      const auto aggregates =
          core::aggregate_history(sc.history, static_cast<int>(sc.apps.size()),
                                  sc.substrate.num_nodes(), acfg, agg_rng);
      const auto a1 = Clock::now();
      core::PlanSolveInfo info;
      core::solve_plan_vne(sc.substrate, sc.apps, aggregates, cfg.plan, &info);
      const auto a2 = Clock::now();
      spans.add("aggregation", setup_span, a0, a1);
      spans.add("plan_solve", setup_span, a1, a2);
      agg.push_back(seconds_between(a0, a1));
      solve.push_back(seconds_between(a1, a2));
      report.check(aggregates.size() == sc.aggregates.size() &&
                       info.objective == sc.plan_info.objective &&
                       info.simplex_iterations == sc.plan_info.simplex_iterations,
                   "timed aggregation + plan solve reproduce build_scenario's plan");
    }
    out.sc = std::move(sc);
  }
  spans.close(setup_span);
  out.setup_s = median(total);
  out.aggregation_s = median(agg);
  out.plan_solve_s = median(solve);
  out.other_s = std::max(0.0, out.setup_s - out.aggregation_s - out.plan_solve_s);

  // The seed's perturbation: each slot's arrivals in a seeded order.  The
  // multiset of requests per slot — and so the plan's fit — is unchanged.
  out.online = out.sc.online;
  Rng order(seed);
  for (std::size_t b = 0; b < out.online.size();) {
    std::size_t e = b;
    while (e < out.online.size() && out.online[e].arrival == out.online[b].arrival) ++e;
    for (std::size_t i = e - b; i > 1; --i)
      std::swap(out.online[b + i - 1], out.online[b + order.below(i)]);
    b = e;
  }
  return out;
}

// ---------------------------------------------------------- per-layer output

/// Everything the traced run reports.  Per-run figures are means over the
/// measured runs (the live workload's "run" is its heavy phase); a layer a
/// workload does not exercise stays 0.
struct Layers {
  double runs = 0;  ///< divisor turning the sums below into per-run means
  CallTable calls;  ///< embed.* / depart / hint_arrivals / install_plan
  double wall_s = 0, olive_self_s = 0, victims = 0;
  core::FastPathStats fp;  ///< of the last run
  LatencyRecorder latency;  ///< due -> decision (sim: slot begin -> decision)
  LatencyRecorder slot_lengths;
  double slots = 0;
  double replans = 0, solve_s = 0, simplex_iterations = 0, warm_hits = 0, install_wait_s = 0;
  std::map<std::string, double> serve;  ///< live workload only
};

void add_layer_metrics(Report& r, const Layers& l, const Setup& setup, int width) {
  const double runs = std::max(1.0, l.runs);
  const auto per_run = [&](double v) { return v / runs; };
  const auto calls = [&](const char* k) -> const LatencyRecorder& {
    static const LatencyRecorder empty;
    const auto it = l.calls.find(k);
    return it == l.calls.end() ? empty : it->second;
  };
  const auto n = [&](const char* k) { return per_run(static_cast<double>(calls(k).count())); };
  const auto secs = [&](const char* k) { return per_run(calls(k).sum_ns() * 1e-9); };

  double embed_s = 0, embed_calls = 0;
  for (const char* k : {"embed.planned", "embed.borrowed", "embed.greedy", "embed.rejected"}) {
    embed_s += secs(k);
    embed_calls += n(k);
  }
  r.add("olive.embed_s", embed_s, "s");
  r.add("olive.embed.calls", embed_calls, "count");
  for (const char* kind : {"planned", "borrowed", "greedy", "rejected", "preempting"}) {
    const std::string k = std::string("embed.") + kind;
    r.add(std::string("olive.") + kind + ".n", n(k.c_str()), "count");
    r.add(std::string("olive.") + kind + ".mean_us", calls(k.c_str()).mean_ns() / 1000, "us");
  }
  r.add("olive.preempt.victims", per_run(l.victims), "count");
  r.add("olive.depart_s", secs("depart"), "s");
  r.add("olive.hint_s", secs("hint_arrivals"), "s");
  const auto ratio = [](long a, long b) {
    return a + b > 0 ? static_cast<double>(a) / static_cast<double>(a + b) : 0.0;
  };
  r.add("olive.memo_hit_ratio", ratio(l.fp.greedy_memo_hits, l.fp.greedy_memo_misses), "share");
  r.add("olive.spec_commit_ratio",
        ratio(l.fp.spec_commits, l.fp.spec_misses + l.fp.spec_serial), "share");
  r.add("olive.column_skips", static_cast<double>(l.fp.column_skips), "count");

  r.add("latency.p50_us", l.latency.percentile(0.5) / 1000, "us");
  r.add("latency.p90_us", l.latency.percentile(0.9) / 1000, "us");
  r.add("latency.p99_us", l.latency.percentile(0.99) / 1000, "us");

  r.add("engine.slots", per_run(l.slots), "count");
  r.add("engine.slot_p50_us", l.slot_lengths.percentile(0.5) / 1000, "us");
  r.add("engine.slot_p99_us", l.slot_lengths.percentile(0.99) / 1000, "us");
  r.add("engine.self_s",
        l.slots > 0 ? per_run(l.wall_s - l.olive_self_s - l.install_wait_s) : 0.0, "s");

  r.add("replan.count", per_run(l.replans), "count");
  r.add("replan.solve_s", per_run(l.solve_s), "s");
  r.add("replan.simplex_iterations", per_run(l.simplex_iterations), "count");
  r.add("replan.warm_hits", per_run(l.warm_hits), "count");
  r.add("replan.install_wait_s", per_run(l.install_wait_s), "s");

  const core::PlanSolveInfo& info = setup.sc.plan_info;
  r.add("aggregation.s", setup.aggregation_s, "s");
  r.add("plan.solve_s", setup.plan_solve_s, "s");
  r.add("plan.simplex_iterations", static_cast<double>(info.simplex_iterations), "count");
  r.add("plan.rounds", info.rounds, "count");
  r.add("plan.columns", info.columns_generated, "count");
  r.add("plan.refactorizations", static_cast<double>(info.refactorizations), "count");
  r.add("plan.us_per_iter",
        info.simplex_iterations > 0
            ? setup.plan_solve_s * 1e6 / static_cast<double>(info.simplex_iterations)
            : 0.0,
        "us");
  r.add("setup.other_s", setup.other_s, "s");

  static const char* kServe[][2] = {
      {"serve.submit_p99_ns", "ns"},     {"serve.queue_wait_p50_us", "us"},
      {"serve.queue_wait_p99_us", "us"}, {"serve.decide_p99_us", "us"},
      {"serve.batch_mean", "count"},     {"serve.busy_share", "share"},
      {"serve.queue_high_water", "count"}, {"serve.swap_stall_ms", "ms"},
      {"serve.plan_swaps", "count"},     {"serve.queue_rejects", "count"},
      {"serve.gen_late_p99_us", "us"},   {"serve.light_p50_us", "us"},
      {"serve.light_p99_us", "us"},      {"serve.max_rps", "req/s"}};
  for (const auto& [name, unit] : kServe) {
    const auto it = l.serve.find(name);
    r.add(name, it == l.serve.end() ? 0.0 : it->second, unit);
  }
  r.add("env.hardware_threads", std::thread::hardware_concurrency(), "count");
  r.add("env.width", width, "count");
}

// ------------------------------------------------------ simulated workloads

struct SimPins {
  double rejection_rate;
  double total_cost;
  OutcomeCounts counts;
};

// Values at --seed 1 on this scenario.  They move only when admission
// decisions change; a pure speed-up keeps them bit for bit.
const SimPins kPlanSteadyPins = {
    0.14214706184583314, 64047720730.989151, {262598, 15181, 21167, 41659, 5106, 6757}};
const SimPins kDriftReplanPins = {
    0.25261519942455335, 197607045971.07556, {221874, 12164, 32972, 73595, 9044, 12447}};

void run_simulated(const std::string& workload, std::uint64_t seed, double seconds,
                   bool traced, SpanLog& spans, Report& report, int width) {
  const bool drift = workload == "drift_replan";
  const core::ScenarioConfig cfg = scenario_config(drift);
  const Setup setup = build_setup(cfg, /*live=*/false, seed, spans, report);
  const core::Scenario& sc = setup.sc;

  engine::EngineConfig ecfg;
  ecfg.sim = cfg.sim;
  if (drift) {
    ecfg.replan.period = kReplanPeriodSlots;
    ecfg.replan.plan = cfg.plan;
    ecfg.replan.aggregation = cfg.aggregation;
    ecfg.replan.seed = cfg.seed;
    ecfg.replan.candidates = 1;
  }
  const auto run_once = [&](core::OnlineEmbedder& algo, engine::Engine& eng) {
    if (drift) return eng.run(algo, setup.online);
    workload::VectorTraceStream stream(setup.online);
    return eng.run_stream(algo, stream);
  };

  // Warm-up run on the bare embedder (no decorator, no observer): fills
  // caches and the thread pool, and is the reference every decorated run
  // must reproduce exactly.
  core::SimMetrics ref;
  {
    core::OliveEmbedder bare(sc.substrate, sc.apps, sc.plan);
    engine::Engine eng(sc.substrate, sc.apps, ecfg);
    ref = run_once(bare, eng);
    report.check(bare.load().min_residual() >= -1e-6, "no over-commit (bare run)");
  }

  std::vector<double> rps, wall_rps;
  LatencyRecorder latency;
  Layers layers;
  OutcomeCounts first;
  const auto bench_start = Clock::now();
  while (rps.empty() || seconds_between(bench_start, Clock::now()) < seconds) {
    core::OliveEmbedder inner(sc.substrate, sc.apps, sc.plan);
    TimedEmbedder algo(inner, traced);
    engine::Engine eng(sc.substrate, sc.apps, ecfg);
    const int run_span = spans.open("run");
    EngineProbe probe(spans, run_span);
    eng.add_observer(&probe);
    algo.due_at_slot_begin(probe.slot_begin());

    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const core::SimMetrics m = run_once(algo, eng);
    const auto t1 = Clock::now();
    const double cpu = process_cpu_s() - cpu0;
    probe.finish();
    spans.close(run_span);

    const OutcomeCounts& c = algo.counts();
    const double wall = seconds_between(t0, t1);
    rps.push_back(static_cast<double>(c.decided()) / cpu);
    wall_rps.push_back(static_cast<double>(c.decided()) / wall);
    latency.merge(algo.latency());
    report.attempted += c.decided();

    // Probe counts against SimMetrics, the run against the bare reference,
    // every run against the first.
    report.check(c.decided() == m.offered, "decided == offered");
    report.check(c.rejected == m.rejected && c.victims == m.preempted &&
                     c.accepted() - c.victims == m.accepted,
                 "decided == accepted + rejected (decorator vs SimMetrics)");
    report.check(inner.load().min_residual() >= -1e-6, "no over-commit");
    report.check(m.rejection_rate() == ref.rejection_rate() &&
                     m.total_cost() == ref.total_cost() && m.accepted == ref.accepted &&
                     m.preempted == ref.preempted,
                 "decorated run reproduces the bare run exactly");
    if (rps.size() == 1) first = c;
    report.check(c == first, "outcome counts identical across runs");
    report.check(m.replans == (drift ? 5 : 0), "re-plans installed (5 on drift_replan)");

    if (traced) {
      merge_calls(layers.calls, algo.calls());
      layers.slot_lengths.merge(probe.slot_lengths());
      layers.runs += 1;
      layers.wall_s += wall;
      // install_plan runs inside the install wait; count it there only.
      layers.olive_self_s += (static_cast<double>(algo.busy_ns()) -
                              algo.calls().at("install_plan").sum_ns()) * 1e-9;
      layers.victims += static_cast<double>(c.victims);
      layers.fp = algo.fastpath_stats();
      layers.slots += static_cast<double>(probe.slots());
      layers.replans += static_cast<double>(probe.replans());
      layers.solve_s += probe.solve_s();
      layers.simplex_iterations += static_cast<double>(probe.simplex_iterations());
      layers.warm_hits += static_cast<double>(probe.warm_hits());
      layers.install_wait_s += probe.install_wait_s();
    }
  }

  std::cout << "# " << rps.size() << " measured runs after 1 warm-up, " << first.decided()
            << " decisions each; median " << Report::num(median(wall_rps))
            << " decisions per wall second\n"
            << "# outcomes: planned " << first.planned << ", borrowed " << first.borrowed
            << ", greedy " << first.greedy << ", rejected " << first.rejected
            << ", preempting " << first.preempting << " (victims " << first.victims << ")\n"
            << "# rejection_rate " << Report::num(ref.rejection_rate()) << ", total_cost "
            << Report::num(ref.total_cost()) << "\n";
  print_tail("slot begin -> decision latency", latency);

  if (seed == kDefaultSeed) {
    const SimPins& pins = drift ? kDriftReplanPins : kPlanSteadyPins;
    report.check(ref.rejection_rate() == pins.rejection_rate &&
                     ref.total_cost() == pins.total_cost && first == pins.counts,
                 "pinned rejection_rate, total_cost and outcome counts at seed 1");
  }

  add_e2e(report, traced,
          {{"setup_s", setup.setup_s, "s"},
           {"admit_rps", median(rps), "req/s"},
           {"rejection_rate", ref.rejection_rate(), "share"},
           {"total_cost", ref.total_cost(), "cost"},
           {"peak_rss_mb", peak_rss_mb(), "MB"}});
  if (!traced) return;
  layers.latency = latency;
  std::cout << "# wall " << Report::num(layers.wall_s / layers.runs) << " s = olive self "
            << Report::num(layers.olive_self_s / layers.runs) << " + install wait "
            << Report::num(layers.install_wait_s / layers.runs) << " + engine self "
            << Report::num((layers.wall_s - layers.olive_self_s - layers.install_wait_s) /
                           layers.runs)
            << " (per run)\n";
  add_layer_metrics(report, layers, setup, width);
}

// ----------------------------------------------------------- live workload

struct PhaseResult {
  double offered_rps = 0;  ///< enqueued submissions / phase length
  double cpu_rps = 0;      ///< decisions / CPU seconds of the server's threads
  OutcomeCounts counts;
  LatencyRecorder latency;     ///< due -> decision
  LatencyRecorder queue_wait;  ///< submit -> embed entry (traced)
  LatencyRecorder decide;      ///< embed duration (traced)
  LatencyRecorder submit_ns;   ///< Server::submit call (traced)
  LatencyRecorder gen_late;    ///< due -> actual fire of the producer
  CallTable calls;
  serve::ServerStats stats;
  core::SimMetrics metrics;
  long bounces = 0;
  long backlog_at_end = 0;  ///< enqueued - decided at the last submission
  double busy_s = 0;
  long hinted = 0;
  bool ids_contiguous = true;
  bool no_overcommit = true;
};

/// One open-loop phase: a fresh embedder and server, one producer (this
/// thread) submitting a pre-drawn Poisson schedule at `rate`.
PhaseResult run_phase(const Setup& setup, const core::ScenarioConfig& cfg, double rate,
                      double seconds, double slot_s, bool replan, std::uint64_t schedule_seed,
                      bool traced, SpanLog& spans, const std::string& name) {
  const core::Scenario& sc = setup.sc;
  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 1 << 30;
  scfg.slot_duration = std::chrono::nanoseconds(static_cast<long>(slot_s * 1e9));
  // Re-plan about once a second of wall time from the trailing window, with
  // serve_load's round cap so each solve ends well within its period.
  scfg.replan.period = replan ? std::max(10, static_cast<int>(1.0 / slot_s)) : 0;
  scfg.replan.install_delay = std::max(1, scfg.replan.period / 2);
  scfg.replan.plan = cfg.plan;
  scfg.replan.plan.max_rounds = 8;
  scfg.replan.aggregation = cfg.aggregation;
  scfg.replan.seed = cfg.seed;

  Rng rng(schedule_seed);
  const std::vector<double> schedule = workload::draw_open_loop_arrivals(rate, seconds, rng);
  std::vector<Clock::time_point> due(schedule.size()), submitted(schedule.size());

  core::OliveEmbedder inner(sc.substrate, sc.apps, sc.plan);
  TimedEmbedder algo(inner, traced);
  algo.due_by_id(&due, &submitted);
  serve::Server server(sc.substrate, sc.apps, scfg);
  serve::SteadyClock clock;

  PhaseResult out;
  const int span = spans.open(name);
  server.start(algo, clock);
  const double cpu0 = program_cpu_s();
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  std::size_t enqueued = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto at = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(schedule[i]));
    // Sleep while far from the due instant, then spin: the producer owns a
    // core, and sleep granularity alone fires tens of microseconds late.
    for (auto now = Clock::now(); now < at; now = Clock::now()) {
      if (at - now > std::chrono::microseconds(300))
        std::this_thread::sleep_for(at - now - std::chrono::microseconds(200));
      else
        __builtin_ia32_pause();  // spare a hyperthread sibling while spinning
    }
    const auto fire = Clock::now();
    out.gen_late.record(ns_between(at, fire));
    due[enqueued] = at;
    submitted[enqueued] = fire;
    const serve::Server::Submit s = server.submit(setup.online[i % setup.online.size()]);
    if (traced) out.submit_ns.record(ns_between(fire, Clock::now()));
    if (s == serve::Server::Submit::Enqueued) {
      ++enqueued;
    } else {
      ++out.bounces;
    }
  }
  const long decided_at_end = algo.decided_so_far();
  out.cpu_rps = static_cast<double>(decided_at_end) / (program_cpu_s() - cpu0);
  out.backlog_at_end = static_cast<long>(enqueued) - decided_at_end;
  server.stop(/*drain=*/true);
  spans.close(span);

  out.offered_rps = static_cast<double>(enqueued) / seconds;
  out.counts = algo.counts();
  out.latency = algo.latency();
  out.queue_wait = algo.queue_wait();
  out.stats = server.stats();
  out.metrics = server.metrics();
  out.ids_contiguous = algo.ids_contiguous();
  out.no_overcommit = inner.load().min_residual() >= -1e-6;
  if (traced) {
    out.calls = algo.calls();
    for (const char* k : {"embed.planned", "embed.borrowed", "embed.greedy", "embed.rejected"})
      out.decide.merge(out.calls.at(k));
    out.busy_s = static_cast<double>(algo.busy_ns()) * 1e-9;
    out.hinted = algo.hinted();
  }
  return out;
}

void check_phase(const PhaseResult& p, const std::string& name, Report& report) {
  const serve::ServerStats& st = p.stats;
  const OutcomeCounts& c = p.counts;
  report.check(st.submitted == st.decided + st.abandoned,
               name + ": submitted == decided + abandoned");
  report.check(c.decided() == st.decided && c.accepted() == st.accepted &&
                   c.rejected == st.rejected && c.victims == st.preempted,
               name + ": decided == accepted + rejected (decorator vs ServerStats)");
  report.check(p.ids_contiguous, name + ": ids arrive as 0, 1, 2, ...");
  report.check(p.no_overcommit, name + ": no over-commit");
}

void run_live(std::uint64_t seed, double seconds, bool traced, SpanLog& spans, Report& report, int width) {
  const core::ScenarioConfig cfg = scenario_config(false);
  const Setup setup = build_setup(cfg, /*live=*/true, seed, spans, report);
  const double per_slot = static_cast<double>(setup.online.size()) / kOnlineSlots;
  const double slot_s = per_slot / kHeavyRps;
  std::cout << "# " << Report::num(per_slot) << " arrivals per calibrated slot; slot "
            << Report::num(slot_s * 1e3) << " ms in the light and heavy phases\n";

  Rng seeds = Rng(seed).fork(stable_hash("schedules"));
  // Plans are swapped in the light phase only.  After each swap every
  // planned allocation is re-classified as borrowed and new arrivals preempt
  // them for about 200 ms; at the heavy rate that burst makes the serving
  // thread fall behind by an amount that follows the host's speed, which
  // leaks into the heavy phase's gated rejection rate and cost.
  const PhaseResult light = run_phase(setup, cfg, kLightRps, kLightShare * seconds, slot_s,
                                      /*replan=*/true, seeds(), traced, spans, "phase:light");
  const PhaseResult heavy = run_phase(setup, cfg, kHeavyRps, kHeavyShare * seconds, slot_s,
                                      /*replan=*/false, seeds(), traced, spans, "phase:heavy");
  for (const auto& [p, name] : {std::pair{&light, "light"}, std::pair{&heavy, "heavy"}}) {
    check_phase(*p, name, report);
    report.attempted += p->counts.decided() + p->bounces;
    report.failed += p->bounces + p->stats.abandoned;
  }

  // Rate ladder for admit_rps, the highest sustainable rate: bracket the
  // capacity with geometric steps of kLadderFactor, then bisect the bracket
  // kLadderBisections times.  A step passes when its p99 meets the limit
  // with no bounce and no backlog beyond one limit's worth of arrivals when
  // its producer finishes.  admit_rps is the offered rate of the highest
  // passing step.
  double pass_rps = 0, pass_rate = 0, fail_rate = 0;
  std::cout << "# ladder (rate, p99 us, bounces, backlog):";
  const auto step = [&](double rate) {
    const PhaseResult p = run_phase(setup, cfg, rate, kLadderStepShare * seconds, per_slot / rate,
                                    /*replan=*/false, seeds(), false, spans, "phase:ladder");
    check_phase(p, "ladder", report);
    const double p99 = p.latency.percentile(0.99) / 1000;
    const bool pass = p.bounces == 0 && p99 <= kLatencyLimitUs &&
                      static_cast<double>(p.backlog_at_end) <= rate * kLatencyLimitUs * 1e-6;
    std::cout << " (" << static_cast<long>(rate) << ", " << static_cast<long>(p99) << ", "
              << p.bounces << ", " << p.backlog_at_end << (pass ? ")" : ", fail)");
    if (pass && rate > pass_rate) {
      pass_rate = rate;
      pass_rps = p.offered_rps;
    }
    if (!pass && (fail_rate == 0 || rate < fail_rate)) fail_rate = rate;
    return pass;
  };
  for (double rate = 4 * kHeavyRps; pass_rate == 0 || fail_rate == 0;) {
    if (rate < kLightRps || rate > 64 * kHeavyRps) break;
    rate = step(rate) ? rate * kLadderFactor : rate / kLadderFactor;
  }
  for (int i = 0; i < kLadderBisections && pass_rate > 0 && fail_rate > 0; ++i)
    step(std::sqrt(pass_rate * fail_rate));
  std::cout << "\n# ladder: highest passing rate " << Report::num(pass_rps) << " req/s\n";
  report.check(pass_rate > 0 && fail_rate > 0, "the rate ladder brackets the capacity");

  print_tail("light due -> decision latency", light.latency);
  print_tail("heavy due -> decision latency", heavy.latency);
  std::cout << "# light: plan swaps " << light.stats.plan_swaps << ", swap stall "
            << Report::num(light.stats.swap_stall_seconds * 1e3) << " ms\n"
            << "# heavy: rejection_rate " << Report::num(heavy.metrics.rejection_rate())
            << ", queue high water "
            << heavy.stats.queue_high_water << ", producer late p99 "
            << Report::num(heavy.gen_late.percentile(0.99) / 1000) << " us\n";

  add_e2e(report, traced,
          {{"setup_s", setup.setup_s, "s"},
           {"admit_rps", heavy.cpu_rps, "req/s"},
           {"rejection_rate", heavy.metrics.rejection_rate(), "share"},
           {"total_cost", heavy.metrics.total_cost(), "cost"},
           {"peak_rss_mb", peak_rss_mb(), "MB"}});
  if (!traced) return;
  Layers l;
  l.runs = 1;
  l.calls = heavy.calls;
  l.latency = heavy.latency;
  l.victims = static_cast<double>(heavy.counts.victims);
  const core::SimMetrics& hm = heavy.metrics;
  l.fp = {hm.fastpath_greedy_hits,  hm.fastpath_greedy_misses, hm.fastpath_greedy_invalidations,
          hm.fastpath_column_skips, hm.fastpath_spec_commits,  hm.fastpath_spec_misses,
          hm.fastpath_spec_serial};
  // Re-plan figures come from the light phase, the one with plan swaps.
  const core::SimMetrics& lm = light.metrics;
  l.replans = static_cast<double>(lm.replans);
  l.solve_s = lm.replan_seconds;
  l.simplex_iterations = static_cast<double>(lm.plan_simplex_iterations);
  l.warm_hits = static_cast<double>(lm.plan_warm_start_hits);
  const double serve_s = heavy.stats.serve_seconds;
  const long hints = static_cast<long>(heavy.calls.at("hint_arrivals").count());
  l.serve = {
      {"serve.submit_p99_ns", heavy.submit_ns.percentile(0.99)},
      {"serve.queue_wait_p50_us", heavy.queue_wait.percentile(0.5) / 1000},
      {"serve.queue_wait_p99_us", heavy.queue_wait.percentile(0.99) / 1000},
      {"serve.decide_p99_us", heavy.decide.percentile(0.99) / 1000},
      {"serve.batch_mean", hints ? static_cast<double>(heavy.hinted) / hints : 0.0},
      {"serve.busy_share", serve_s > 0 ? heavy.busy_s / serve_s : 0.0},
      {"serve.queue_high_water", static_cast<double>(heavy.stats.queue_high_water)},
      {"serve.swap_stall_ms", light.stats.swap_stall_seconds * 1e3},
      {"serve.plan_swaps", static_cast<double>(light.stats.plan_swaps)},
      {"serve.queue_rejects", static_cast<double>(heavy.stats.queue_rejects)},
      {"serve.gen_late_p99_us", heavy.gen_late.percentile(0.99) / 1000},
      {"serve.light_p50_us", light.latency.percentile(0.5) / 1000},
      {"serve.light_p99_us", light.latency.percentile(0.99) / 1000},
      {"serve.max_rps", pass_rps}};
  add_layer_metrics(report, l, setup, width);
}

// -------------------------------------------------------------------- main

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload plan_steady|drift_replan|live_open_loop --seed N"
               " --seconds S --trace 0|1 [--trace-out FILE]\n";
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::stoull(v);
    else if (a == "--seconds") seconds = std::stod(v);
    else if (a == "--trace") trace = std::stoi(v);
    else if (a == "--trace-out") trace_out = v;
    else return usage(argv[0]);
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) == kWorkloads.end() ||
      (trace != 0 && trace != 1) || !(seconds > 0))
    return usage(argv[0]);
  const bool traced = trace == 1;
  const bool live = workload == "live_open_loop";

  // Thread width of the library (speculation, pricing, re-plan solves),
  // pinned at two: the speculation helper and the async re-plan solve run
  // off the calling thread, and the engine -- plus the producer on the live
  // workload -- still leaves a core of a 4-core host free.  Wider widths
  // measured no faster on 100N150E and spread more from run to run.
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int width = std::max(1, std::min(2, hw - (live ? 1 : 0)));
  setenv("OLIVE_THREADS", std::to_string(width).c_str(), 1);
  std::cout << "# workload " << workload << ", seed " << seed << ", trace " << trace
            << ", hardware_threads " << hw << ", library width " << width
            << (live ? " (+1 producer thread)" : "") << "\n";

  std::cout << "# not gated, printed only (they spread beyond any bound on a shared host;"
               " perfbench/README.md): latency percentiles (light- and heavy-rate p50 and"
               " p99 too), the rate ladder's max_rps; failed_share is failed / attempted\n";

  SpanLog spans(traced);
  Report report;
  if (live)
    run_live(seed, seconds, traced, spans, report, width);
  else
    run_simulated(workload, seed, seconds, traced, spans, report, width);

  if (traced && !trace_out.empty()) {
    std::ofstream f(trace_out);
    spans.write_json(f);
    std::cout << "# spans written to " << trace_out << "\n";
  }
  report.print(traced);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace olive::perfbench

int main(int argc, char** argv) {
  try {
    return olive::perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "olive_bench: " << e.what() << "\n";
    return 1;
  }
}
