// Shared infrastructure for the figure/table reproduction binaries.
//
// Every bench prints the rows/series of one paper figure or table.  Two
// scales are supported:
//   * quick (default): reduced horizon / repetitions so the whole harness
//     finishes in minutes on a laptop;
//   * full  (--scale full, or OLIVE_REPRO_FULL=1): the paper's 6000-slot
//     traces with 5400-slot histories and more repetitions.
//
// Every bench parses one shared command line via parse_cli():
//   --scale quick|full   harness scale (env OLIVE_REPRO_FULL seeds default)
//   --reps <n>           repetition override (env OLIVE_BENCH_REPS default)
//   --topology <filter>  substring filter over swept topology names
//   --algo <filter>      substring filter over swept algorithm names
//   --json <path>        machine-readable dump of the bench's tables
//   --threads <n>        sets OLIVE_THREADS for this process
//   --case <name>        runs only that named case (repeatable; benches
//                        with named cases only, e.g. perf_smoke)
//
// Repetitions run in parallel on the shared thread pool (OLIVE_THREADS
// controls the width; 1 disables it).  Each repetition owns its RNG streams
// — build_scenario(cfg, rep) forks them from (seed, rep) — and results are
// collected into per-rep slots and consumed in rep order, so every CSV row,
// table, and aggregate is byte-identical at any thread count.
#pragma once

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/scenario.hpp"
#include "stats/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace olive::bench {

struct BenchScale {
  bool full = false;
  int reps = 3;
  int horizon = 1500;
  int plan_slots = 1200;
  int measure_from = 50;
  int measure_to = 250;
};

inline BenchScale bench_scale() {
  BenchScale s;
  const char* full = std::getenv("OLIVE_REPRO_FULL");
  if (full && std::string(full) == "1") {
    s.full = true;
    s.reps = 30;
    s.horizon = 6000;
    s.plan_slots = 5400;
    s.measure_from = 100;
    s.measure_to = 500;
  }
  if (const char* reps = std::getenv("OLIVE_BENCH_REPS")) {
    s.reps = std::max(1, std::atoi(reps));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Shared bench command line.

struct BenchCli {
  BenchScale scale;
  std::string topology;  ///< substring filter over swept topologies
  std::string algo;      ///< substring filter over swept algorithms/variants
  std::string json;      ///< machine-readable output path; empty = off
  /// The explicit --reps value, or 0 when the flag was absent (scale.reps
  /// already reflects it either way; benches with their own rep defaults
  /// check this to tell "flag given" from "scale default").
  int reps_override = 0;
  /// Open-loop bench knobs; 0 = flag absent (bench default applies).
  double duration_s = 0;
  int target_rps = 0;
  /// --case selections (validated against the bench's case names); empty =
  /// every case.
  std::vector<std::string> cases;
};

/// The parsed CLI of this bench process (set once by parse_cli).
inline BenchCli& bench_cli() {
  static BenchCli cli;
  return cli;
}

[[noreturn]] inline void cli_usage(const char* prog, int exit_code) {
  (exit_code == 0 ? std::cout : std::cerr)
      << "usage: " << prog
      << " [--scale quick|full] [--reps N] [--topology FILTER]"
         " [--algo FILTER] [--json PATH] [--threads N]"
         " [--duration-s S] [--target-rps N] [--case NAME]...\n"
         "Filters are substring matches over the names a bench sweeps;"
         " env defaults: OLIVE_REPRO_FULL=1, OLIVE_BENCH_REPS=N.\n"
         "--duration-s/--target-rps drive the open-loop serving benches\n"
         "(wall seconds and Poisson arrival rate; other benches ignore"
         " them).\n"
         "--case runs only the named case (repeatable; default: all) in a\n"
         "bench with named cases (perf_smoke).\n";
  std::exit(exit_code);
}

/// The shared flags as parsed, before any env side effect is applied.
struct CliArgs {
  std::string scale_choice;  ///< "", "quick" or "full"
  int reps = 0;              ///< 0 = flag absent
  std::string topology, algo, json;
  int threads = 0;  ///< 0 = flag absent
  /// Open-loop bench knobs (bench/serve_load.cpp): wall seconds to run and
  /// the Poisson arrival rate.  0 = flag absent (bench default applies).
  double duration_s = 0;
  int target_rps = 0;
  std::vector<std::string> cases;  ///< --case values, in order
  bool help = false;
};

/// Pure parser over argv[1..argc): fills `out` and returns true, or returns
/// false with a diagnostic in `error`.  Rejects unknown flags, missing
/// values, and malformed numbers instead of silently ignoring them; touches
/// neither the environment nor the process (unit-tested in
/// tests/bench_cli_test.cpp).
inline bool parse_cli_args(const std::vector<std::string>& args, CliArgs& out,
                           std::string& error) {
  const auto value = [&](std::size_t& i, std::string& dst) {
    if (i + 1 >= args.size()) {
      error = "flag " + args[i] + " expects a value";
      return false;
    }
    dst = args[++i];
    return true;
  };
  const auto positive_int = [&](const std::string& flag, std::size_t& i,
                                int& dst) {
    std::string v;
    if (!value(i, v)) return false;
    std::size_t consumed = 0;
    int parsed = 0;
    try {
      parsed = std::stoi(v, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != v.size() || parsed <= 0) {
      error = flag + " expects a positive integer, got '" + v + "'";
      return false;
    }
    dst = parsed;
    return true;
  };
  const auto positive_double = [&](const std::string& flag, std::size_t& i,
                                   double& dst) {
    std::string v;
    if (!value(i, v)) return false;
    std::size_t consumed = 0;
    double parsed = 0;
    try {
      parsed = std::stod(v, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != v.size() || !(parsed > 0)) {
      error = flag + " expects a positive number, got '" + v + "'";
      return false;
    }
    dst = parsed;
    return true;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--scale") {
      if (!value(i, out.scale_choice)) return false;
      if (out.scale_choice != "quick" && out.scale_choice != "full") {
        error = "--scale expects quick|full, got '" + out.scale_choice + "'";
        return false;
      }
    } else if (arg == "--reps") {
      if (!positive_int("--reps", i, out.reps)) return false;
    } else if (arg == "--topology") {
      if (!value(i, out.topology)) return false;
    } else if (arg == "--algo") {
      if (!value(i, out.algo)) return false;
    } else if (arg == "--json") {
      if (!value(i, out.json)) return false;
    } else if (arg == "--threads") {
      if (!positive_int("--threads", i, out.threads)) return false;
    } else if (arg == "--duration-s") {
      if (!positive_double("--duration-s", i, out.duration_s)) return false;
    } else if (arg == "--target-rps") {
      if (!positive_int("--target-rps", i, out.target_rps)) return false;
    } else if (arg == "--case") {
      if (!value(i, out.cases.emplace_back())) return false;
    } else if (arg == "--help" || arg == "-h") {
      out.help = true;
    } else {
      error = "unknown flag '" + arg + "'";
      return false;
    }
  }
  return true;
}

/// Checks --case selections against the case names a bench declares
/// (`known`; empty for a bench without named cases).  Returns false with a
/// diagnostic in `error` on a name the bench does not have.
inline bool check_case_names(const std::vector<std::string>& requested,
                             const std::vector<std::string>& known,
                             std::string& error) {
  for (const std::string& name : requested) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    if (known.empty()) {
      error = "--case: this bench has no named cases";
      return false;
    }
    error = "--case: unknown case '" + name + "' (known:";
    for (const std::string& k : known) error += " " + k;
    error += ")";
    return false;
  }
  return true;
}

/// Parses the shared flags (see the header comment), stores the result in
/// bench_cli(), and returns it.  Call first thing in every bench main();
/// a bench with named cases passes them as `known_cases`.  Malformed
/// command lines print the diagnostic plus usage to stderr and exit 2.
inline const BenchCli& parse_cli(
    int argc, char** argv, const std::vector<std::string>& known_cases = {}) {
  CliArgs args;
  std::string error;
  if (!parse_cli_args({argv + 1, argv + argc}, args, error) ||
      !check_case_names(args.cases, known_cases, error)) {
    std::cerr << "error: " << error << "\n";
    cli_usage(argv[0], 2);
  }
  if (args.help) cli_usage(argv[0], 0);

  if (args.scale_choice == "full") {
    setenv("OLIVE_REPRO_FULL", "1", 1);
  } else if (args.scale_choice == "quick") {
    unsetenv("OLIVE_REPRO_FULL");
  }
  if (args.threads > 0)
    setenv("OLIVE_THREADS", std::to_string(args.threads).c_str(), 1);

  BenchCli cli;
  cli.scale = bench_scale();  // env-seeded, after --scale took effect
  cli.topology = args.topology;
  cli.algo = args.algo;
  cli.json = args.json;
  if (args.reps > 0) cli.scale.reps = args.reps;
  cli.reps_override = args.reps;
  cli.duration_s = args.duration_s;
  cli.target_rps = args.target_rps;
  cli.cases = args.cases;
  bench_cli() = cli;
  return bench_cli();
}

/// Substring filter (empty filter selects everything).
inline bool selected(const std::string& filter, const std::string& name) {
  return filter.empty() || name.find(filter) != std::string::npos;
}
inline bool topology_selected(const std::string& name) {
  return selected(bench_cli().topology, name);
}
inline bool algo_selected(const std::string& name) {
  return selected(bench_cli().algo, name);
}
/// Exact-name --case filter (no --case selects every case).
inline bool case_selected(const std::string& name) {
  const auto& cases = bench_cli().cases;
  return cases.empty() ||
         std::find(cases.begin(), cases.end(), name) != cases.end();
}

/// Base scenario config at the harness scale.
inline core::ScenarioConfig base_config(const BenchScale& s,
                                        const std::string& topology,
                                        double utilization,
                                        std::uint64_t seed = 7) {
  core::ScenarioConfig cfg;
  cfg.topology = topology;
  cfg.utilization = utilization;
  cfg.seed = seed;
  cfg.trace.horizon = s.horizon;
  cfg.trace.plan_slots = s.plan_slots;
  cfg.sim.measure_from = s.measure_from;
  cfg.sim.measure_to = s.measure_to;
  return cfg;
}

struct AggregatedResult {
  stats::MeanCi rejection_rate;
  stats::MeanCi total_cost;
  stats::MeanCi resource_cost;
  stats::MeanCi rejection_cost;
  stats::MeanCi algo_seconds;
};

/// Harness-level parallelism (scenario repetitions).  Same knob as pricing:
/// OLIVE_THREADS, defaulting to hardware concurrency.
inline int harness_threads() { return default_thread_count(); }

/// Builds repetitions 0..reps-1 of `cfg` and maps `fn(scenario, rep)` over
/// them on the shared thread pool, returning the results **in rep order**
/// regardless of scheduling.  This is the one place benches set up
/// per-repetition scenarios/RNG streams; per-bench code only supplies the
/// metric extraction.  `fn` must be safe to call concurrently on distinct
/// repetitions (every bench metric is a pure function of one scenario run).
template <class Fn>
auto map_repetitions(const core::ScenarioConfig& cfg, int reps, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, const core::Scenario&, int>> {
  using R = std::invoke_result_t<Fn&, const core::Scenario&, int>;
  // vector<bool> packs elements into shared bytes, so concurrent per-rep
  // writes would race; return e.g. int or a struct instead.
  static_assert(!std::is_same_v<R, bool>,
                "map_repetitions cannot return bool (vector<bool> slots are "
                "not safe to write concurrently)");
  std::vector<R> out(static_cast<std::size_t>(std::max(0, reps)));
  const int threads = harness_threads();
  ThreadPool& pool = ThreadPool::global();
  if (threads > 1) pool.ensure_workers(threads - 1);
  pool.parallel_for(
      reps,
      [&](int rep) {
        const core::Scenario sc = core::build_scenario(cfg, rep);
        out[rep] = fn(sc, rep);
      },
      threads);
  return out;
}

/// Runs `algorithm` for `reps` repetitions of `cfg` (in parallel, see
/// map_repetitions) and aggregates.
inline AggregatedResult run_repetitions(const core::ScenarioConfig& cfg,
                                        const std::string& algorithm,
                                        int reps) {
  const auto rows = map_repetitions(
      cfg, reps, [&](const core::Scenario& sc, int) -> std::array<double, 5> {
        const auto m = core::run_algorithm(sc, algorithm);
        return {m.rejection_rate(), m.total_cost(), m.resource_cost,
                m.rejection_cost, m.algo_seconds};
      });
  std::vector<double> rej, cost, rcost, jcost, secs;
  for (const auto& r : rows) {
    rej.push_back(r[0]);
    cost.push_back(r[1]);
    rcost.push_back(r[2]);
    jcost.push_back(r[3]);
    secs.push_back(r[4]);
  }
  return {stats::mean_ci(rej), stats::mean_ci(cost), stats::mean_ci(rcost),
          stats::mean_ci(jcost), stats::mean_ci(secs)};
}

inline std::string pct(const stats::MeanCi& ci) {
  return Table::num(100 * ci.mean, 2) + " ±" + Table::num(100 * ci.half_width, 2);
}

inline std::string with_ci(const stats::MeanCi& ci, int precision = 0) {
  return Table::num(ci.mean, precision) + " ±" +
         Table::num(ci.half_width, precision);
}

inline void print_header(const std::string& what, const BenchScale& s) {
  std::cout << "# " << what << "\n"
            << "# scale=" << (s.full ? "full(paper)" : "quick") << " reps="
            << s.reps << " horizon=" << s.horizon << " plan_slots="
            << s.plan_slots << " window=[" << s.measure_from << ","
            << s.measure_to << ")\n";
}

/// Utilization sweep points: the paper's five at full scale, the three key
/// points at quick scale.
inline std::vector<double> utilization_points(const BenchScale& s) {
  if (s.full) return {0.6, 0.8, 1.0, 1.2, 1.4};
  return {0.6, 1.0, 1.4};
}

/// SLOTOFF re-solves an LP every slot, which dominates harness wall-clock on
/// the two large topologies; quick scale restricts it to Iris/CittaStudi and
/// a single repetition (documented in EXPERIMENTS.md).
inline bool slotoff_enabled(const BenchScale& s, const std::string& topology) {
  return s.full || topology == "Iris" || topology == "CittaStudi";
}

inline int algo_reps(const BenchScale& s, const std::string& algorithm) {
  if (algorithm == "SlotOff" && !s.full) return 1;
  if (algorithm == "FullG" && !s.full) return 1;
  return s.reps;
}

/// Streams one table row immediately (benches print incrementally so long
/// sweeps show progress).
inline void stream_row(Table& table, const std::vector<std::string>& cells) {
  table.add_row(cells);
  for (std::size_t i = 0; i < cells.size(); ++i)
    std::cout << (i ? "," : "") << cells[i];
  std::cout << std::endl;  // flush for live progress
}

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Writes the bench's tables to the --json path (no-op without --json):
/// `{"bench": ..., "scale": ..., "tables": [{"columns": [...],
/// "rows": [[...], ...]}, ...]}`.  Cells stay the printed strings, so the
/// dump is exactly what the CSV stream showed.
inline void write_json(const std::string& bench,
                       std::initializer_list<const Table*> tables) {
  const BenchCli& cli = bench_cli();
  if (cli.json.empty()) return;
  std::ofstream out(cli.json);
  if (!out) {
    std::cerr << "# error: cannot open --json path " << cli.json << "\n";
    std::exit(1);
  }
  out << "{\n  \"bench\": " << json_str(bench) << ",\n  \"scale\": \""
      << (cli.scale.full ? "full" : "quick") << "\",\n  \"reps\": "
      << cli.scale.reps << ",\n  \"tables\": [";
  bool first_table = true;
  for (const Table* t : tables) {
    out << (first_table ? "" : ",") << "\n    {\"columns\": [";
    first_table = false;
    for (std::size_t i = 0; i < t->header().size(); ++i)
      out << (i ? ", " : "") << json_str(t->header()[i]);
    out << "],\n     \"rows\": [";
    for (std::size_t r = 0; r < t->row_data().size(); ++r) {
      out << (r ? ",\n              " : "") << "[";
      const auto& cells = t->row_data()[r];
      for (std::size_t i = 0; i < cells.size(); ++i)
        out << (i ? ", " : "") << json_str(cells[i]);
      out << "]";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  out.flush();
  if (!out) {
    std::cerr << "# error: failed writing " << cli.json << "\n";
    std::exit(1);
  }
  std::cout << "# wrote " << cli.json << "\n";
}

// ---------------------------------------------------------------------------
// BENCH_perf.json emission (schema olive-perf-v8, see EXPERIMENTS.md).
// Shared here so the perf harness and any future bench emit identical rows.

/// One measured case of the perf trajectory.
struct PerfCase {
  std::string name;
  std::string topology;
  std::string basis = "sparse_lu";  ///< "sparse_lu" | "dense"
  int reps = 0;
  double seconds_total = 0;
  long simplex_iterations = 0;
  long pricing_rounds = 0;
  long columns_generated = 0;
  /// Basis-maintenance counters (v3): refactorizations summed over all
  /// solves, the eta-file high-water mark, and how many solves started
  /// from a carried warm basis.
  long refactorizations = 0;
  long eta_length_max = 0;
  long warm_start_hits = 0;
  /// Regression check: last solve's LP objective for plan cases, the sum
  /// of per-slot (or per-replan) LP objectives for SLOTOFF/replan windows.
  double objective = 0;
  double rejection_rate = -1;  ///< SLOTOFF/replan cases only; -1 elsewhere
  /// v4: mid-run re-plans installed by the engine's ReplanPolicy
  /// (replan_window case only; 0 elsewhere).
  long replans = 0;
  /// v5 (scale_xl streamed cases only; 0/-1 elsewhere): requests served by
  /// the streamed run and the requests/sec throughput headline — the CI
  /// smoke gates the latter against the checked-in trajectory.
  long requests = 0;
  double requests_per_sec = -1;
  /// v6: process peak RSS (getrusage ru_maxrss) after the case, recorded
  /// for every scale_xl case (plan masters and the stream) to pin the
  /// flat-memory contract; -1 elsewhere.
  double rss_mb = -1;
  /// v6 (streamed OLIVE cases only; -1 elsewhere): admission fast-path
  /// counters folded out of SimMetrics — greedy-memo hits and grow-epoch
  /// invalidations (docs/olive-fastpath.md).
  long cache_hits = -1;
  long cache_invalidations = -1;
  /// v7 (open-loop serving cases only; -1 elsewhere): admission-latency
  /// percentiles from the serve layer's log2 histogram (bucket upper
  /// bounds, docs/serving.md), submissions bounced by queue backpressure,
  /// and serving-thread milliseconds blocked inside plan hot-swaps
  /// (installed swaps ride in `replans`).
  double p50_us = -1;
  double p99_us = -1;
  double p999_us = -1;
  long queue_rejects = -1;
  double swap_stall_ms = -1;
};

inline std::string json_num(double v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

inline void write_perf_json(const std::string& path, const BenchScale& scale,
                            int pricing_threads,
                            const std::vector<PerfCase>& cases) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\": \"olive-perf-v8\",\n"
      << "  \"scale\": \"" << (scale.full ? "full" : "quick") << "\",\n"
      << "  \"pricing_threads\": " << pricing_threads << ",\n"
      << "  \"harness_threads\": 1,\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PerfCase& c = cases[i];
    out << "    {\"name\": \"" << c.name << "\", \"topology\": \""
        << c.topology << "\", \"basis\": \"" << c.basis
        << "\", \"reps\": " << c.reps
        << ", \"seconds_total\": " << json_num(c.seconds_total)
        << ", \"seconds_per_rep\": "
        << json_num(c.reps > 0 ? c.seconds_total / c.reps : 0.0)
        << ", \"simplex_iterations\": " << c.simplex_iterations
        << ", \"pricing_rounds\": " << c.pricing_rounds
        << ", \"columns_generated\": " << c.columns_generated
        << ", \"refactorizations\": " << c.refactorizations
        << ", \"eta_length_max\": " << c.eta_length_max
        << ", \"warm_start_hits\": " << c.warm_start_hits
        << ", \"objective\": " << json_num(c.objective)
        << ", \"replans\": " << c.replans
        << ", \"requests\": " << c.requests;
    // v6: the -1 sentinels mean "not measured for this case" and are no
    // longer emitted — consumers key on field presence instead of probing
    // for the magic value.
    if (c.rejection_rate >= 0)
      out << ", \"rejection_rate\": " << json_num(c.rejection_rate);
    if (c.requests_per_sec >= 0)
      out << ", \"requests_per_sec\": " << json_num(c.requests_per_sec);
    if (c.rss_mb >= 0) out << ", \"rss_mb\": " << json_num(c.rss_mb);
    if (c.cache_hits >= 0) out << ", \"cache_hits\": " << c.cache_hits;
    if (c.cache_invalidations >= 0)
      out << ", \"cache_invalidations\": " << c.cache_invalidations;
    if (c.p50_us >= 0) out << ", \"p50_us\": " << json_num(c.p50_us);
    if (c.p99_us >= 0) out << ", \"p99_us\": " << json_num(c.p99_us);
    if (c.p999_us >= 0) out << ", \"p999_us\": " << json_num(c.p999_us);
    if (c.queue_rejects >= 0)
      out << ", \"queue_rejects\": " << c.queue_rejects;
    if (c.swap_stall_ms >= 0)
      out << ", \"swap_stall_ms\": " << json_num(c.swap_stall_ms);
    out << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace olive::bench
