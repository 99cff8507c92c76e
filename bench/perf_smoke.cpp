// perf_smoke — machine-readable performance trajectory of the hot path.
//
// Times (a) repeated PLAN-VNE plan solves (cold and column-cache-warmed) and
// (b) a short SLOTOFF window (the per-slot master re-solve loop) on the two
// topologies where SLOTOFF is tractable at quick scale (Iris, CittaStudi),
// plus (c) the fat-tree *scale* cases (FatTree4/FatTree8, 36 and 208
// substrate nodes) that pit the SparseLU basis against the Dense reference
// and measure the cross-solve basis warm start, then writes BENCH_perf.json
// so successive PRs can be compared on identical workloads.  See
// EXPERIMENTS.md "Performance smoke test" for the schema and how to diff
// runs.
//
// Knobs: the shared bench CLI (--json <path> for the output, --scale full
// for the paper-scale horizon, --reps, --threads, and --case NAME to run
// only the named cases, e.g. `perf_smoke --case replan_window`; see
// bench/common.hpp),
// plus the OLIVE_PERF_OUT / OLIVE_REPRO_FULL / OLIVE_BENCH_REPS /
// OLIVE_THREADS env equivalents.  Results are bit-identical at every
// thread count, only wall-clock moves.  The timed repetitions themselves
// always run serially — parallel reps would contend with pricing workers
// and corrupt the timings — so harness_threads is recorded as 1 here.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "bench/common.hpp"
#include "core/olive.hpp"
#include "engine/engine.hpp"
#include "workload/stream.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process peak RSS in MB (ru_maxrss is KiB on Linux).  A high-water mark,
/// not an instantaneous reading: the streamed case reports it to show the
/// 10^6-request run added no trace-proportional memory on top of the plan
/// solves that ran before it.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Counts the requests a TraceStream yields, pass-through otherwise.
class CountingStream final : public olive::workload::TraceStream {
 public:
  explicit CountingStream(olive::workload::TraceStream& inner)
      : inner_(inner) {}
  int next_slot(std::vector<olive::workload::Request>& out) override {
    const int t = inner_.next_slot(out);
    if (t >= 0) count_ += static_cast<long>(out.size());
    return t;
  }
  int end_slot() const override { return inner_.end_slot(); }
  long count() const noexcept { return count_; }

 private:
  olive::workload::TraceStream& inner_;
  long count_ = 0;
};

void print_case(const olive::bench::PerfCase& c) {
  std::cout << c.name << "," << c.topology << "," << c.basis << "," << c.reps
            << "," << olive::bench::json_num(c.seconds_total) << ","
            << c.simplex_iterations << "," << c.pricing_rounds << ","
            << c.columns_generated << "," << c.refactorizations << ","
            << c.eta_length_max << "," << c.warm_start_hits << ","
            << olive::bench::json_num(c.objective) << "," << c.replans << ","
            << c.requests << "," << olive::bench::json_num(c.requests_per_sec)
            << "," << olive::bench::json_num(c.rss_mb) << "," << c.cache_hits
            << "," << c.cache_invalidations << std::endl;
}

void accumulate(olive::bench::PerfCase& c, const olive::core::PlanSolveInfo& info,
                double seconds) {
  c.seconds_total += seconds;
  c.simplex_iterations += info.simplex_iterations;
  c.pricing_rounds += info.rounds;
  c.columns_generated += info.columns_generated;
  c.refactorizations += info.refactorizations;
  c.eta_length_max = std::max(c.eta_length_max, info.eta_length_max);
  c.warm_start_hits += info.warm_start_hit ? 1 : 0;
  c.objective = info.objective;
}

/// Every case name perf_smoke can emit, in run order (--case selects among
/// them; the per-topology cases run for every topology they cover).
const std::vector<std::string> kCases = {
    "plan_solve_cold",            "plan_solve_warm",
    "slotoff_window",             "replan_window",
    "scale_plan_cold_sparse",     "scale_plan_cold_dense",
    "scale_resolve_cold",         "scale_resolve_warm",
    "scale_xl_plan_cold_dantzig", "scale_xl_plan_cold_steepest",
    "scale_xl_stream_mmpp"};

bool any_selected(std::initializer_list<const char*> names) {
  return std::any_of(names.begin(), names.end(), [](const char* n) {
    return olive::bench::case_selected(n);
  });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace olive;
  const auto& cli = bench::parse_cli(argc, argv, kCases);
  const auto scale = cli.scale;
  bench::print_header("perf_smoke: plan-solve + SLOTOFF hot-path timings",
                      scale);
  // --reps / OLIVE_BENCH_REPS override the plan-solve repetition count (as
  // in the other benches); the default favors run-to-run comparability.
  const bool reps_overridden = cli.reps_override > 0 ||
                               std::getenv("OLIVE_BENCH_REPS") != nullptr;
  const int plan_reps = reps_overridden ? scale.reps : (scale.full ? 10 : 5);
  const int slotoff_slots = scale.full ? 60 : 25;
  const char* out_env = std::getenv("OLIVE_PERF_OUT");
  const std::string out_path = !cli.json.empty() ? cli.json
                               : out_env         ? out_env
                                                 : "BENCH_perf.json";

  const int pricing_threads = olive::default_thread_count();
  std::cout << "# pricing_threads=" << pricing_threads
            << " harness_threads=1\n";
  std::vector<bench::PerfCase> cases;
  std::cout << "case,topology,basis,reps,seconds_total,simplex_iterations,"
               "pricing_rounds,columns_generated,refactorizations,"
               "eta_length_max,warm_start_hits,objective,replans,requests,"
               "requests_per_sec,rss_mb,cache_hits,cache_invalidations\n";

  for (const std::string topo : {"Iris", "CittaStudi"}) {
    if (!any_selected({"plan_solve_cold", "plan_solve_warm", "slotoff_window"}))
      break;
    const auto cfg = bench::base_config(scale, topo, 1.0);
    const core::Scenario sc = core::build_scenario(cfg, 0);

    // (a) cold plan solves: every rep prices its columns from scratch.
    // (b) warm plan solves: the column cache carries embeddings across
    // solves, the SLOTOFF/replan regime (no basis warm start, so this row
    // stays comparable with the pre-v3 trajectory).
    for (const bool warm : {false, true}) {
      bench::PerfCase c;
      c.name = warm ? "plan_solve_warm" : "plan_solve_cold";
      if (!bench::case_selected(c.name)) continue;
      c.topology = topo;
      c.reps = plan_reps;
      core::PlanColumnCache cache;
      for (int rep = 0; rep < plan_reps; ++rep) {
        core::PlanSolveInfo info;
        const auto start = Clock::now();
        const core::Plan plan =
            core::solve_plan_vne(sc.substrate, sc.apps, sc.aggregates, cfg.plan,
                                 &info, warm ? &cache : nullptr);
        accumulate(c, info, seconds_since(start));
      }
      cases.push_back(c);
      print_case(c);
    }

    // (c) a SLOTOFF window: per-slot master re-solves on the online trace
    // truncated to the first `slotoff_slots` arrival slots, with the basis
    // carried slot to slot (production default).
    if (!bench::case_selected("slotoff_window")) continue;
    workload::Trace window;
    const int base = sc.online.empty() ? 0 : sc.online.front().arrival;
    for (const auto& r : sc.online)
      if (r.arrival - base < slotoff_slots) window.push_back(r);
    core::SimulatorConfig sim = cfg.sim;
    sim.measure_from = 0;
    sim.measure_to = slotoff_slots;
    sim.drain_slots = 0;
    core::PlanVneConfig plan = cfg.plan;
    // Same pricing-round cap run_algorithm("SlotOff") applies, so these rows
    // time the production SLOTOFF regime.
    plan.max_rounds = std::min(plan.max_rounds, 8);
    engine::Engine slotoff(sc.substrate, sc.apps,
                           engine::EngineConfig{sim, {}, {}});
    bench::PerfCase slot;
    slot.name = "slotoff_window";
    slot.topology = topo;
    const auto start = Clock::now();
    const auto m = slotoff.run_slotoff(window, plan);
    slot.seconds_total = seconds_since(start);
    slot.reps = static_cast<int>(m.plan_solves);
    slot.simplex_iterations = m.plan_simplex_iterations;
    slot.pricing_rounds = m.plan_rounds;
    slot.columns_generated = m.plan_columns_generated;
    slot.refactorizations = m.plan_refactorizations;
    slot.eta_length_max = m.plan_eta_length_max;
    slot.warm_start_hits = m.plan_warm_start_hits;
    slot.objective = m.plan_objective_sum;
    slot.rejection_rate = m.rejection_rate();
    cases.push_back(slot);
    print_case(slot);
  }

  // --- replan window -------------------------------------------------------
  // The mid-run re-planning regime on the drifting-utilization scenario:
  // an Iris OLIVE run whose online demand ramps to 2.5x the plan's
  // expectation while the engine's ReplanPolicy re-solves the trailing
  // window at two fixed boundaries (async on the pool, installs one slot
  // later, basis warm-started across re-plans).  The row reports the
  // re-plan solves' pivots/warm hits next to the SLOTOFF rows; `objective`
  // is the sum of the re-plan LP objectives (deterministic, diffed by CI).
  // The run also prints the embedder's preempt-stage counters.
  if (bench::case_selected("replan_window")) {
    auto cfg = bench::base_config(scale, "Iris", 1.0);
    cfg.drift = 1.5;
    const core::Scenario sc = core::build_scenario(cfg, 0);
    engine::EngineConfig ecfg;
    ecfg.sim = cfg.sim;
    ecfg.replan.period = (scale.horizon - scale.plan_slots) / 3;
    ecfg.replan.plan = cfg.plan;
    ecfg.replan.plan.max_rounds = 8;
    ecfg.replan.seed = cfg.seed;
    engine::Engine eng(sc.substrate, sc.apps, ecfg);
    core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
    bench::PerfCase rp;
    rp.name = "replan_window";
    rp.topology = "Iris";
    const auto start = Clock::now();
    const auto m = eng.run(algo, sc.online);
    rp.seconds_total = seconds_since(start);
    rp.reps = static_cast<int>(m.plan_solves);
    rp.replans = m.replans;
    rp.simplex_iterations = m.plan_simplex_iterations;
    rp.pricing_rounds = m.plan_rounds;
    rp.columns_generated = m.plan_columns_generated;
    rp.refactorizations = m.plan_refactorizations;
    rp.eta_length_max = m.plan_eta_length_max;
    rp.warm_start_hits = m.plan_warm_start_hits;
    rp.objective = m.plan_objective_sum;
    rp.rejection_rate = m.rejection_rate();
    cases.push_back(rp);
    print_case(rp);
    const double calls = std::max(1L, m.fastpath_preempt_calls);
    std::cout << "# replan_window preempt: " << m.fastpath_preempt_calls
              << " calls, "
              << bench::json_num(m.fastpath_preempt_scanned / calls)
              << " entries scanned and "
              << bench::json_num(m.fastpath_preempt_popped / calls)
              << " candidates popped per call, " << m.preempted
              << " preempted\n";
  }

  // --- fat-tree scale cases -------------------------------------------------
  // k=8 is several times the paper's largest topology (208 nodes, 384
  // links); here the sparse basis must show a superlinear win over the
  // dense inverse while the optima stay bit-identical (the differential
  // suite enforces the latter; this harness records both trajectories).
  for (const int k : {4, 8}) {
    if (!any_selected({"scale_plan_cold_sparse", "scale_plan_cold_dense",
                       "scale_resolve_cold", "scale_resolve_warm"}))
      break;
    const std::string topo = "FatTree" + std::to_string(k);
    auto cfg = bench::base_config(scale, topo, 1.0);
    const core::Scenario sc = core::build_scenario(cfg, 0);
    const int scale_reps = std::max(1, std::min(plan_reps, k == 8 ? 2 : 3));

    double dense_seconds = 0, sparse_seconds = 0;
    for (const auto basis : {lp::BasisKind::SparseLU, lp::BasisKind::Dense}) {
      const bool sparse = basis == lp::BasisKind::SparseLU;
      bench::PerfCase c;
      c.name = sparse ? "scale_plan_cold_sparse" : "scale_plan_cold_dense";
      if (!bench::case_selected(c.name)) continue;
      c.topology = topo;
      c.basis = sparse ? "sparse_lu" : "dense";
      c.reps = scale_reps;
      core::PlanVneConfig pcfg = cfg.plan;
      pcfg.lp.basis = basis;
      for (int rep = 0; rep < scale_reps; ++rep) {
        core::PlanSolveInfo info;
        const auto start = Clock::now();
        const core::Plan plan = core::solve_plan_vne(
            sc.substrate, sc.apps, sc.aggregates, pcfg, &info);
        accumulate(c, info, seconds_since(start));
      }
      (sparse ? sparse_seconds : dense_seconds) = c.seconds_total;
      cases.push_back(c);
      print_case(c);
    }
    if (bench::case_selected("scale_plan_cold_sparse") &&
        bench::case_selected("scale_plan_cold_dense"))
      std::cout << "# " << topo << " sparse-vs-dense cold speedup: "
                << bench::json_num(dense_seconds /
                                   std::max(1e-12, sparse_seconds))
                << "x\n";

    // Consecutive-slot regime: the same classes re-solved under drifting
    // demands (deterministic ±8% churn per rep), sharing a column cache.
    // The warm row additionally carries the basis; cold re-starts from the
    // all-slack basis every time.  Objectives are identical pairwise per
    // rep; only iteration counts and wall-clock move.
    const int churn_reps = 5;
    std::vector<std::vector<core::AggregateRequest>> churned;
    Rng churn_rng(stable_hash("perf-scale-churn"));
    for (int rep = 0; rep < churn_reps; ++rep) {
      Rng r = churn_rng.fork(static_cast<std::uint64_t>(rep) + 1);
      auto aggs = sc.aggregates;
      for (auto& a : aggs) a.demand *= r.uniform(0.92, 1.08);
      churned.push_back(std::move(aggs));
    }
    long cold_iters = 0, warm_iters = 0;
    for (const bool with_warm : {false, true}) {
      bench::PerfCase c;
      c.name = with_warm ? "scale_resolve_warm" : "scale_resolve_cold";
      if (!bench::case_selected(c.name)) continue;
      c.topology = topo;
      c.reps = churn_reps;
      core::PlanColumnCache churn_cache;
      core::PlanWarmStart warm_state;
      for (int rep = 0; rep < churn_reps; ++rep) {
        core::PlanSolveInfo info;
        const auto start = Clock::now();
        const core::Plan plan = core::solve_plan_vne(
            sc.substrate, sc.apps, churned[rep], cfg.plan, &info, &churn_cache,
            with_warm ? &warm_state : nullptr);
        accumulate(c, info, seconds_since(start));
      }
      (with_warm ? warm_iters : cold_iters) = c.simplex_iterations;
      cases.push_back(c);
      print_case(c);
    }
    if (bench::case_selected("scale_resolve_cold") &&
        bench::case_selected("scale_resolve_warm"))
      std::cout << "# " << topo << " warm-start iteration reduction: "
                << bench::json_num(
                       100.0 * (1.0 - static_cast<double>(warm_iters) /
                                          std::max(1L, cold_iters)))
                << "%\n";
  }

  // --- scale_xl: FatTree16 masters + a streamed million-request run ---------
  // The scale_xl tier (docs/engine.md): a master an order of magnitude
  // taller than the paper's topologies, where steepest-edge pricing must
  // beat Dantzig on pivots at a bit-identical objective (CI asserts both
  // from the JSON), and a serving run that pulls its >= 10^6-request trace
  // through workload::TraceStream without ever materializing it — the
  // requests/sec and peak-RSS headline.  The scenario's *history* window is
  // held short (materialized plan inputs); the streamed case carries the
  // full load through the stream instead.
  if (any_selected({"scale_xl_plan_cold_dantzig", "scale_xl_plan_cold_steepest",
                    "scale_xl_stream_mmpp"})) {
    const std::string topo = "FatTree16";
    auto cfg = bench::base_config(scale, topo, 1.0);
    cfg.trace.horizon = 160;
    cfg.trace.plan_slots = 120;
    cfg.trace.lambda_per_node = 2.0;  // 1024 edge hosts => ~2k arrivals/slot
    cfg.sim.measure_from = 5;
    cfg.sim.measure_to = 30;
    const core::Scenario sc = core::build_scenario(cfg, 0);

    long dantzig_iters = 0, steepest_iters = 0;
    for (const bool steepest : {false, true}) {
      bench::PerfCase c;
      c.name = steepest ? "scale_xl_plan_cold_steepest"
                        : "scale_xl_plan_cold_dantzig";
      if (!bench::case_selected(c.name)) continue;
      c.topology = topo;
      c.reps = 1;
      core::PlanVneConfig pcfg = cfg.plan;
      pcfg.steepest_edge_rows = 0;  // pin the rule per case
      pcfg.lp.pricing =
          steepest ? lp::PricingRule::SteepestEdge : lp::PricingRule::Dantzig;
      core::PlanSolveInfo info;
      const auto start = Clock::now();
      const core::Plan plan = core::solve_plan_vne(sc.substrate, sc.apps,
                                                   sc.aggregates, pcfg, &info);
      accumulate(c, info, seconds_since(start));
      c.rss_mb = peak_rss_mb();  // high-water mark after the master solve
      (steepest ? steepest_iters : dantzig_iters) = c.simplex_iterations;
      cases.push_back(c);
      print_case(c);
    }
    if (bench::case_selected("scale_xl_plan_cold_dantzig") &&
        bench::case_selected("scale_xl_plan_cold_steepest"))
      std::cout << "# FatTree16 steepest-edge pivot reduction vs Dantzig: "
                << bench::json_num(
                       100.0 * (1.0 - static_cast<double>(steepest_iters) /
                                          std::max(1L, dantzig_iters)))
                << "%\n";

    // Streamed serving: OLIVE against the scenario's plan (auto-upgraded to
    // steepest edge by steepest_edge_rows), fed slot by slot from the MMPP
    // stream over a horizon long enough for >= 10^6 requests.  Active
    // requests are the only per-request state run_stream keeps, so the
    // recorded rss_mb stays flat in the stream length.
    if (bench::case_selected("scale_xl_stream_mmpp")) {
      workload::TraceConfig stream_cfg = sc.config.trace;  // calibrated demand
      stream_cfg.horizon = scale.full ? 1200 : 620;        // ~2k req/slot
      stream_cfg.plan_slots = 0;
      bench::PerfCase st;
      st.name = "scale_xl_stream_mmpp";
      st.topology = topo;
      st.reps = 1;
      engine::EngineConfig ecfg;
      ecfg.sim = cfg.sim;
      ecfg.sim.measure_from = 0;
      ecfg.sim.measure_to = stream_cfg.horizon;
      ecfg.sim.drain_slots = 0;
      engine::Engine eng(sc.substrate, sc.apps, ecfg);
      core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan);
      Rng stream_rng(cfg.seed + 1);
      workload::MmppTraceStream mmpp(sc.substrate, sc.apps, stream_cfg,
                                     stream_rng);
      CountingStream stream(mmpp);
      const auto start = Clock::now();
      const auto m = eng.run_stream(algo, stream);
      st.seconds_total = seconds_since(start);
      st.requests = stream.count();
      st.requests_per_sec =
          static_cast<double>(st.requests) / std::max(1e-12, st.seconds_total);
      st.rss_mb = peak_rss_mb();
      st.objective = m.total_cost();
      st.rejection_rate = m.rejection_rate();
      st.cache_hits = m.fastpath_greedy_hits;
      st.cache_invalidations = m.fastpath_greedy_invalidations;
      cases.push_back(st);
      print_case(st);
      std::cout << "# scale_xl streamed: " << st.requests << " requests, "
                << bench::json_num(st.requests_per_sec)
                << " requests/sec, peak RSS " << bench::json_num(st.rss_mb)
                << " MB, greedy-memo hits " << st.cache_hits << " ("
                << st.cache_invalidations << " invalidations)\n";
    }
  }

  bench::write_perf_json(out_path, scale, pricing_threads, cases);
  std::cout << "# wrote " << out_path << "\n";
  return 0;
}
