#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "core/load.hpp"
#include "engine/kernel.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace olive::engine {

namespace {

// SLOTOFF's wall clock, for the algo_seconds diagnostic ONLY — no
// simulation decision may read it.
using WallClock = std::chrono::steady_clock;
using core::SimMetrics;
using core::SimulatorConfig;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// Offered-demand series (demand of all requests over their lifetime, had
/// they all been accepted) — identical for every algorithm by construction.
std::vector<double> offered_series_from_trace(const workload::Trace& trace,
                                              int base, int n_slots) {
  std::vector<double> diff(static_cast<std::size_t>(n_slots) + 1, 0.0);
  for (const auto& r : trace) {
    const int a = r.arrival - base;
    if (a >= n_slots) continue;
    diff[a] += r.demand;
    diff[std::min(r.departure() - base, n_slots)] -= r.demand;
  }
  std::vector<double> out(n_slots);
  double acc = 0;
  for (int t = 0; t < n_slots; ++t) {
    acc += diff[t];
    out[t] = acc;
  }
  return out;
}

}  // namespace

Engine::Engine(const net::SubstrateNetwork& substrate,
               const std::vector<net::Application>& apps, EngineConfig config)
    : substrate_(substrate), apps_(apps), config_(std::move(config)) {}

void Engine::add_observer(Observer* observer) {
  OLIVE_REQUIRE(observer != nullptr, "observer must not be null");
  observers_.push_back(observer);
}

SimMetrics Engine::run(core::OnlineEmbedder& algo,
                       const workload::Trace& trace) {
  // The stream's horizon is the last arrival + 1, the bound the trace
  // itself implies.
  workload::VectorTraceStream stream(trace);
  return run_stream(algo, stream);
}

SimMetrics Engine::run_stream(core::OnlineEmbedder& algo,
                              workload::TraceStream& stream) {
  SteadyClock clock;
  SlotKernel kernel(substrate_, apps_, config_, algo, clock, observers_);
  return kernel.run(stream);
}

SimMetrics Engine::run_slotoff(const workload::Trace& trace,
                               const core::PlanVneConfig& plan_config,
                               bool warm_start) {
  const SimulatorConfig& sim = config_.sim;
  SimMetrics metrics = blank_metrics(substrate_, apps_, "SlotOff");
  if (trace.empty()) return metrics;

  const std::vector<double> psi = resolve_psi(substrate_, apps_, sim);
  WindowTally tally{&sim, &psi, &metrics};

  const int base = trace.front().arrival;
  // The trace is arrival-sorted (the arrival loop below relies on it), so
  // its last request bounds the horizon, as a stream's end bounds run().
  const int n_slots =
      static_cast<int>(run_slots(trace.back().arrival - base + 1, sim));
  metrics.offered_series = offered_series_from_trace(trace, base, n_slots);
  metrics.allocated_series.assign(n_slots, 0.0);

  // (app, ingress) classes maintained incrementally: membership changes only
  // on arrival, departure, and drop, instead of re-hashing every active
  // request into fresh class_of/by_class structures each slot.  Members stay
  // in arrival order, so per-class demand sums — and, after ordering the
  // solver input by each class's oldest alive member below — the whole
  // per-slot OFF-VNE instance match the former per-slot rebuild exactly.
  struct SlotClass {
    int app = -1;
    net::NodeId ingress = -1;
    std::vector<const workload::Request*> members;
  };
  std::unordered_map<long long, int> class_of;  // key -> index into classes
  std::vector<SlotClass> classes;
  const auto drop_from_class = [&](const workload::Request* r) {
    auto& members =
        classes[class_of.at(core::class_key(r->app, r->ingress))].members;
    return static_cast<long>(std::erase(members, r));
  };
  // Departure calendar; entries for already-dropped requests are no-ops.
  std::vector<std::vector<const workload::Request*>> departures(
      static_cast<std::size_t>(n_slots) + 1);
  long n_active = 0;

  core::PlanColumnCache cache;
  // Basis continuity: each slot's master starts from the previous slot's
  // optimal basis (surviving classes/columns matched by key inside
  // solve_plan_vne; arrivals and departures fall back per row — and the
  // warm-start repair absorbs capacity-row rhs changes under failures).
  core::PlanWarmStart warm;
  core::PlanWarmStart* warm_ptr = warm_start ? &warm : nullptr;
  std::size_t next = 0;

  // Substrate dynamics: SLOTOFF has no per-request repair to do — every
  // slot re-seats all active demand anyway — so failure events just update
  // the capacity view each per-slot master prices (PlanVneConfig overlay)
  // and the rounding pass seats against.  Requests on damaged elements are
  // re-seated elsewhere or dropped by the very next solve.
  const workload::FailureTrace& fail_trace = config_.failures.trace;
  const bool dynamics = !fail_trace.empty();
  if (dynamics) workload::validate_failure_trace(fail_trace, substrate_);
  CapacityView capacity(substrate_);
  std::size_t next_event = 0;
  core::PlanVneConfig overlay_config = plan_config;  // dynamics only

  for (int t = 0; t < n_slots; ++t) {
    for (Observer* o : observers_) o->on_slot_begin(t);

    // Failure events for slot t: update the capacity view before this
    // slot's solve (same slot-boundary position as Engine::run).
    while (next_event < fail_trace.size() &&
           fail_trace[next_event].slot == t) {
      const FailureRecord record = capacity.apply(fail_trace[next_event++], t);
      metrics.failures += 1;
      for (Observer* o : observers_) o->on_failure(record);
    }

    // Departures, then this slot's arrivals.
    for (const workload::Request* r : departures[t])
      n_active -= drop_from_class(r);
    while (next < trace.size() && trace[next].arrival - base == t) {
      const workload::Request& r = trace[next++];
      tally.offered(r, t);
      auto [it, inserted] = class_of.try_emplace(
          core::class_key(r.app, r.ingress), static_cast<int>(classes.size()));
      if (inserted) classes.push_back({r.app, r.ingress, {}});
      classes[it->second].members.push_back(&r);
      const int dep = r.departure() - base;
      if (dep <= n_slots) departures[dep].push_back(&r);
      ++n_active;
    }
    if (n_active == 0) continue;

    const auto start = WallClock::now();

    // Aggregate the slot's actual demand per class and solve OFF-VNE.
    // Classes are ordered by their oldest alive member (trace position),
    // which is the first-encounter order the per-slot rebuild produced.
    std::vector<const SlotClass*> alive;
    for (const auto& sc : classes)
      if (!sc.members.empty()) alive.push_back(&sc);
    std::sort(alive.begin(), alive.end(),
              [](const SlotClass* a, const SlotClass* b) {
                return a->members.front() < b->members.front();
              });
    std::vector<core::AggregateRequest> aggs;
    std::vector<const std::vector<const workload::Request*>*> members_of;
    for (const SlotClass* sc : alive) {
      core::AggregateRequest agg;
      agg.app = sc->app;
      agg.ingress = sc->ingress;
      for (const workload::Request* r : sc->members) {
        agg.demand += r->demand;
        agg.request_count += 1;
      }
      aggs.push_back(agg);
      members_of.push_back(&sc->members);
    }
    core::PlanSolveInfo solve_info;
    if (dynamics) overlay_config.capacities = capacity.capacities();
    const core::Plan plan = core::solve_plan_vne(
        substrate_, apps_, aggs, dynamics ? overlay_config : plan_config,
        &solve_info, &cache, warm_ptr);
    accumulate_solve(metrics, solve_info);

    // Round the splittable plan onto individual requests: largest first,
    // first fitting column (capacity f_k·D_c and substrate feasibility —
    // against the *current* capacities under dynamics).
    core::LoadTracker load(substrate_);
    if (dynamics)
      for (int e = 0; e < substrate_.element_count(); ++e)
        load.set_capacity(e, capacity.capacities()[e]);
    double slot_cost = 0, slot_alloc = 0;
    std::vector<const workload::Request*> dropped;
    for (int c = 0; c < plan.num_classes(); ++c) {
      auto reqs = *members_of[c];
      std::sort(reqs.begin(), reqs.end(),
                [](const auto* a, const auto* b) {
                  return a->demand > b->demand;
                });
      std::vector<double> col_cap;
      for (const auto& col : plan.cls(c).columns)
        col_cap.push_back(col.planned_demand);
      for (const workload::Request* r : reqs) {
        bool placed = false;
        for (std::size_t k = 0; k < col_cap.size(); ++k) {
          const auto& col = plan.cls(c).columns[k];
          if (col_cap[k] < r->demand - 1e-9) continue;
          if (!load.fits(col.usage, r->demand)) continue;
          load.apply(col.usage, r->demand);
          col_cap[k] -= r->demand;
          slot_cost += r->demand * col.unit_cost;
          slot_alloc += r->demand;
          placed = true;
          break;
        }
        if (!placed) dropped.push_back(r);
      }
    }

    metrics.algo_seconds += seconds_since(start);

    // Dropped requests are rejected for good (never reconsidered).
    for (const workload::Request* r : dropped) {
      const int arr = r->arrival - base;
      const bool is_new = arr == t;
      if (is_new) {
        tally.rejected(*r, arr);
      } else {
        tally.preempted(*r, arr);
      }
      n_active -= drop_from_class(r);
    }

    metrics.allocated_series[t] = slot_alloc;
    if (t >= sim.measure_from && t < sim.measure_to)
      metrics.resource_cost += slot_cost;
  }

  metrics.accepted = metrics.offered - metrics.rejected - metrics.preempted;
  return metrics;
}

}  // namespace olive::engine
