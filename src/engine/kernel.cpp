#include "engine/kernel.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "core/load.hpp"
#include "util/error.hpp"

namespace olive::engine {

namespace {

/// Per-unit-demand usage an allocation places on one element (0 if none).
double usage_on(const core::Usage& usage, int element) {
  for (const auto& [e, amount] : usage)
    if (e == element) return amount;
  return 0.0;
}

void fold_fastpath(core::SimMetrics& metrics,
                   const core::OnlineEmbedder& algo) {
  const core::FastPathStats fp = algo.fastpath_stats();
  metrics.fastpath_greedy_hits = fp.greedy_memo_hits;
  metrics.fastpath_greedy_misses = fp.greedy_memo_misses;
  metrics.fastpath_greedy_invalidations = fp.greedy_memo_invalidations;
  metrics.fastpath_column_skips = fp.column_skips;
  metrics.fastpath_preempt_calls = fp.preempt_calls;
  metrics.fastpath_preempt_scanned = fp.preempt_scanned;
  metrics.fastpath_preempt_popped = fp.preempt_popped;
}

}  // namespace

std::vector<double> resolve_psi(const net::SubstrateNetwork& substrate,
                                const std::vector<net::Application>& apps,
                                const core::SimulatorConfig& config) {
  if (!config.psi_per_app.empty()) {
    OLIVE_REQUIRE(config.psi_per_app.size() == apps.size(),
                  "psi_per_app size mismatch");
    return config.psi_per_app;
  }
  std::vector<double> psi(apps.size());
  for (std::size_t a = 0; a < apps.size(); ++a)
    psi[a] = core::default_psi(substrate, apps[a].topology);
  return psi;
}

core::SimMetrics blank_metrics(const net::SubstrateNetwork& substrate,
                               const std::vector<net::Application>& apps,
                               const std::string& algorithm) {
  core::SimMetrics metrics;
  metrics.algorithm = algorithm;
  metrics.rejected_by_node_app.assign(
      substrate.num_nodes(), std::vector<double>(apps.size(), 0.0));
  metrics.requests_by_node.assign(substrate.num_nodes(), 0.0);
  return metrics;
}

void accumulate_solve(core::SimMetrics& metrics,
                      const core::PlanSolveInfo& info) {
  metrics.plan_solves += 1;
  metrics.plan_simplex_iterations += info.simplex_iterations;
  metrics.plan_rounds += info.rounds;
  metrics.plan_columns_generated += info.columns_generated;
  metrics.plan_objective_sum += info.objective;
  metrics.plan_warm_start_hits += info.warm_start_hit ? 1 : 0;
  metrics.plan_refactorizations += info.refactorizations;
  metrics.plan_eta_length_max =
      std::max(metrics.plan_eta_length_max, info.eta_length_max);
}

std::int64_t run_slots(std::int64_t last_arrival_end,
                       const core::SimulatorConfig& sim) {
  std::int64_t n = std::max<std::int64_t>(last_arrival_end, sim.measure_to);
  if (sim.drain_slots >= 0)
    n = std::min<std::int64_t>(n, std::int64_t{sim.measure_to} +
                                      sim.drain_slots);
  return n;
}

void WindowTally::offered(const workload::Request& r, std::int64_t slot) {
  if (!in_window(slot)) return;
  ++metrics->offered;
  metrics->offered_demand += r.demand;
  metrics->requests_by_node[r.ingress] += 1;
}

void WindowTally::rejected(const workload::Request& r,
                           std::int64_t arrival_slot) {
  if (in_window(arrival_slot)) lost(r, metrics->rejected);
}

void WindowTally::preempted(const workload::Request& r,
                            std::int64_t arrival_slot) {
  if (in_window(arrival_slot)) lost(r, metrics->preempted);
}

void WindowTally::lost(const workload::Request& r, long& counter) {
  ++counter;
  metrics->rejected_demand += r.demand;
  metrics->rejection_cost += (*psi)[r.app] * r.demand * r.duration;
  metrics->rejected_by_node_app[r.ingress][r.app] += 1;
}

CapacityView::CapacityView(const net::SubstrateNetwork& substrate)
    : substrate_(substrate),
      down_(substrate.element_count(), 0),
      factor_(substrate.element_count(), 1.0) {
  capacity_.reserve(substrate.element_count());
  for (int e = 0; e < substrate.element_count(); ++e)
    capacity_.push_back(substrate.element_capacity(e));
}

FailureRecord CapacityView::apply(const workload::FailureEvent& ev,
                                  int slot) {
  FailureRecord record;
  record.event = ev;
  record.slot = slot;
  const auto e = static_cast<std::size_t>(ev.element);
  record.capacity_before = capacity_[e];
  switch (ev.kind) {
    case workload::FailureKind::NodeDown:
    case workload::FailureKind::LinkDown:
      down_[e] = 1;
      break;
    case workload::FailureKind::NodeUp:
    case workload::FailureKind::LinkUp:
      down_[e] = 0;
      break;
    case workload::FailureKind::Rescale:
      factor_[e] = ev.factor;
      break;
  }
  capacity_[e] =
      down_[e] ? 0.0 : substrate_.element_capacity(ev.element) * factor_[e];
  record.capacity_after = capacity_[e];
  return record;
}

SlotKernel::SlotKernel(const net::SubstrateNetwork& substrate,
                       const std::vector<net::Application>& apps,
                       EngineConfig config, core::OnlineEmbedder& algo,
                       Clock& clock, std::vector<Observer*> observers,
                       std::size_t series_window)
    : substrate_(substrate),
      apps_(apps),
      config_(std::move(config)),
      algo_(algo),
      clock_(clock),
      observers_(std::move(observers)),
      series_window_(series_window),
      psi_(resolve_psi(substrate, apps, config_.sim)),
      metrics_(blank_metrics(substrate, apps, algo.name())),
      tally_{&config_.sim, &psi_, &metrics_},
      replan_(substrate, apps, config_.replan),
      migrator_(substrate, apps),
      capacity_(substrate) {
  // Without a failure trace the kernel keeps no per-allocation
  // usage/embedding snapshots.
  dynamics_ = !config_.failures.trace.empty();
  if (dynamics_)
    workload::validate_failure_trace(config_.failures.trace, substrate_);
  algo_.reset();
}

double SlotKernel::elapsed_since(Clock::time_point start) {
  return std::chrono::duration<double>(clock_.now() - start).count();
}

core::SimMetrics SlotKernel::run(workload::TraceStream& stream,
                                 const std::function<void()>& after_slot) {
  // Pull until the first arrival; its slot becomes slot 0.
  std::vector<workload::Request> slot_buf;
  int cur = stream.next_slot(slot_buf);
  while (cur >= 0 && slot_buf.empty()) cur = stream.next_slot(slot_buf);
  if (cur < 0) return finalize();  // the stream carries no requests at all
  const int base = cur;

  horizon_ = run_slots(stream.end_slot() - base, config_.sim);
  for (std::int64_t t = 0; t < horizon_; ++t) {
    begin_slot(t);
    // The slot buffer is exactly the hint_arrivals batch: it stays
    // untouched until every one of its requests has gone through embed().
    if (cur >= 0 && cur - base == t) {
      admit(slot_buf.data(), slot_buf.size());
      cur = stream.next_slot(slot_buf);
    }
    end_slot();
    if (after_slot) after_slot();
  }
  return finalize();
}

void SlotKernel::begin_slot(std::int64_t t) {
  OLIVE_ASSERT(t > t_);
  t_ = t;
  now_ = &calendar_[t];
  for (Observer* o : observers_) o->on_slot_begin(static_cast<int>(t));

  // 1. Re-plan install.  The install slot is fixed by the policy, so the
  // swap happens at the same slot whether the async solve finished long ago
  // or the wait has to block for it — bit-identical results at every
  // thread count.  Slot t is the first slot served by the new plan.
  if (replan_.pending_install_slot() == t) install_replan();

  // 2. Substrate failure events for slot t (docs/failures.md).
  const workload::FailureTrace& fails = config_.failures.trace;
  while (next_event_ < fails.size() && fails[next_event_].slot == t)
    apply_failure(fails[next_event_++]);

  // 3. Re-plan launch, only while the install slot still falls inside the
  // run.  Capacity-aware re-planning prices against the capacity view as of
  // this slot (its failure events already applied above).
  if (replan_.wants_launch(t) &&
      t + config_.replan.install_delay < horizon_) {
    const auto start = clock_.now();
    std::vector<double> capacities;
    if (dynamics_ && config_.replan.capacity_aware)
      capacities = algo_.load().capacities();
    replan_.launch(t, capacities);
    metrics_.algo_seconds += elapsed_since(start);
  }

  // 4. Departures (ids no longer active were preempted or dropped).
  const auto start = clock_.now();
  for (const workload::RequestId id : now_->departures) {
    const auto it = active_.find(id);
    if (it == active_.end()) continue;
    algo_.depart(it->second.req);
    active_cost_ -= it->second.req.demand * it->second.unit_cost;
    active_.erase(it);
    ++counts_.departed;
  }
  metrics_.algo_seconds += elapsed_since(start);
}

void SlotKernel::install_replan() {
  const auto start = clock_.now();
  ReplanPolicy::Result res = replan_.collect();
  const bool installed = algo_.install_plan(std::move(res.plan));
  const double wait = elapsed_since(start);
  metrics_.algo_seconds += wait;
  install_wait_s_ += wait;
  res.event.installed = installed;
  if (installed) {
    metrics_.replans += 1;
    metrics_.replan_seconds += res.event.solve_seconds;
    accumulate_solve(metrics_, res.event.info);
  } else {
    replan_.disable();  // the embedder has no plan to swap
  }
  for (Observer* o : observers_) o->on_replan(res.event);
}

void SlotKernel::apply_failure(const workload::FailureEvent& ev) {
  // Update the embedder's capacity view, then migrate or drop every
  // embedding the event broke.  Trace-driven and single-threaded, so runs
  // stay bit-identical at every thread count.
  const auto start = clock_.now();
  FailureRecord record = capacity_.apply(ev, static_cast<int>(t_));
  OLIVE_REQUIRE(algo_.set_element_capacity(ev.element, record.capacity_after),
                "embedder does not support substrate dynamics "
                "(set_element_capacity)");
  metrics_.failures += 1;

  // Embeddings broken by the event: everything touching a down element;
  // for a rescale, the newest allocations that keep the element
  // over-committed (older allocations keep their service).
  std::vector<workload::RequestId> broken;
  const bool rescale = ev.kind == workload::FailureKind::Rescale;
  if (rescale || ev.kind == workload::FailureKind::NodeDown ||
      ev.kind == workload::FailureKind::LinkDown)
    for (const auto& [id, a] : active_)
      if (usage_on(a.footprint->usage, ev.element) > 0) broken.push_back(id);
  if (rescale) {
    std::sort(broken.begin(), broken.end(), std::greater<>());
    double residual = algo_.load().residual(ev.element);
    std::size_t n = 0;
    for (; n < broken.size() && residual < -1e-6; ++n) {
      const Active& a = active_.at(broken[n]);
      residual += usage_on(a.footprint->usage, ev.element) * a.req.demand;
    }
    broken.resize(n);
  }
  std::sort(broken.begin(), broken.end());  // repairs run in id order

  // Evict every broken allocation first, then repair — each repair prices
  // against the fully freed residual.
  for (const workload::RequestId id : broken) {
    const Active& a = active_.at(id);
    algo_.depart(a.req);
    active_cost_ -= a.req.demand * a.unit_cost;
  }
  record.affected = static_cast<int>(broken.size());
  metrics_.failure_hit += record.affected;
  const core::RepairPolicy policy = config_.failures.repair;

  // Adopts a replacement embedding and does all the bookkeeping; false
  // leaves the request to the fallback / drop path.
  const auto try_adopt = [&](Active& a, const net::Embedding& moved,
                             core::RepairStage stage) {
    auto out = algo_.adopt(a.req, moved);
    if (!out) return false;
    // adopt must fit the residuals as-is (no preemption) — the kernel has
    // no accounting for victims it didn't see.
    OLIVE_ASSERT(out->preempted_ids.empty());
    a.unit_cost = out->unit_cost;
    a.footprint->usage = std::move(out->usage);
    a.footprint->embedding = std::move(out->embedding);
    active_cost_ += a.req.demand * a.unit_cost;
    metrics_.migrations += 1;
    record.migrated += 1;
    switch (stage) {
      case core::RepairStage::Patched:
        ++record.patched;
        ++metrics_.repairs_patched;
        break;
      case core::RepairStage::Reembedded:
        ++record.reembedded;
        ++metrics_.repairs_reembedded;
        break;
      case core::RepairStage::Batched:
        ++record.batched;
        ++metrics_.repairs_batched;
        break;
      case core::RepairStage::None:
        break;
    }
    return true;
  };

  // Batched policy: one joint min-cost re-assignment over the freed
  // residuals (Migrator::plan_batch); requests the batch cannot seat fall
  // through to the staged per-request ladder below.
  std::vector<std::optional<net::Embedding>> batch;
  if (policy == core::RepairPolicy::Batched && broken.size() >= 2) {
    std::vector<const workload::Request*> reqs;
    reqs.reserve(broken.size());
    for (const workload::RequestId id : broken)
      reqs.push_back(&active_.at(id).req);
    batch = migrator_.plan_batch(reqs, algo_.load());
  }

  for (std::size_t bi = 0; bi < broken.size(); ++bi) {
    const auto it = active_.find(broken[bi]);
    Active& a = it->second;
    bool repaired = false;
    if (policy != core::RepairPolicy::Drop) {
      if (bi < batch.size() && batch[bi].has_value())
        repaired = try_adopt(a, *batch[bi], core::RepairStage::Batched);
      if (!repaired) {
        core::RepairStage stage = core::RepairStage::None;
        if (auto moved = migrator_.repair(a.req, a.footprint->embedding,
                                          algo_.load(), &stage))
          repaired = try_adopt(a, *moved, stage);
      }
    }
    if (repaired) continue;
    // SLA violation: the embedding is gone for good (the request is never
    // reconsidered), accounted like a preemption.
    metrics_.sla_violations += 1;
    record.dropped += 1;
    cancel(a);
    active_.erase(it);
  }
  replan_.note_failure_impact(record.affected);
  metrics_.algo_seconds += elapsed_since(start);
  for (Observer* o : observers_) o->on_failure(record);
}

void SlotKernel::cancel(const Active& a) {
  const workload::Request& r = a.req;
  now_->allocated -= r.demand;  // stops consuming now...
  calendar_[a.arrival_slot + r.duration].allocated +=
      r.demand;  // ...instead of at its departure
  tally_.preempted(r, a.arrival_slot);
  if (config_.sim.record_requests) {
    const auto it = record_index_.find(r.id);
    if (it != record_index_.end())
      metrics_.records[it->second].preempted_at = static_cast<int>(t_);
  }
}

void SlotKernel::admit(const workload::Request* batch, std::size_t n,
                       Clock::time_point* decided_at) {
  if (n == 0) return;
  // The re-plan demand feed costs nothing while re-planning is off.
  if (replan_.enabled()) replan_.observe(batch, n, t_);
  // The whole batch is announced first (an advisory hook; the built-in
  // embedders ignore it), then embed() decides each request in order.
  const auto hint_start = clock_.now();
  algo_.hint_arrivals(batch, n);
  auto last = clock_.now();
  metrics_.algo_seconds +=
      std::chrono::duration<double>(last - hint_start).count();

  const int slot = static_cast<int>(
      std::min<std::int64_t>(t_, std::numeric_limits<int>::max()));
  for (std::size_t i = 0; i < n; ++i) {
    const workload::Request& r = batch[i];
    SlotEntry& leaves = calendar_[t_ + r.duration];
    now_->offered += r.demand;
    leaves.offered -= r.demand;
    tally_.offered(r, t_);

    const auto start = decided_at ? last : clock_.now();  // see kernel.hpp
    core::EmbedOutcome outcome = algo_.embed(r);
    const auto decided = clock_.now();
    metrics_.algo_seconds +=
        std::chrono::duration<double>(decided - start).count();
    if (decided_at) decided_at[i] = last = decided;
    ++counts_.decided;

    if (config_.sim.record_requests) {
      record_index_[r.id] = metrics_.records.size();
      metrics_.records.push_back({r.id, slot, r.duration, r.app, r.ingress,
                                  r.demand, outcome.kind, -1});
    }
    for (Observer* o : observers_) o->on_outcome(r, outcome, slot);

    if (!outcome.accepted()) {
      tally_.rejected(r, t_);
      ++counts_.rejected;
      continue;
    }
    ++counts_.accepted;
    Active accepted{r, outcome.unit_cost, t_, nullptr};
    if (dynamics_) {
      // The observers above already saw the outcome; from here ownership
      // transfers to the kernel's per-allocation snapshot.
      accepted.footprint = std::make_unique<Footprint>(Footprint{
          std::move(outcome.usage), std::move(outcome.embedding)});
    }
    active_.emplace(r.id, std::move(accepted));
    active_cost_ += r.demand * outcome.unit_cost;
    now_->allocated += r.demand;
    leaves.allocated -= r.demand;
    leaves.departures.push_back(r.id);

    for (const workload::RequestId victim_id : outcome.preempted_ids) {
      const auto vit = active_.find(victim_id);
      OLIVE_ASSERT(vit != active_.end());
      active_cost_ -= vit->second.req.demand * vit->second.unit_cost;
      cancel(vit->second);
      active_.erase(vit);
      ++counts_.preempted;
    }
  }
}

void SlotKernel::end_slot() {
  const core::SimulatorConfig& sim = config_.sim;
  if (t_ >= sim.measure_from && t_ < sim.measure_to)
    metrics_.resource_cost += active_cost_;
  offered_now_ += now_->offered;
  allocated_now_ += now_->allocated;
  if (series_window_ > 0) {
    offered_series_.push_back(offered_now_);
    allocated_series_.push_back(allocated_now_);
    if (offered_series_.size() > series_window_) {
      offered_series_.pop_front();
      allocated_series_.pop_front();
    }
  }
  calendar_.erase(t_);
  now_ = nullptr;
}

core::SimMetrics SlotKernel::finalize() {
  // `accepted` counted arrivals anywhere; restrict to the window.
  metrics_.accepted =
      metrics_.offered - metrics_.rejected - metrics_.preempted;
  metrics_.offered_series.assign(offered_series_.begin(),
                                 offered_series_.end());
  metrics_.allocated_series.assign(allocated_series_.begin(),
                                   allocated_series_.end());
  fold_fastpath(metrics_, algo_);
  return std::move(metrics_);
}

}  // namespace olive::engine
