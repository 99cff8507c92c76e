#include "engine/replan.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace olive::engine {

workload::Trace clip_window(const workload::Trace& trace, int base,
                            std::int64_t from, std::int64_t slot) {
  // Clip every request whose activity overlaps [from, slot) to the window
  // and re-base it to window coordinates — exactly the per-slot demand the
  // aggregation percentile estimator expects.  Boundary semantics (pinned
  // by tests/engine_test.cpp): a request with arrival + duration == from
  // departed exactly when the window opens and is excluded; an arrival
  // before `from` that is still active gets its duration clipped to the
  // part inside the window.
  workload::Trace clipped;
  for (const auto& r : trace) {
    const std::int64_t arrival = static_cast<std::int64_t>(r.arrival) - base;
    // The trace is arrival-sorted (the engine's arrival loop relies on
    // that too), so the first future request ends the scan.
    if (arrival >= slot) break;
    const std::int64_t departure = arrival + r.duration;
    if (departure <= from) continue;
    workload::Request c = r;
    c.arrival = static_cast<int>(std::max(arrival, from) - from);
    c.duration =
        static_cast<int>(std::min(departure, slot) - std::max(arrival, from));
    clipped.push_back(c);
  }
  return clipped;
}

ReplanPolicy::ReplanPolicy(const net::SubstrateNetwork& substrate,
                           const std::vector<net::Application>& apps,
                           ReplanConfig config)
    : substrate_(substrate), apps_(apps), config_(std::move(config)) {
  OLIVE_REQUIRE(config_.candidates == 1,
                "portfolio re-planning was removed: ReplanConfig::candidates "
                "must be 1 (one solve per launch)");
  if (config_.period > 0) {
    OLIVE_REQUIRE(config_.install_delay >= 1 &&
                      config_.install_delay < config_.period,
                  "replan install_delay must stay in [1, period)");
  }
}

ReplanPolicy::~ReplanPolicy() {
  // A solve launched near the end of the run may never reach its install
  // slot; join it so the captured references stay valid until it finishes.
  if (pending_ && pending_->solve.valid()) pending_->solve.wait();
}

bool ReplanPolicy::wants_launch(std::int64_t slot) const noexcept {
  if (!enabled() || pending_ || slot <= 0) return false;
  if (slot % config_.period == 0) return true;
  return config_.failure_burst > 0 && failure_hits_ >= config_.failure_burst;
}

void ReplanPolicy::observe(const workload::Request* batch, std::size_t n,
                           std::int64_t slot) {
  const int arrival = static_cast<int>(
      std::min<std::int64_t>(slot, std::numeric_limits<int>::max()));
  for (std::size_t i = 0; i < n; ++i) {
    feed_.push_back(batch[i]);
    feed_.back().arrival = arrival;
  }
}

workload::Trace ReplanPolicy::demand_window(std::int64_t from,
                                            std::int64_t slot) const {
  return clip_window(feed_, /*base=*/0, from, slot);
}

void ReplanPolicy::launch(std::int64_t slot,
                          const std::vector<double>& capacities) {
  OLIVE_ASSERT(!pending_);
  failure_hits_ = 0;  // the burst trigger re-arms per launch attempt
  // Keep every request still active when the window opens — clip_window
  // keeps those too, clipped to the window — and drop the rest: no later
  // launch can reach them, its window opens later still.
  const std::int64_t keep_from = slot - config_.period;
  std::erase_if(feed_, [keep_from](const workload::Request& r) {
    return static_cast<std::int64_t>(r.arrival) + r.duration <= keep_from;
  });
  const std::int64_t from = std::max<std::int64_t>(0, keep_from);

  workload::Trace clipped = demand_window(from, slot);
  if (clipped.empty()) return;  // nothing to plan for this window

  core::AggregationConfig acfg = config_.aggregation;
  acfg.horizon = static_cast<int>(slot - from);
  core::PlanVneConfig plan = config_.plan;
  // Capacity-aware pricing: the launch-slot snapshot rides in as the plan
  // solver's overlay (empty = nominal; PlanVneConfig::capacities).
  if (!capacities.empty()) plan.capacities = capacities;
  const int sequence = sequence_++;
  Rng rng = Rng(config_.seed)
                .fork(stable_hash("replan"))
                .fork(static_cast<std::uint64_t>(sequence) + 1);

  ReplanEvent event;
  event.sequence = sequence;
  event.launch_slot = slot;
  event.install_slot = slot + config_.install_delay;

  // Everything the solve reads is captured by value on this (the kernel's)
  // thread at the policy-fixed slot, except the column cache and basis
  // carried from the previous re-plan, which the task owns until collect().
  auto task = [this, clipped = std::move(clipped), acfg, rng,
               plan = std::move(plan), event]() mutable -> Result {
    // Wall clock feeds solve_seconds, a diagnostic only — never a decision.
    const auto start = std::chrono::steady_clock::now();
    Result out;
    out.event = event;
    const auto aggregates = core::aggregate_history(
        clipped, static_cast<int>(apps_.size()), substrate_.num_nodes(), acfg,
        rng);
    out.plan = core::solve_plan_vne(substrate_, apps_, aggregates, plan,
                                    &out.event.info, &cache_, &warm_);
    out.event.classes = out.plan.num_classes();
    out.event.solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return out;
  };
  pending_ = Pending{event.install_slot,
                     ThreadPool::global().submit(std::move(task))};
}

std::int64_t ReplanPolicy::pending_install_slot() const noexcept {
  return pending_ ? pending_->install_slot : -1;
}

ReplanPolicy::Result ReplanPolicy::collect() {
  OLIVE_ASSERT(pending_);
  Result out = pending_->solve.get();
  pending_.reset();
  return out;
}

}  // namespace olive::engine
