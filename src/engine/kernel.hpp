// engine::SlotKernel — the one per-slot loop every per-request driver
// shares (docs/engine.md): install a finished re-plan, apply failure events
// and repair what they broke, launch the next re-plan, release departures,
// then admit each arrival along the plan and settle its preemptions.  The
// drivers own only their request source: Engine::run / run_stream and
// serve::Server::run_simulated call run() on a TraceStream; live serving
// calls begin_slot / admit / end_slot around queue drains.
//
// Per-slot state lives in one calendar keyed by absolute 64-bit slot: each
// future slot's offered/allocated demand deltas and departure list.  A
// slot's deltas accumulate in event order and fold into running sums when
// the slot ends — the same floating-point additions, in the same order, as
// prefix sums over difference arrays — and the entry is erased, so memory
// tracks the active leases, never the horizon or uptime.  Timing
// diagnostics are read through the injected Clock only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/algorithm.hpp"
#include "core/migrator.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "engine/replan.hpp"
#include "net/substrate.hpp"
#include "net/vnet.hpp"
#include "util/clock.hpp"
#include "workload/request.hpp"
#include "workload/stream.hpp"

namespace olive::engine {

/// Per-application rejection penalties ψ the metrics charge:
/// SimulatorConfig::psi_per_app when set, else core::default_psi per app.
std::vector<double> resolve_psi(const net::SubstrateNetwork& substrate,
                                const std::vector<net::Application>& apps,
                                const core::SimulatorConfig& config);

/// Empty metrics for one run of `algorithm`, per-node tallies sized.
core::SimMetrics blank_metrics(const net::SubstrateNetwork& substrate,
                               const std::vector<net::Application>& apps,
                               const std::string& algorithm);

/// Slots a bounded run covers: every arrival (slots [0, last_arrival_end))
/// and the whole measurement window, stopping `drain_slots` past it.
std::int64_t run_slots(std::int64_t last_arrival_end,
                       const core::SimulatorConfig& sim);

/// Folds one plan solve's master-LP work into the metrics.
void accumulate_solve(core::SimMetrics& metrics,
                      const core::PlanSolveInfo& info);

/// Measurement-window tallies: a request counts when its arrival slot lies
/// in [measure_from, measure_to).
struct WindowTally {
  const core::SimulatorConfig* config;
  const std::vector<double>* psi;
  core::SimMetrics* metrics;

  bool in_window(std::int64_t slot) const {
    return slot >= config->measure_from && slot < config->measure_to;
  }
  void offered(const workload::Request& r, std::int64_t slot);
  void rejected(const workload::Request& r, std::int64_t arrival_slot);
  void preempted(const workload::Request& r, std::int64_t arrival_slot);

 private:
  /// Charges a request that lost its service to `counter` and the window's
  /// rejection tallies.
  void lost(const workload::Request& r, long& counter);
};

/// Element capacities under a failure trace: nominal capacity times the
/// latest rescale factor, 0 while the element is down.
class CapacityView {
 public:
  explicit CapacityView(const net::SubstrateNetwork& substrate);

  /// Applies `ev` at `slot`; the record carries the capacity transition.
  FailureRecord apply(const workload::FailureEvent& ev, int slot);

  const std::vector<double>& capacities() const noexcept {
    return capacity_;
  }

 private:
  const net::SubstrateNetwork& substrate_;
  std::vector<char> down_;
  std::vector<double> factor_;
  std::vector<double> capacity_;
};

class SlotKernel {
 public:
  /// Keep the offered/allocated series of every slot (bounded runs).
  static constexpr std::size_t kWholeSeries =
      std::numeric_limits<std::size_t>::max();

  /// Decision counters over the whole run (SimMetrics counts only the
  /// measurement window).  decided == accepted + rejected; preempted
  /// victims were accepted earlier and are not re-counted in decided.
  struct Counts {
    long decided = 0;
    long accepted = 0;
    long rejected = 0;
    long preempted = 0;
    long departed = 0;  ///< leases released at their departure slot
  };

  /// Validates the configuration on the caller's thread — the re-plan
  /// config and the failure trace — and resets `algo`.  `algo`, `clock`
  /// and the observers are borrowed and must outlive the kernel.
  /// `series_window` caps the offered/allocated series to the trailing
  /// slots (0 collects none); the default keeps all of them.
  SlotKernel(const net::SubstrateNetwork& substrate,
             const std::vector<net::Application>& apps, EngineConfig config,
             core::OnlineEmbedder& algo, Clock& clock,
             std::vector<Observer*> observers = {},
             std::size_t series_window = kWholeSeries);

  SlotKernel(const SlotKernel&) = delete;
  SlotKernel& operator=(const SlotKernel&) = delete;

  /// Bounded drive over a stream, re-based so the first arrival is slot 0
  /// and lasting run_slots(stream end - base) slots; `after_slot`, if set,
  /// runs after every slot.  Returns finalize().
  core::SimMetrics run(workload::TraceStream& stream,
                       const std::function<void()>& after_slot = {});

  /// Opens slot `t` (strictly increasing, from 0): observers'
  /// on_slot_begin, plan install at the policy-fixed slot, failure events
  /// and repair, re-plan launch, then the slot's departures.
  void begin_slot(std::int64_t t);

  /// Admits `n` requests arriving in the open slot, in order: the batch is
  /// announced via hint_arrivals (it must stay untouched until admit()
  /// returns), then each is embedded and settled.  `decided_at`, if given,
  /// receives the clock reading right after each decision, which also
  /// starts the next one's algo_seconds interval (one read per decision).
  void admit(const workload::Request* batch, std::size_t n,
             Clock::time_point* decided_at = nullptr);

  /// Closes the open slot: resource cost accrual inside the measurement
  /// window, and the slot's offered/allocated series point.
  void end_slot();

  /// Window-accepted count, series and fast-path counters.  Call once,
  /// after the last end_slot().
  core::SimMetrics finalize();

  const Counts& counts() const noexcept { return counts_; }
  /// Time spent waiting for re-plan solves at their install slots.
  double install_wait_seconds() const noexcept { return install_wait_s_; }

 private:
  /// What an allocation occupies, so failure events can find and repair
  /// the embeddings they break.
  struct Footprint {
    core::Usage usage;
    net::Embedding embedding;
  };

  struct Active {
    workload::Request req;
    double unit_cost = 0;
    std::int64_t arrival_slot = 0;
    /// Set only under substrate dynamics; the lease entry stays small on
    /// the admission hot path otherwise.
    std::unique_ptr<Footprint> footprint;
  };

  /// One calendar slot: demand deltas and the leases that end there.
  struct SlotEntry {
    double offered = 0;
    double allocated = 0;
    std::vector<workload::RequestId> departures;
  };

  void install_replan();
  void apply_failure(const workload::FailureEvent& ev);
  /// Ends an allocation before its departure (preemption victim or failure
  /// drop): its demand stops counting now and it is charged to the window
  /// like a preemption.
  void cancel(const Active& a);
  double elapsed_since(Clock::time_point start);

  const net::SubstrateNetwork& substrate_;
  const std::vector<net::Application>& apps_;
  EngineConfig config_;
  core::OnlineEmbedder& algo_;
  Clock& clock_;
  std::vector<Observer*> observers_;
  std::size_t series_window_;

  std::vector<double> psi_;
  core::SimMetrics metrics_;
  WindowTally tally_;
  ReplanPolicy replan_;
  std::int64_t horizon_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t t_ = -1;  ///< the open slot
  SlotEntry* now_ = nullptr;  ///< calendar entry of the open slot

  std::unordered_map<std::int64_t, SlotEntry> calendar_;
  double offered_now_ = 0, allocated_now_ = 0;
  std::deque<double> offered_series_, allocated_series_;

  std::unordered_map<workload::RequestId, Active> active_;
  double active_cost_ = 0;  // Σ over active accepted of d·unit_cost
  // id -> index into metrics_.records (record_requests only), so
  // preemption bookkeeping is O(1).
  std::unordered_map<workload::RequestId, std::size_t> record_index_;

  // Substrate dynamics (inert without a failure trace).
  bool dynamics_ = false;
  core::Migrator migrator_;
  CapacityView capacity_;
  std::size_t next_event_ = 0;

  Counts counts_;
  double install_wait_s_ = 0;
};

}  // namespace olive::engine
