// serve::Server — OLIVE's slot loop as a long-lived service
// (docs/serving.md).  The slot body is engine::SlotKernel, the one the batch
// engine runs; the server contributes its request source and its clock:
//
//  * run_simulated(algo, stream) drives a TraceStream under an internal
//    SimulatedClock, bit-identical to Engine::run_stream on the same inputs
//    (pinned by tests/serve_test.cpp) and reading no wall time;
//  * start(algo, clock) runs the kernel against wall deadlines: producer
//    threads submit() Requests through the lock-free MPSC queue, the
//    serving thread drains them in batches into the kernel and records
//    per-request admission latency into a log-scale histogram.  This path
//    is timing-dependent and is gated on throughput/latency
//    (bench/serve_load.cpp, CI cliff gate) instead of bit identity.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/algorithm.hpp"
#include "core/simulator.hpp"
#include "engine/kernel.hpp"
#include "engine/replan.hpp"
#include "net/substrate.hpp"
#include "net/vnet.hpp"
#include "serve/latency.hpp"
#include "serve/queue.hpp"
#include "workload/request.hpp"
#include "util/clock.hpp"
#include "workload/stream.hpp"

namespace olive::serve {

// The serving API speaks the shared clock types (util/clock.hpp).
using olive::Clock;
using olive::SimulatedClock;
using olive::SteadyClock;

struct ServerConfig {
  /// Measurement window / psi / drain settings, same meaning as in the
  /// batch engine.  Live runs are unbounded: drain_slots is ignored and
  /// the run ends at stop(); start() refuses record_requests (records
  /// would grow with uptime).
  core::SimulatorConfig sim;
  /// Mid-run re-planning (engine::ReplanPolicy), fed by the drained
  /// arrivals; solves run on the background ThreadPool and install at
  /// policy-fixed slots.  period == 0 (default) disables it.
  engine::ReplanConfig replan;
  /// Admission queue capacity (rounded up to a power of two).  A full queue
  /// bounces submit() with Submit::QueueFull — explicit backpressure.
  std::size_t queue_capacity = std::size_t{1} << 14;
  /// Wall length of one engine slot in live mode (and the simulated tick).
  std::chrono::nanoseconds slot_duration = std::chrono::milliseconds(10);
};

/// Long-lived serving facade over one OnlineEmbedder.  The embedder and the
/// clock are borrowed until stop() returns, which also joins any re-plan
/// solve still in flight; every embedder call happens on the single serving
/// thread.  submit() is safe from any number of threads.
class Server {
 public:
  /// submit() outcome, returned to the producer immediately (never blocks).
  enum class Submit {
    Enqueued,   ///< accepted into the admission queue
    QueueFull,  ///< bounced by backpressure (counted in queue_rejects)
    Stopped,    ///< server not started, or stop() already requested
  };

  Server(const net::SubstrateNetwork& substrate,
         const std::vector<net::Application>& apps, ServerConfig config = {});
  ~Server();  // stops (without drain) if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Simulation mode: drives `stream` to completion on the caller's thread
  /// under an internal SimulatedClock and returns the run's SimMetrics —
  /// bit-identical to Engine::run_stream(algo, stream) with the same
  /// SimulatorConfig and ReplanConfig.  Reads no wall clock on the slot
  /// path (algo_seconds stays 0).  stats() is filled deterministically
  /// afterwards.
  core::SimMetrics run_simulated(core::OnlineEmbedder& algo,
                                 workload::TraceStream& stream);

  /// Live mode: validates the configuration on the caller's thread (an
  /// invalid one throws here), then spawns the serving thread.  Slot t
  /// covers wall time [t0 + t·slot_duration, t0 + (t+1)·slot_duration);
  /// arrivals are stamped with the slot they are drained in, and leases
  /// expire at the slot boundary `arrival + duration` — wall deadlines.
  void start(core::OnlineEmbedder& algo, Clock& clock);

  /// Hands one request to the serving thread (id and arrival slot are
  /// assigned by the server at drain time; the caller's values are
  /// ignored).  Wait-free; returns QueueFull instead of ever blocking.
  /// Safe to race with stop(): each call registers in an in-flight window
  /// the serving thread waits out before its final drain, so a submission
  /// that passed the stop check is always decided (drain=true) or counted
  /// abandoned (drain=false) — never stranded in the queue.
  Submit submit(const workload::Request& r);

  /// Stops the serving thread and joins it.  drain=true (graceful) decides
  /// every already-enqueued request first; drain=false discards the backlog
  /// promptly without deciding it (counted in ServerStats::abandoned).
  /// Idempotent and safe to call from multiple threads concurrently;
  /// submit() returns Stopped from the moment stop() begins.
  void stop(bool drain = true);

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Valid after run_simulated() returns or stop() joins.
  const ServerStats& stats() const noexcept { return stats_; }
  const core::SimMetrics& metrics() const noexcept { return metrics_; }

  const ServerConfig& config() const noexcept { return config_; }

 private:
  struct Queued {
    workload::Request req;
    Clock::time_point enqueued{};
  };

  engine::EngineConfig engine_config() const;
  void serve_loop(Clock& clock);

  const net::SubstrateNetwork& substrate_;
  const std::vector<net::Application>& apps_;
  ServerConfig config_;
  std::unique_ptr<MpscQueue<Queued>> queue_;
  std::unique_ptr<engine::SlotKernel> kernel_;  // start() to end of run
  std::atomic<Clock*> clock_{nullptr};  // set by start(), read by submit()
  std::mutex lifecycle_mu_;             // serializes start()/stop()
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_on_stop_{true};
  std::atomic<long> in_flight_{0};  // submit() calls between entry and exit
  std::atomic<long> submitted_{0};
  std::atomic<long> queue_rejects_{0};
  ServerStats stats_;
  core::SimMetrics metrics_;
};

}  // namespace olive::serve
