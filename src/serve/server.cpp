#include "serve/server.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace olive::serve {

namespace {

using core::SimMetrics;

/// Nap length while the queue is empty (bounded so stop() is prompt).
constexpr std::chrono::nanoseconds kIdleBackoff = std::chrono::microseconds(50);
/// Live mode keeps only this many trailing slots of the offered/allocated
/// series — a long-lived service must not grow per-slot state without
/// bound.  run_simulated keeps the whole bounded run's series, exactly like
/// run_stream.
constexpr std::size_t kLiveSeriesSlots = 4096;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Fills the decision counters and re-plan figures a kernel run produced.
void fold_kernel(ServerStats& st, const engine::SlotKernel& kernel,
                 const SimMetrics& metrics) {
  const engine::SlotKernel::Counts& c = kernel.counts();
  st.decided = c.decided;
  st.accepted = c.accepted;
  st.rejected = c.rejected;
  st.preempted = c.preempted;
  st.departed = c.departed;
  st.plan_swaps = metrics.replans;
  st.swap_stall_seconds = kernel.install_wait_seconds();
  st.sustained_rps = st.serve_seconds > 0
                         ? static_cast<double>(st.decided) / st.serve_seconds
                         : 0.0;
}

}  // namespace

Server::Server(const net::SubstrateNetwork& substrate,
               const std::vector<net::Application>& apps, ServerConfig config)
    : substrate_(substrate), apps_(apps), config_(std::move(config)) {
  OLIVE_REQUIRE(config_.slot_duration.count() > 0,
                "slot_duration must be positive");
  OLIVE_REQUIRE(config_.max_batch > 0, "max_batch must be positive");
  queue_ = std::make_unique<MpscQueue<Queued>>(config_.queue_capacity);
}

Server::~Server() {
  if (running()) stop(/*drain=*/false);
}

engine::EngineConfig Server::engine_config() const {
  // Failures stay a batch-engine input: the serving layer has no trace of
  // substrate events to replay.
  return engine::EngineConfig{config_.sim, config_.replan, {}};
}

SimMetrics Server::run_simulated(core::OnlineEmbedder& algo,
                                 workload::TraceStream& stream) {
  OLIVE_REQUIRE(!running(), "run_simulated while live serving is running");
  // Zero wall entropy on this whole path: the only clock is simulated,
  // starts at the epoch, and advances exactly one slot_duration per slot.
  SimulatedClock clock;
  engine::SlotKernel kernel(substrate_, apps_, engine_config(), algo, clock);
  ServerStats st;
  const auto t0 = clock.now();
  metrics_ = kernel.run(stream, [&] {
    clock.advance(config_.slot_duration);  // the slot boundary, simulated
    ++st.slots;
  });
  st.serve_seconds = seconds_between(t0, clock.now());
  fold_kernel(st, kernel, metrics_);
  st.submitted = st.decided;  // every request "arrived" in-process
  // Decisions take no simulated time: every admission latency is 0.
  for (long i = 0; i < st.decided; ++i) st.admission_latency.record(0);
  stats_ = st;
  return metrics_;
}

void Server::start(core::OnlineEmbedder& algo, Clock& clock) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  OLIVE_REQUIRE(!running(), "server already running");
  OLIVE_REQUIRE(!config_.sim.record_requests,
                "live serving does not keep per-request records (they would "
                "grow with uptime)");
  // Build the kernel here, on the caller's thread: it validates the re-plan
  // config and the embedder, and a refusal must reach the caller rather
  // than throw inside the serving thread and end the process.
  kernel_ = std::make_unique<engine::SlotKernel>(
      substrate_, apps_, engine_config(), algo, clock,
      std::vector<engine::Observer*>{}, kLiveSeriesSlots);
  stop_requested_.store(false, std::memory_order_seq_cst);
  drain_on_stop_.store(true, std::memory_order_release);
  submitted_.store(0, std::memory_order_relaxed);
  queue_rejects_.store(0, std::memory_order_relaxed);
  stats_ = ServerStats{};
  clock_.store(&clock, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this, &clock] { serve_loop(clock); });
}

Server::Submit Server::submit(const workload::Request& r) {
  // The in-flight window is the submit/stop handshake: the serving thread
  // waits for in_flight_ == 0 after observing stop_requested_, so a call
  // that slipped past the checks below finishes its push (and is drained
  // or counted abandoned) before the final queue pass, and clock_ is
  // never torn down while we hold it — nothing is ever stranded.
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  struct InFlight {
    std::atomic<long>& n;
    ~InFlight() { n.fetch_sub(1, std::memory_order_seq_cst); }
  } guard{in_flight_};
  if (!running() || stop_requested_.load(std::memory_order_seq_cst))
    return Submit::Stopped;
  Clock* const clock = clock_.load(std::memory_order_acquire);
  if (clock == nullptr) return Submit::Stopped;
  Queued q{r, clock->now()};
  if (!queue_->try_push(std::move(q))) {
    queue_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Submit::QueueFull;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return Submit::Enqueued;
}

void Server::stop(bool drain) {
  // The lock makes stop() idempotent under concurrency: only one caller
  // reaches join(), later ones see an unjoinable thread and return.
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!thread_.joinable()) return;
  drain_on_stop_.store(drain, std::memory_order_release);
  stop_requested_.store(true, std::memory_order_seq_cst);
  thread_.join();
  running_.store(false, std::memory_order_release);
  clock_.store(nullptr, std::memory_order_release);
}

void Server::serve_loop(Clock& clock) {
  engine::SlotKernel& kernel = *kernel_;
  ServerStats st;

  std::vector<workload::Request> batch;
  std::vector<Clock::time_point> enq, decided;
  batch.reserve(config_.max_batch);
  enq.reserve(config_.max_batch);
  decided.reserve(config_.max_batch);
  workload::RequestId next_id = 0;

  const auto t0 = clock.now();
  // Slots are 64-bit: a live run has no horizon, and an int would overflow
  // (UB) after ~2^31 slots — about 8 months at the default 10 ms slot.
  std::int64_t t = 0;
  constexpr std::int64_t kMaxIntSlot = std::numeric_limits<int>::max();
  bool stopping = false;

  // Pops up to max_batch queued requests into batch/enq, stamping ids and
  // the current slot (Request::arrival is an int and saturates at INT_MAX;
  // the kernel's own bookkeeping runs on the 64-bit slot).
  const auto fill_batch = [&] {
    batch.clear();
    enq.clear();
    Queued q;
    while (batch.size() < config_.max_batch && queue_->try_pop(q)) {
      q.req.id = next_id++;
      q.req.arrival = static_cast<int>(std::min(t, kMaxIntSlot));
      batch.push_back(q.req);
      enq.push_back(q.enqueued);
    }
  };
  // Decides the drained batch; one submit()-to-decision sample per request.
  const auto admit_batch = [&] {
    decided.resize(batch.size());
    kernel.admit(batch.data(), batch.size(), decided.data());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::chrono::nanoseconds d = decided[i] - enq[i];
      st.admission_latency.record(
          d.count() > 0 ? static_cast<std::uint64_t>(d.count()) : 0);
    }
  };

  while (!stopping) {
    // Plan hot-swap, re-plan launch and lease expiries.  An install whose
    // solve is still flying pauses admissions: the stall the histogram
    // cannot see, reported as swap_stall_seconds.
    kernel.begin_slot(t);

    // Drain until this slot's wall deadline.  If the serving thread falls
    // behind (overload), deadlines in the past make the slot advance
    // immediately — slots never stretch, they are wall time.  A stop
    // request breaks out at once, whatever the backlog: the final pass
    // below settles the queue.
    const auto deadline = t0 + (t + 1) * config_.slot_duration;
    for (;;) {
      if (stop_requested_.load(std::memory_order_seq_cst)) {
        stopping = true;
        break;
      }
      if (clock.now() >= deadline) break;
      st.queue_high_water =
          std::max(st.queue_high_water, queue_->approx_size());
      fill_batch();
      if (batch.empty()) {
        clock.sleep_until(std::min(deadline, clock.now() + kIdleBackoff));
        continue;
      }
      admit_batch();
    }

    if (stopping) {
      // Quiesce producers: submit() bounces with Stopped from the moment
      // stop_requested_ is set, and any call that slipped past that check
      // is inside the in-flight window — wait it out, after which no push
      // can still be in flight and the queue can only shrink to empty.
      while (in_flight_.load(std::memory_order_seq_cst) != 0)
        std::this_thread::yield();
      if (drain_on_stop_.load(std::memory_order_acquire)) {
        // Graceful drain: decide everything still enqueued at this slot.
        for (;;) {
          fill_batch();
          if (batch.empty()) break;
          admit_batch();
        }
      } else {
        // Prompt abandon: discard the backlog undecided, but keep the
        // conservation ledger exact (decided + abandoned == submitted).
        Queued q;
        while (queue_->try_pop(q)) ++st.abandoned;
      }
    }

    kernel.end_slot();
    ++t;
  }

  st.slots = t;
  st.serve_seconds = seconds_between(t0, clock.now());
  st.submitted = submitted_.load(std::memory_order_relaxed);
  st.queue_rejects = queue_rejects_.load(std::memory_order_relaxed);
  metrics_ = kernel.finalize();
  fold_kernel(st, kernel, metrics_);
  stats_ = st;
  // Joins any re-plan solve still in flight before stop() returns: the
  // solve reads the kernel's policy state and the borrowed substrate.
  kernel_.reset();
}

}  // namespace olive::serve
