// Clock abstraction shared by the engine's slot kernel and the serving
// layer (docs/serving.md).  engine::SlotKernel reads its timing diagnostics
// through an injected Clock; serve::Server drives its slot boundaries
// against one — real wall deadlines under SteadyClock, instant and
// deterministic ticks under SimulatedClock (bit-identical to
// engine::Engine::run_stream).  The pattern follows erizo's Clock /
// DZSimulator's sim::Clock (SNIPPETS.md Snippets 2-3) with one deliberate
// deviation: SimulatedClock starts at the *epoch* (time_point{}), never at
// steady_clock::now(), so simulated runs consume zero entropy from wall
// time — erizo seeds its simulated clock from the real one, which would
// make "simulated time" differ between two otherwise identical runs.
// Re-plan `solve_seconds` still reads steady_clock on the worker threads: a
// diagnostic outside the bit-identity contract, never a decision input.
#pragma once

#include <atomic>
#include <chrono>
#include <thread>

namespace olive {

/// Monotonic time source the slot kernel and the serving loop are written
/// against.  now() may be called from any thread (producers timestamp their
/// submissions through the injected clock); sleep_until / advance belong to
/// the single thread driving the slots.
class Clock {
 public:
  /// All timing is expressed in steady_clock units — the underlying clock
  /// must be monotonic (time never decreases).
  using base_clock = std::chrono::steady_clock;
  using time_point = base_clock::time_point;
  using duration = base_clock::duration;

  virtual ~Clock() = default;

  /// Current time.  Monotone non-decreasing across calls.
  virtual time_point now() = 0;

  /// Blocks until `deadline` (SteadyClock) or advances simulated time to it
  /// (SimulatedClock).  A deadline at or before now() returns immediately.
  virtual void sleep_until(time_point deadline) = 0;

  /// True when time is simulated (slot ticks, not wall deadlines).
  virtual bool simulated() const noexcept = 0;
};

/// Wall-clock mode: now() is steady_clock::now(), sleep_until really sleeps.
class SteadyClock final : public Clock {
 public:
  time_point now() override { return base_clock::now(); }
  void sleep_until(time_point deadline) override {
    std::this_thread::sleep_until(deadline);
  }
  bool simulated() const noexcept override { return false; }
};

/// Simulated mode: time starts at the epoch and moves only when the owner
/// advances it — sleep_until costs nothing and two identical runs see the
/// exact same sequence of time_points (zero wall entropy by construction).
class SimulatedClock final : public Clock {
 public:
  time_point now() override {
    return time_point{duration{now_ns_.load(std::memory_order_relaxed)}};
  }
  void sleep_until(time_point deadline) override {
    const auto d = deadline.time_since_epoch().count();
    if (d > now_ns_.load(std::memory_order_relaxed))
      now_ns_.store(d, std::memory_order_relaxed);
  }
  bool simulated() const noexcept override { return true; }

  /// Advances simulated time by `d` (one slot tick).  Like sleep_until,
  /// only the driving thread may call this; other threads may read now()
  /// concurrently (hence the atomic).
  void advance(duration d) {
    now_ns_.fetch_add(d.count(), std::memory_order_relaxed);
  }

 private:
  // Ticks since the epoch — never seeded from steady_clock::now(), so a
  // simulated run consumes zero wall entropy.
  std::atomic<duration::rep> now_ns_{0};
};

}  // namespace olive
