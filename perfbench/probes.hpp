// Measurement probes the OLIVE benchmark wraps around the library's public
// interfaces.  Nothing here reaches inside src/: every layer is timed from
// outside, at the calls the engine and the server make into it.
//
//  * TimedEmbedder — a decorator around core::OnlineEmbedder.  Untraced it
//    counts outcomes and reads the clock once per decision (due -> decision
//    latency); traced it also times every embed / depart / hint_arrivals /
//    install_plan call into per-name recorders.
//  * EngineProbe — an engine::Observer: slot boundaries (the due instant of
//    a simulated slot's arrivals), and, traced, slot and re-plan spans.
//  * SpanLog — named spans with parents, kept in memory and written out
//    when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "engine/engine.hpp"
#include "latency_recorder.hpp"

namespace olive::perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Named spans (start, end, parent) relative to the log's origin.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int open(std::string name, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), parent, ns_between(origin_, Clock::now()), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end_ns = ns_between(origin_, Clock::now());
  }
  /// Records an already-finished span and returns its index.
  int add(std::string name, int parent, Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), parent, ns_between(origin_, start), ns_between(origin_, end)});
    return static_cast<int>(spans_.size()) - 1;
  }

  void write_json(std::ostream& out) const {
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}";
    }
    out << "\n]";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    std::uint64_t start_ns, end_ns;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-call aggregates keyed by boundary name: count, total and a fine
/// histogram each (traced runs only).
using CallTable = std::map<std::string, LatencyRecorder>;

inline void merge_calls(CallTable& into, const CallTable& from) {
  for (const auto& [name, rec] : from) into[name].merge(rec);
}

/// Outcome counts of the decisions an embedder made.
struct OutcomeCounts {
  long planned = 0, borrowed = 0, greedy = 0, rejected = 0;
  long preempting = 0;  ///< embeds whose outcome preempted someone
  long victims = 0;     ///< requests those embeds preempted

  long decided() const { return planned + borrowed + greedy + rejected; }
  long accepted() const { return planned + borrowed + greedy; }
  bool operator==(const OutcomeCounts&) const = default;
};

/// Transparent decorator: forwards the calls the benchmark's engine and
/// server make to `inner` unchanged.  Failure repair and portfolio
/// re-planning (set_element_capacity, adopt, snapshot, fork) are not run,
/// so those calls keep the base class's "unsupported" answers.
class TimedEmbedder final : public core::OnlineEmbedder {
 public:
  TimedEmbedder(core::OnlineEmbedder& inner, bool traced)
      : inner_(inner), traced_(traced) {
    if (traced_) {
      rec_planned_ = &calls_["embed.planned"];
      rec_borrowed_ = &calls_["embed.borrowed"];
      rec_greedy_ = &calls_["embed.greedy"];
      rec_rejected_ = &calls_["embed.rejected"];
      rec_preempting_ = &calls_["embed.preempting"];
      rec_depart_ = &calls_["depart"];
      rec_hint_ = &calls_["hint_arrivals"];
      rec_install_ = &calls_["install_plan"];
    }
  }

  TimedEmbedder(const TimedEmbedder&) = delete;
  TimedEmbedder& operator=(const TimedEmbedder&) = delete;

  /// Simulated runs: every arrival of a slot is due when the slot begins.
  void due_at_slot_begin(const Clock::time_point* slot_begin) { slot_begin_ = slot_begin; }

  /// Live runs: request id k is the k-th enqueued submission, due at
  /// due[k] and submitted at submitted[k] (both written by the producer
  /// before the submission is enqueued).  Ids must arrive as 0, 1, 2, ...
  void due_by_id(const std::vector<Clock::time_point>* due,
                 const std::vector<Clock::time_point>* submitted) {
    due_ = due;
    submitted_ = submitted;
  }

  std::string name() const override { return inner_.name(); }

  void reset() override { inner_.reset(); }

  core::EmbedOutcome embed(const workload::Request& r) override {
    Clock::time_point entry{};
    if (traced_) entry = Clock::now();
    core::EmbedOutcome out = inner_.embed(r);
    const Clock::time_point done = Clock::now();

    Clock::time_point due{};
    if (due_) {
      if (r.id != next_id_) ids_contiguous_ = false;
      next_id_ = r.id + 1;
      const auto k = static_cast<std::size_t>(r.id);
      if (r.id >= 0 && k < due_->size()) {
        due = (*due_)[k];
        if (traced_) queue_wait_.record(ns_between((*submitted_)[k], entry));
      } else {
        ids_contiguous_ = false;
        due = done;
      }
    } else if (slot_begin_) {
      due = *slot_begin_;
    }
    latency_.record(ns_between(due, done));
    // One writer (the deciding thread); the producer only reads it.
    decided_.store(decided_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);

    LatencyRecorder* rec = nullptr;
    switch (out.kind) {
      case core::OutcomeKind::Planned: ++counts_.planned; rec = rec_planned_; break;
      case core::OutcomeKind::Borrowed: ++counts_.borrowed; rec = rec_borrowed_; break;
      case core::OutcomeKind::Greedy: ++counts_.greedy; rec = rec_greedy_; break;
      case core::OutcomeKind::Rejected: ++counts_.rejected; rec = rec_rejected_; break;
    }
    if (!out.preempted_ids.empty()) {
      ++counts_.preempting;
      counts_.victims += static_cast<long>(out.preempted_ids.size());
    }
    if (traced_) {
      const std::uint64_t ns = ns_between(entry, done);
      rec->record(ns);
      if (!out.preempted_ids.empty()) rec_preempting_->record(ns);
      busy_ns_ += ns;
    }
    return out;
  }

  void hint_arrivals(const workload::Request* batch, std::size_t count) override {
    if (!traced_) return inner_.hint_arrivals(batch, count);
    const auto t = Clock::now();
    inner_.hint_arrivals(batch, count);
    const std::uint64_t ns = ns_between(t, Clock::now());
    rec_hint_->record(ns);
    busy_ns_ += ns;
    hinted_ += static_cast<long>(count);
  }

  void depart(const workload::Request& r) override {
    if (!traced_) return inner_.depart(r);
    const auto t = Clock::now();
    inner_.depart(r);
    const std::uint64_t ns = ns_between(t, Clock::now());
    rec_depart_->record(ns);
    busy_ns_ += ns;
  }

  bool install_plan(core::Plan plan) override {
    if (!traced_) return inner_.install_plan(std::move(plan));
    const auto t = Clock::now();
    const bool ok = inner_.install_plan(std::move(plan));
    const std::uint64_t ns = ns_between(t, Clock::now());
    rec_install_->record(ns);
    busy_ns_ += ns;
    return ok;
  }

  core::FastPathStats fastpath_stats() const override { return inner_.fastpath_stats(); }
  const core::LoadTracker& load() const override { return inner_.load(); }

  const OutcomeCounts& counts() const { return counts_; }
  const LatencyRecorder& latency() const { return latency_; }
  const LatencyRecorder& queue_wait() const { return queue_wait_; }
  const CallTable& calls() const { return calls_; }
  /// Time spent inside the timed calls (traced only), nanoseconds.
  std::uint64_t busy_ns() const { return busy_ns_; }
  long hinted() const { return hinted_; }
  bool ids_contiguous() const { return ids_contiguous_; }
  /// Decisions so far; safe to read from another thread while serving.
  long decided_so_far() const { return decided_.load(std::memory_order_relaxed); }

 private:
  core::OnlineEmbedder& inner_;
  bool traced_;
  const Clock::time_point* slot_begin_ = nullptr;
  const std::vector<Clock::time_point>* due_ = nullptr;
  const std::vector<Clock::time_point>* submitted_ = nullptr;
  workload::RequestId next_id_ = 0;
  bool ids_contiguous_ = true;

  OutcomeCounts counts_;
  LatencyRecorder latency_;     ///< due -> decision
  LatencyRecorder queue_wait_;  ///< submit -> embed entry (live, traced)
  CallTable calls_;
  LatencyRecorder *rec_planned_ = nullptr, *rec_borrowed_ = nullptr,
                  *rec_greedy_ = nullptr, *rec_rejected_ = nullptr,
                  *rec_preempting_ = nullptr, *rec_depart_ = nullptr,
                  *rec_hint_ = nullptr, *rec_install_ = nullptr;
  std::uint64_t busy_ns_ = 0;
  long hinted_ = 0;
  std::atomic<long> decided_{0};
};

/// Engine observer: publishes each slot's begin instant (the due time of
/// its arrivals), times slots and re-plan install waits, and records them as
/// spans when the log is enabled.
class EngineProbe final : public engine::Observer {
 public:
  EngineProbe(SpanLog& spans, int run_span) : spans_(spans), run_span_(run_span) {}

  void on_slot_begin(int slot) override {
    const auto now = Clock::now();
    if (current_slot_ >= 0) close_slot(now);
    slot_begin_ = now;
    current_slot_ = slot;
  }

  void on_replan(const engine::ReplanEvent& event) override {
    const auto now = Clock::now();
    ++replans_;
    solve_s_ += event.solve_seconds;
    simplex_iterations_ += event.info.simplex_iterations;
    warm_hits_ += event.info.warm_start_hit ? 1 : 0;
    if (event.install_slot == current_slot_) {
      install_wait_s_ += seconds_between(slot_begin_, now);
      installs_.push_back({slot_begin_, now});
    }
  }

  /// Call once the run returns: closes the last slot.
  void finish() {
    if (current_slot_ >= 0) close_slot(Clock::now());
  }

  const Clock::time_point* slot_begin() const { return &slot_begin_; }
  const LatencyRecorder& slot_lengths() const { return slot_lengths_; }
  long slots() const { return current_slot_ + 1; }
  long replans() const { return replans_; }
  double solve_s() const { return solve_s_; }
  long simplex_iterations() const { return simplex_iterations_; }
  long warm_hits() const { return warm_hits_; }
  double install_wait_s() const { return install_wait_s_; }

 private:
  void close_slot(Clock::time_point end) {
    slot_lengths_.record(ns_between(slot_begin_, end));
    const int slot_span = spans_.add("slot", run_span_, slot_begin_, end);
    for (const auto& [a, b] : installs_) spans_.add("replan_install", slot_span, a, b);
    installs_.clear();
  }

  SpanLog& spans_;
  int run_span_;
  Clock::time_point slot_begin_{};
  int current_slot_ = -1;
  LatencyRecorder slot_lengths_;
  /// Install waits of the current slot, turned into spans when it closes.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> installs_;
  long replans_ = 0;
  double solve_s_ = 0;
  long simplex_iterations_ = 0;
  long warm_hits_ = 0;
  double install_wait_s_ = 0;
};

}  // namespace olive::perfbench
