// Streaming trace generation (the scale_xl tier).
//
// A TraceStream yields one slot's arrivals at a time, so the Engine can
// consume 10^6+ request traces without ever materializing the full vector.
// The materialized generators (`TraceGenerator::generate`,
// `generate_caida_trace`) are thin wrappers that drain the corresponding
// stream — the two paths are bit-identical by construction, and
// `tests/workload_test.cpp` / `tests/engine_test.cpp` pin the equivalence
// (same seed => identical traces and identical SimMetrics).
//
// Determinism contract: a stream's constructor forks its RNG sub-streams in
// exactly the order the materialized generator does, and next_slot() draws
// in exactly the per-slot order of the generator's loop body, so request
// ids, fields, and the parent Rng are unaffected by which path runs.
#pragma once

#include <memory>
#include <vector>

#include "workload/caida.hpp"
#include "workload/tracegen.hpp"

namespace olive::workload {

/// Pull-based per-slot request source.  Slots are yielded strictly in order
/// 0, 1, ..., end_slot()-1; each may carry zero arrivals.
class TraceStream {
 public:
  virtual ~TraceStream() = default;

  /// Replaces `out` with the next slot's arrivals (possibly empty) and
  /// returns that slot's index, or -1 when the stream is exhausted.
  ///
  /// The filled buffer doubles as the slot's arrival batch: the Engine
  /// passes it verbatim to OnlineEmbedder::hint_arrivals before admitting
  /// the slot, so all of a slot's arrivals must be yielded together — a
  /// stream must never split one slot across two next_slot() calls.
  virtual int next_slot(std::vector<Request>& out) = 0;

  /// Exclusive upper bound on slot indices (the stream's horizon).
  virtual int end_slot() const = 0;
};

/// The MMPP generator of TraceGenerator::generate, slot by slot.
class MmppTraceStream final : public TraceStream {
 public:
  MmppTraceStream(const net::SubstrateNetwork& substrate,
                  const std::vector<net::Application>& apps,
                  TraceConfig config, Rng& rng);

  int next_slot(std::vector<Request>& out) override;
  int end_slot() const override { return config_.horizon; }

 private:
  TraceConfig config_;
  std::size_t num_apps_;
  Rng arrivals_rng_, state_rng_, pick_rng_, size_rng_;
  std::vector<net::NodeId> ranked_;
  ZipfSampler zipf_;
  double lambda_total_ = 0;
  bool high_state_ = false;
  int t_ = 0;
  RequestId next_id_ = 0;
};

/// The CAIDA-like generator of generate_caida_trace, slot by slot.
class CaidaTraceStream final : public TraceStream {
 public:
  CaidaTraceStream(const net::SubstrateNetwork& substrate,
                   const std::vector<net::Application>& apps,
                   const TraceConfig& base, const CaidaConfig& caida,
                   Rng& rng);

  int next_slot(std::vector<Request>& out) override;
  int end_slot() const override { return base_.horizon; }

 private:
  struct Source {
    double weight;      // demand multiplier
    net::NodeId node;   // assigned datacenter (uniform, per the paper)
  };

  TraceConfig base_;
  CaidaConfig caida_;
  std::size_t num_apps_;
  Rng arr_rng_, pick_rng_, size_rng_;
  std::vector<Source> sources_;
  std::vector<double> cdf_;
  double demand_scale_ = 0;
  double lambda_total_ = 0;
  int t_ = 0;
  RequestId next_id_ = 0;
};

/// Adapts an already-materialized trace to the stream interface (tests and
/// replay).  Slots run [0, horizon); horizon < 0 uses the last arrival + 1.
class VectorTraceStream final : public TraceStream {
 public:
  explicit VectorTraceStream(const Trace& trace, int horizon = -1);

  int next_slot(std::vector<Request>& out) override;
  int end_slot() const override { return horizon_; }

 private:
  const Trace& trace_;
  std::size_t next_ = 0;
  int horizon_ = 0;
  int t_ = 0;
};

/// Drains a stream into a trace (the materialized path).
Trace materialize(TraceStream& stream);

/// Pre-draws a Poisson open-loop arrival schedule: timestamps (seconds from
/// the load generator's start) of a rate `rate_per_sec` Poisson process over
/// [0, duration_s), strictly increasing.  Drawing the whole schedule up
/// front is what keeps an open-loop bench honest — each submission fires at
/// its pre-drawn instant regardless of how the server is keeping up, so a
/// slow server delays nothing and coordinated omission cannot hide latency
/// (bench/serve_load.cpp, docs/serving.md).
std::vector<double> draw_open_loop_arrivals(double rate_per_sec,
                                            double duration_s, Rng& rng);

}  // namespace olive::workload
