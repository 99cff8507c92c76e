// OLIVE — the plan-based online embedder (paper Algorithm 2).
//
// Decision sequence for each arriving request r (§III-C):
//   1. PLANEMBED full fit: a plan column of r's class with enough *plan*
//      residual (Eq. 17, line 25).  If the substrate lacks room because
//      other requests "borrowed" capacity, PREEMPT non-planned allocations
//      to free it (lines 8–9) — planned demand is guaranteed.
//   2. PLANEMBED partial fit: a plan column with any positive residual whose
//      embedding fits the substrate (line 27) — the request "borrows" unused
//      planned capacity and is itself preemptible.
//   3. GREEDYEMBED: least-cost collocated ad-hoc embedding (line 11).
//   4. Reject.
//
// QUICKG is OLIVE with the empty plan (steps 1–2 vanish), exactly as the
// paper defines it.
//
// Admission fast path (docs/olive-fastpath.md): the decision sequence above
// is the *specification*; when options.enable_fastpath is on, embed() takes
// provably bit-identical shortcuts —
//   * a per-class running maximum of plan residuals skips whole PLANEMBED
//     stages when no column can pass its residual gate;
//   * a per-element reverse index of non-planned allocations, keyed inline
//     by the victim order, replaces the full active-set scan and sort
//     inside preempt() with a filtered gather and lazy heap selection;
//   * GREEDYEMBED results are memoized per class and revalidated against
//     the LoadTracker grow-epoch plus an element-wise residual check.
// Every shortcut preserves the exact decision (and embedding bytes) the
// specification path would produce.  Admission is strictly sequential and
// starts no threads, so every decision and FastPathStats counter is the
// same at any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/algorithm.hpp"
#include "core/plan.hpp"
#include "net/vnet.hpp"

namespace olive::core {

/// Mechanism toggles, used by the ablation study (bench/ablation_mechanisms)
/// to isolate the contribution of each compensation mechanism of §III-C.
struct OliveOptions {
  bool enable_borrow = true;   ///< partial plan fit (Alg. 2 line 27)
  bool enable_preempt = true;  ///< preempt borrowers for planned demand
  bool enable_greedy = true;   ///< GREEDYEMBED fallback (line 11)
  /// Admission fast path (memo, class max, preempt index;
  /// docs/olive-fastpath.md).  Off = the literal specification path;
  /// decisions are identical either way (the fuzz suite asserts it), so
  /// this is a perf toggle, not an ablation mechanism.
  bool enable_fastpath = true;
};

class OliveEmbedder final : public OnlineEmbedder {
 public:
  /// `plan` may be Plan::empty() (that is QUICKG).
  OliveEmbedder(const net::SubstrateNetwork& s,
                const std::vector<net::Application>& apps, Plan plan,
                std::string name = "OLIVE", OliveOptions options = {});

  /// Replaces the plan mid-run (the paper's future-work hook for
  /// time-dependent expected demand: re-plan at window boundaries —
  /// engine::ReplanPolicy drives this).  Currently-active planned
  /// allocations are re-classified as borrowed — they keep their resources
  /// but no longer hold guaranteed shares of the new plan, and become
  /// preemptible like any other non-planned allocation.
  bool install_plan(Plan plan) override;

  std::string name() const override { return name_; }
  void reset() override;
  EmbedOutcome embed(const workload::Request& r) override;
  FastPathStats fastpath_stats() const override { return stats_; }
  void depart(const workload::Request& r) override;
  const LoadTracker& load() const override { return load_; }

  /// Substrate dynamics: capacity changes flow straight into the residual
  /// view, and migration repairs re-admit as ad-hoc (greedy, preemptible)
  /// allocations.
  bool set_element_capacity(int element, double capacity) override;
  std::optional<EmbedOutcome> adopt(const workload::Request& r,
                                    const net::Embedding& e) override;

  const Plan& plan() const noexcept { return plan_; }

  /// Admission sequence number of an allocation (the newest-first victim
  /// tie-break).  64-bit: a live server admitting 10^5 requests/s would
  /// pass 2^31 within hours.
  using AdmissionOrder = std::int64_t;

  /// Residual planned demand of a plan column (Eq. 17), for tests.
  double plan_residual(int cls, int column) const;

  /// Snapshot of the active allocations, sorted by request id — the
  /// simulation-level invariant checker reconciles this against load().
  struct ActiveAllocation {
    workload::RequestId id = -1;
    int app = -1;
    double demand = 0;
    Usage usage;
    net::Embedding embedding;
  };
  std::vector<ActiveAllocation> active_allocations() const;

 private:
  struct Active {
    Usage usage;
    net::Embedding embedding;
    /// Position of this allocation inside elem_actives_[usage[i].first],
    /// parallel to `usage`.  Maintained only while the allocation is
    /// indexed (non-planned, fast path on); empty otherwise.
    std::vector<int> elem_pos;
    int app = -1;
    double demand = 0;
    bool planned = false;
    int cls = -1, column = -1;  // plan bookkeeping for planned allocations
    AdmissionOrder order = 0;   // newest preempted first
  };

  /// One elem_actives_ entry: the victim-order key (demand, order) inline,
  /// so preempt() gathers and orders candidates without touching active_.
  /// `active` points into active_'s node, which stays put across rehashes.
  struct IndexEntry {
    double demand = 0;
    AdmissionOrder order = 0;
    workload::RequestId id = -1;
    Active* active = nullptr;
  };

  /// Memoized GREEDYEMBED answer for one (app, ingress) class.  Valid for a
  /// later request iff the grow-epoch matches and its demand >= `demand`
  /// (feasible sets only shrink within an epoch); a feasible memo must
  /// additionally pass the element-wise residual check at the new demand.
  struct GreedyMemo {
    std::uint64_t epoch = 0;
    double demand = 0;
    bool feasible = false;
    Usage usage;
    net::Embedding embedding;
    double unit_cost = 0;
  };

  EmbedOutcome allocate(const workload::Request& r, net::Embedding e,
                        OutcomeKind kind, int cls, int column,
                        std::vector<workload::RequestId> preempted,
                        Usage usage, double unit_cost);

  /// Frees non-planned allocations overlapping the deficient elements until
  /// `usage`*demand fits, newest victims first.  Returns the preempted ids,
  /// or nullopt (and changes nothing) if even preempting every non-planned
  /// allocation would not make room.
  std::optional<std::vector<workload::RequestId>> preempt(const Usage& usage,
                                                          double demand);

  // --- fast-path index maintenance -------------------------------------
  bool indexing() const noexcept { return options_.enable_fastpath; }
  void index_add(workload::RequestId id, Active& a);
  void index_remove(workload::RequestId id, Active& a);
  void refresh_class_max(int cls);
  void rebuild_class_max();

  const net::SubstrateNetwork& substrate_;
  const std::vector<net::Application>& apps_;
  Plan plan_;
  std::string name_;
  OliveOptions options_;
  LoadTracker load_;
  std::vector<std::vector<double>> plan_used_;  // [class][column] demand
  std::unordered_map<workload::RequestId, Active> active_;
  AdmissionOrder admission_counter_ = 0;

  /// Dijkstra weights of GREEDYEMBED — pure function of the substrate,
  /// hoisted out of the per-request loop.
  std::vector<double> link_weights_;
  /// max_k plan_residual(cls, k), kept exact on every plan_used_ change —
  /// lets embed() skip whole PLANEMBED stages without touching a column.
  std::vector<double> class_max_;
  /// elem_actives_[element] = entries of the *non-planned* actives whose
  /// usage touches that element (the preempt candidate set), with O(1)
  /// swap-remove via Active::elem_pos.
  std::vector<std::vector<IndexEntry>> elem_actives_;
  std::unordered_map<long long, GreedyMemo> greedy_memo_;

  FastPathStats stats_;

  // preempt() scratch (reused across calls, cleared on entry)
  std::vector<std::pair<int, double>> deficit_;
  std::vector<IndexEntry> victim_heap_;  // indexed path
  std::vector<std::pair<workload::RequestId, const Active*>> candidates_;
};

}  // namespace olive::core
