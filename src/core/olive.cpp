#include "core/olive.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "core/aggregation.hpp"
#include "core/embedder.hpp"
#include "net/embedding.hpp"
#include "net/paths.hpp"
#include "util/error.hpp"

namespace olive::core {

const char* to_string(OutcomeKind k) noexcept {
  switch (k) {
    case OutcomeKind::Planned: return "planned";
    case OutcomeKind::Borrowed: return "borrowed";
    case OutcomeKind::Greedy: return "greedy";
    case OutcomeKind::Rejected: return "rejected";
  }
  return "?";
}

OliveEmbedder::OliveEmbedder(const net::SubstrateNetwork& s,
                             const std::vector<net::Application>& apps,
                             Plan plan, std::string name, OliveOptions options)
    : substrate_(s),
      apps_(apps),
      plan_(std::move(plan)),
      name_(std::move(name)),
      options_(options),
      load_(s),
      link_weights_(net::link_cost_weights(s)) {
  reset();
}

bool OliveEmbedder::install_plan(Plan plan) {
  plan_ = std::move(plan);
  plan_used_.assign(plan_.num_classes(), {});
  for (int c = 0; c < plan_.num_classes(); ++c)
    plan_used_[c].assign(plan_.cls(c).columns.size(), 0.0);
  rebuild_class_max();
  // Active planned allocations lose their guaranteed status under the new
  // plan: they keep resources but become preemptible borrowers — and thus
  // join the preempt candidate index.
  for (auto& [id, a] : active_) {
    if (!a.planned) continue;
    a.planned = false;
    a.cls = a.column = -1;
    if (indexing()) index_add(id, a);
  }
  return true;
}

void OliveEmbedder::reset() {
  load_.reset();
  active_.clear();
  admission_counter_ = 0;
  plan_used_.assign(plan_.num_classes(), {});
  for (int c = 0; c < plan_.num_classes(); ++c)
    plan_used_[c].assign(plan_.cls(c).columns.size(), 0.0);
  rebuild_class_max();
  elem_actives_.assign(substrate_.element_count(), {});
  greedy_memo_.clear();
  stats_ = {};
}

double OliveEmbedder::plan_residual(int cls, int column) const {
  return plan_.cls(cls).columns.at(column).planned_demand -
         plan_used_.at(cls).at(column);
}

void OliveEmbedder::refresh_class_max(int cls) {
  const auto& cols = plan_.cls(cls).columns;
  double mx = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < cols.size(); ++k)
    mx = std::max(mx, cols[k].planned_demand - plan_used_[cls][k]);
  class_max_[cls] = mx;
}

void OliveEmbedder::rebuild_class_max() {
  class_max_.assign(plan_.num_classes(), 0.0);
  for (int c = 0; c < plan_.num_classes(); ++c) refresh_class_max(c);
}

void OliveEmbedder::index_add(workload::RequestId id, Active& a) {
  a.elem_pos.resize(a.usage.size());
  for (std::size_t i = 0; i < a.usage.size(); ++i) {
    auto& bucket = elem_actives_[a.usage[i].first];
    a.elem_pos[i] = static_cast<int>(bucket.size());
    bucket.push_back({a.demand, a.order, id, &a});
  }
}

void OliveEmbedder::index_remove(workload::RequestId id, Active& a) {
  for (std::size_t i = 0; i < a.usage.size(); ++i) {
    const int elem = a.usage[i].first;
    auto& bucket = elem_actives_[elem];
    const int pos = a.elem_pos[i];
    OLIVE_ASSERT(bucket.at(pos).id == id);
    bucket[pos] = bucket.back();
    bucket.pop_back();
    if (pos < static_cast<int>(bucket.size())) {
      // Backpatch the moved allocation's recorded position for this element
      // (usage vectors aggregate per element, so the entry is unique).
      Active& m = *bucket[pos].active;
      for (std::size_t j = 0; j < m.usage.size(); ++j) {
        if (m.usage[j].first == elem) {
          m.elem_pos[j] = pos;
          break;
        }
      }
    }
  }
  a.elem_pos.clear();
}

EmbedOutcome OliveEmbedder::allocate(const workload::Request& r,
                                     net::Embedding e, OutcomeKind kind,
                                     int cls, int column,
                                     std::vector<workload::RequestId> preempted,
                                     Usage usage, double unit_cost) {
  EmbedOutcome out;
  out.kind = kind;
  out.usage = std::move(usage);
  out.unit_cost = unit_cost;
  out.embedding = std::move(e);
  out.preempted_ids = std::move(preempted);
  OLIVE_ASSERT(load_.fits(out.usage, r.demand));
  load_.apply(out.usage, r.demand);

  Active a;
  a.usage = out.usage;  // the outcome and the ledger each keep a copy
  a.embedding = out.embedding;
  a.app = r.app;
  a.demand = r.demand;
  a.planned = (kind == OutcomeKind::Planned);
  a.cls = cls;
  a.column = column;
  a.order = admission_counter_++;
  if (a.planned) {
    plan_used_[cls][column] += r.demand;
    refresh_class_max(cls);
  }
  const auto [it, inserted] = active_.emplace(r.id, std::move(a));
  OLIVE_ASSERT(inserted);
  if (!it->second.planned && indexing()) index_add(r.id, it->second);
  return out;
}

std::optional<std::vector<workload::RequestId>> OliveEmbedder::preempt(
    const Usage& usage, double demand) {
  ++stats_.preempt_calls;
  // Deficiency per element that the new allocation would overdraw.
  deficit_.clear();
  for (const auto& [elem, amount] : usage) {
    const double need = amount * demand - load_.residual(elem);
    if (need > 1e-9) deficit_.emplace_back(elem, need);
  }
  if (deficit_.empty()) return std::vector<workload::RequestId>{};

  // Candidate victims: non-planned active allocations that touch a
  // deficient element, smallest demand first (the paper does not fix a
  // victim order; preferring small victims minimizes the service lost per
  // preemption), ties broken newest-first.  (demand, order) is a strict
  // total order over distinct allocations (orders are unique), so the
  // candidate sequence is the same whether it comes from the full scan and
  // sort (the specification, fast path off) or from the reverse index and
  // a heap (fast path on).  take() consumes that sequence: it skips
  // candidates that no longer help, enforces the churn guard, and reports
  // when the deficit is covered.
  enum class Scan { More, Covered, Refused };
  const double churn_limit = demand * (1 + 1e-9);
  std::vector<workload::RequestId> victims;
  double victim_demand = 0;
  const auto take = [&](workload::RequestId id, const Active& a) {
    bool helps = false;
    for (auto& [elem, need] : deficit_) {
      if (need <= 1e-9) continue;
      for (const auto& [ue, amt] : a.usage) {
        if (ue == elem) {
          helps = true;
          break;
        }
      }
      if (helps) break;
    }
    if (!helps) return Scan::More;
    // Churn guard: preempting more demand than the planned request serves
    // would shrink net service — in that case leave the borrowers alone and
    // let the request take the greedy/reject path instead.  (The paper
    // fixes neither victim order nor this trade-off; see DESIGN.md.)
    victim_demand += a.demand;
    if (victim_demand > churn_limit) return Scan::Refused;
    victims.push_back(id);
    for (auto& [elem, need] : deficit_) {
      for (const auto& [ue, amt] : a.usage)
        if (ue == elem) need -= amt * a.demand;
    }
    const bool covered = std::all_of(
        deficit_.begin(), deficit_.end(),
        [](const auto& d) { return d.second <= 1e-9; });
    return covered ? Scan::Covered : Scan::More;
  };

  Scan scan = Scan::More;
  if (indexing()) {
    // Gather from the reverse index, dropping every entry whose own demand
    // exceeds the churn limit.  That is exact: in victim order all such
    // entries come after all the others, and once the specification's scan
    // reaches one without having returned, it can only end in nullopt —
    // a helpful one trips the churn guard (victim_demand >= 0, so the
    // rounded sum is >= its own demand > churn_limit), an unhelpful one is
    // skipped, and no later victim can be taken.  The filtered scan ends
    // in nullopt at that same point, by running out of candidates.
    victim_heap_.clear();
    for (const auto& [elem, need] : deficit_) {
      (void)need;
      const auto& bucket = elem_actives_[elem];
      stats_.preempt_scanned += static_cast<long>(bucket.size());
      for (const IndexEntry& e : bucket)
        if (e.demand <= churn_limit) victim_heap_.push_back(e);
    }
    // Lazy selection: a heap under the same strict total order pops the
    // candidates in sorted order, O(A + v log A) for v pops instead of a
    // full sort.  An allocation is gathered once per deficient element it
    // touches; its copies compare equal, so they pop consecutively.
    const auto after = [](const IndexEntry& x, const IndexEntry& y) {
      if (x.demand != y.demand) return x.demand > y.demand;
      return x.order < y.order;
    };
    std::make_heap(victim_heap_.begin(), victim_heap_.end(), after);
    const Active* last = nullptr;
    while (scan == Scan::More && !victim_heap_.empty()) {
      std::pop_heap(victim_heap_.begin(), victim_heap_.end(), after);
      const IndexEntry e = victim_heap_.back();
      victim_heap_.pop_back();
      if (e.active == last) continue;
      last = e.active;
      ++stats_.preempt_popped;
      scan = take(e.id, *e.active);
    }
  } else {
    candidates_.clear();
    const auto touches_deficit = [&](const Active& a) {
      for (const auto& [elem, need] : deficit_) {
        if (need <= 0) continue;
        for (const auto& [ue, amt] : a.usage) {
          (void)amt;
          if (ue == elem) return true;
        }
      }
      return false;
    };
    for (const auto& [id, a] : active_)
      if (!a.planned && touches_deficit(a)) candidates_.emplace_back(id, &a);
    std::sort(candidates_.begin(), candidates_.end(),
              [](const auto& x, const auto& y) {
                if (x.second->demand != y.second->demand)
                  return x.second->demand < y.second->demand;
                return x.second->order > y.second->order;
              });
    candidates_.erase(
        std::unique(candidates_.begin(), candidates_.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first;
                    }),
        candidates_.end());
    for (const auto& [id, a] : candidates_) {
      scan = take(id, *a);
      if (scan != Scan::More) break;
    }
  }
  // Refused by the churn guard, or even full preemption would not make room.
  if (scan != Scan::Covered) return std::nullopt;

  // Commit: release the victims' resources and drop them.  release() bumps
  // the grow-epoch, which invalidates the greedy memos.
  for (const workload::RequestId vid : victims) {
    Active& victim = active_.at(vid);
    load_.release(victim.usage, victim.demand);
    if (indexing()) index_remove(vid, victim);
    active_.erase(vid);
  }
  return victims;
}

EmbedOutcome OliveEmbedder::embed(const workload::Request& r) {
  OLIVE_REQUIRE(r.app >= 0 && r.app < static_cast<int>(apps_.size()),
                "request app out of range");
  OLIVE_REQUIRE(!active_.contains(r.id), "duplicate request id");

  const int cls = plan_.class_index(r.app, r.ingress);
  const bool fast = options_.enable_fastpath;

  if (cls >= 0) {
    const PlanClass& pc = plan_.cls(cls);
    // class_max_[cls] is the exact max of the class's plan residuals, so a
    // stage whose per-column residual gate cannot pass is skipped wholesale.
    const double cmax = fast ? class_max_[cls] : 0.0;
    if (!fast || cmax >= r.demand - 1e-9) {
      // --- PLANEMBED, full fit (Alg. 2 line 25): plan residual covers d(r).
      // First pass: a column that fits the substrate as-is; preemption
      // (lines 8-9) is a last resort, only once no column fits without it —
      // otherwise borrowed allocations get churned needlessly.
      for (std::size_t k = 0; k < pc.columns.size(); ++k) {
        if (plan_residual(cls, static_cast<int>(k)) < r.demand - 1e-9)
          continue;
        const PlanColumn& col = pc.columns[k];
        if (load_.fits(col.usage, r.demand)) {
          return allocate(r, col.embedding, OutcomeKind::Planned, cls,
                          static_cast<int>(k), {}, col.usage, col.unit_cost);
        }
      }
      if (options_.enable_preempt) {
        // Guaranteed share: free "borrowed" capacity (lines 8-9).
        for (std::size_t k = 0; k < pc.columns.size(); ++k) {
          if (plan_residual(cls, static_cast<int>(k)) < r.demand - 1e-9)
            continue;
          const PlanColumn& col = pc.columns[k];
          if (auto preempted = preempt(col.usage, r.demand)) {
            return allocate(r, col.embedding, OutcomeKind::Planned, cls,
                            static_cast<int>(k), std::move(*preempted),
                            col.usage, col.unit_cost);
          }
        }
      }
    } else {
      ++stats_.column_skips;
    }
    // --- PLANEMBED, partial fit (line 27): borrow along a plan column.
    if (options_.enable_borrow) {
      if (!fast || cmax > 1e-9) {
        for (std::size_t k = 0; k < pc.columns.size(); ++k) {
          const PlanColumn& col = pc.columns[k];
          if (plan_residual(cls, static_cast<int>(k)) <= 1e-9) continue;
          if (load_.fits(col.usage, r.demand)) {
            return allocate(r, col.embedding, OutcomeKind::Borrowed, cls,
                            static_cast<int>(k), {}, col.usage, col.unit_cost);
          }
        }
      } else {
        ++stats_.column_skips;
      }
    }
  }

  // --- GREEDYEMBED fallback (line 11).
  if (options_.enable_greedy) {
    if (fast) {
      const long long key = class_key(r.app, r.ingress);
      const auto it = greedy_memo_.find(key);
      if (it != greedy_memo_.end()) {
        GreedyMemo& m = it->second;
        if (m.epoch != load_.grow_epoch()) {
          ++stats_.greedy_memo_invalidations;
        } else if (r.demand >= m.demand) {
          // Same epoch, no smaller demand: the feasible set only shrank
          // since the memo was taken, so an infeasible memo stays
          // infeasible, and a feasible one that still passes the greedy's
          // own element-wise residual check (strictly tighter than
          // LoadTracker::fits) is exactly what GREEDYEMBED would return.
          if (!m.feasible) {
            ++stats_.greedy_memo_hits;
            return EmbedOutcome{};
          }
          bool ok = true;
          for (const auto& [elem, amt] : m.usage) {
            if (load_.residual(elem) < amt * r.demand - 1e-9) {
              ok = false;
              break;
            }
          }
          if (ok) {
            ++stats_.greedy_memo_hits;
            return allocate(r, m.embedding, OutcomeKind::Greedy, -1, -1, {},
                            m.usage, m.unit_cost);
          }
        }
      }
      ++stats_.greedy_memo_misses;
      auto emb = greedy_collocated_embedding(substrate_, apps_[r.app].topology,
                                             r.ingress, r.demand, load_,
                                             link_weights_);
      GreedyMemo& m = greedy_memo_[key];
      m.epoch = load_.grow_epoch();
      m.demand = r.demand;
      m.feasible = emb.has_value();
      if (emb) {
        m.usage = net::unit_usage(substrate_, apps_[r.app].topology, *emb);
        m.unit_cost = net::unit_cost(substrate_, apps_[r.app].topology, *emb);
        m.embedding = *emb;
        return allocate(r, std::move(*emb), OutcomeKind::Greedy, -1, -1, {},
                        Usage(m.usage), m.unit_cost);
      }
      m.usage.clear();
      m.embedding = net::Embedding{};
      m.unit_cost = 0;
    } else if (auto emb = greedy_collocated_embedding(
                   substrate_, apps_[r.app].topology, r.ingress, r.demand,
                   load_, link_weights_)) {
      Usage usage = net::unit_usage(substrate_, apps_[r.app].topology, *emb);
      const double uc = net::unit_cost(substrate_, apps_[r.app].topology, *emb);
      return allocate(r, std::move(*emb), OutcomeKind::Greedy, -1, -1, {},
                      std::move(usage), uc);
    }
  }

  return EmbedOutcome{};  // reject (line 15)
}

bool OliveEmbedder::set_element_capacity(int element, double capacity) {
  // A raise bumps the grow-epoch (invalidating the greedy memos); a drop
  // only shrinks residuals, which every memo hit revalidates against anyway.
  load_.set_capacity(element, capacity);
  return true;
}

std::optional<EmbedOutcome> OliveEmbedder::adopt(const workload::Request& r,
                                                 const net::Embedding& e) {
  OLIVE_REQUIRE(!active_.contains(r.id), "adopt of a still-active request");
  Usage usage = net::unit_usage(substrate_, apps_[r.app].topology, e);
  if (!load_.fits(usage, r.demand)) return std::nullopt;
  const double uc = net::unit_cost(substrate_, apps_[r.app].topology, e);
  // Migrated allocations are ad-hoc: they hold no plan share and are
  // preemptible like any greedy embedding.
  return allocate(r, e, OutcomeKind::Greedy, -1, -1, {}, std::move(usage), uc);
}

std::vector<OliveEmbedder::ActiveAllocation>
OliveEmbedder::active_allocations() const {
  std::vector<ActiveAllocation> out;
  out.reserve(active_.size());
  for (const auto& [id, a] : active_)
    out.push_back({id, a.app, a.demand, a.usage, a.embedding});
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.id < y.id; });
  return out;
}

void OliveEmbedder::depart(const workload::Request& r) {
  const auto it = active_.find(r.id);
  if (it == active_.end()) return;  // rejected or preempted earlier
  Active& a = it->second;
  load_.release(a.usage, a.demand);
  if (a.planned) {
    plan_used_[a.cls][a.column] -= a.demand;
    refresh_class_max(a.cls);
  } else if (indexing()) {
    index_remove(r.id, a);
  }
  active_.erase(it);
}

}  // namespace olive::core
