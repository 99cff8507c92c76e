#include "core/migrator.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "core/embedder.hpp"
#include "core/plan_solver.hpp"
#include "net/paths.hpp"
#include "util/error.hpp"

namespace olive::core {

namespace {
constexpr double kTol = 1e-9;
}  // namespace

Migrator::Migrator(const net::SubstrateNetwork& substrate,
                   const std::vector<net::Application>& apps)
    : substrate_(substrate),
      apps_(apps),
      link_costs_(net::link_cost_weights(substrate)) {}

std::optional<net::Embedding> Migrator::patch_paths(
    const net::VirtualNetwork& vn, const net::Embedding& broken,
    double demand, const LoadTracker& load) const {
  // The patch keeps every VNF in place, so each hosting node must still fit
  // its aggregate placed size.
  std::unordered_map<net::NodeId, double> node_size;
  for (int i = 0; i < vn.num_nodes(); ++i)
    node_size[broken.node_map[i]] += vn.vnode(i).size;
  for (const auto& [v, size] : node_size) {
    if (size == 0) continue;
    if (load.residual(substrate_.node_element(v)) < size * demand - kTol)
      return std::nullopt;  // a placement itself is broken; patching won't do
  }

  net::Embedding candidate = broken;
  for (int l = 0; l < vn.num_links(); ++l) {
    const double beta = vn.vlink(l).size;
    const auto link_ok = [&](net::LinkId sl) {
      return load.residual(substrate_.link_element(sl)) >=
             beta * demand - kTol;
    };
    bool path_alive = true;
    for (const net::LinkId sl : candidate.link_paths[l])
      if (!link_ok(sl)) path_alive = false;
    if (path_alive) continue;

    // Re-route this virtual link: min-cost path between its endpoints over
    // the links that individually fit it.
    const net::NodeId from = candidate.node_map[vn.vlink(l).parent];
    const net::NodeId to = candidate.node_map[vn.vlink(l).child];
    const net::ShortestPathTree tree =
        net::dijkstra(substrate_, from, link_costs_, link_ok);
    if (!tree.reachable(to)) return std::nullopt;
    candidate.link_paths[l] = tree.path_to(to);
  }

  // Per-link checks are only necessary conditions; the joint load decides.
  if (!load.fits(net::unit_usage(substrate_, vn, candidate), demand))
    return std::nullopt;
  return candidate;
}

std::optional<net::Embedding> Migrator::repair(const workload::Request& r,
                                               const net::Embedding& broken,
                                               const LoadTracker& load,
                                               RepairStage* stage) {
  OLIVE_REQUIRE(r.app >= 0 && r.app < static_cast<int>(apps_.size()),
                "request app out of range");
  const net::VirtualNetwork& vn = apps_[r.app].topology;
  ++stats_.attempts;
  if (stage) *stage = RepairStage::None;

  if (auto patched = patch_paths(vn, broken, r.demand, load)) {
    ++stats_.path_patches;
    if (stage) *stage = RepairStage::Patched;
    return patched;
  }

  if (auto e = capacitated_min_cost_tree_embedding(substrate_, vn, r.ingress,
                                                   r.demand, load)) {
    if (load.fits(net::unit_usage(substrate_, vn, *e), r.demand)) {
      ++stats_.reembeds;
      if (stage) *stage = RepairStage::Reembedded;
      return e;
    }
  }
  if (auto e = greedy_collocated_embedding(substrate_, vn, r.ingress,
                                           r.demand, load, link_costs_)) {
    ++stats_.reembeds;
    if (stage) *stage = RepairStage::Reembedded;
    return e;
  }

  ++stats_.failures;
  return std::nullopt;
}

std::vector<std::optional<net::Embedding>> Migrator::plan_batch(
    const std::vector<const workload::Request*>& batch,
    const LoadTracker& load) {
  std::vector<std::optional<net::Embedding>> result(batch.size());
  if (batch.size() < 2) return result;  // nothing joint about a singleton
  ++stats_.batch_solves;

  // Aggregate the batch into (app, ingress) classes — the convexity-row
  // granularity of the joint solve — remembering each class's members.
  std::map<long long, int> class_of;
  std::vector<AggregateRequest> aggregates;
  std::vector<std::vector<int>> members;  // batch indices per class
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const workload::Request& r = *batch[i];
    OLIVE_REQUIRE(r.app >= 0 && r.app < static_cast<int>(apps_.size()),
                  "request app out of range");
    const long long key = class_key(r.app, r.ingress);
    auto [it, inserted] =
        class_of.try_emplace(key, static_cast<int>(aggregates.size()));
    if (inserted) {
      AggregateRequest agg;
      agg.app = r.app;
      agg.ingress = r.ingress;
      members.emplace_back();
      aggregates.push_back(agg);
    }
    aggregates[it->second].demand += r.demand;
    aggregates[it->second].request_count += 1;
    members[it->second].push_back(static_cast<int>(i));
  }

  // One small OFF-VNE instance over the residual capacities.  A single
  // rejection quantile keeps the master tiny (infeasible shares are simply
  // rejected and fall back to staged repair); pricing is single-threaded so
  // repair work never depends on the engine's thread count.
  PlanVneConfig cfg;
  cfg.quantiles = 1;
  cfg.max_rounds = 6;
  cfg.threads = 1;
  cfg.capacities = load.residuals();
  const Plan plan = solve_plan_vne(substrate_, apps_, aggregates, cfg);

  // Round the fractional class optimum back to per-request embeddings:
  // members largest-demand-first (ties by batch order, i.e. request id
  // order), columns by descending planned share, first fit against a
  // scratch tracker so the seated set stays jointly feasible.
  LoadTracker scratch = load;
  for (int c = 0; c < plan.num_classes(); ++c) {
    const PlanClass& pc = plan.cls(c);
    std::vector<const PlanColumn*> cols;
    for (const PlanColumn& col : pc.columns) cols.push_back(&col);
    std::stable_sort(cols.begin(), cols.end(),
                     [](const PlanColumn* a, const PlanColumn* b) {
                       return a->planned_demand > b->planned_demand;
                     });
    std::vector<int> order = members[c];
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return batch[a]->demand > batch[b]->demand;
    });
    for (const int i : order) {
      const workload::Request& r = *batch[i];
      for (const PlanColumn* col : cols) {
        if (!scratch.fits(col->usage, r.demand)) continue;
        scratch.apply(col->usage, r.demand);
        result[i] = col->embedding;
        ++stats_.batch_placed;
        break;
      }
    }
  }
  return result;
}

}  // namespace olive::core
