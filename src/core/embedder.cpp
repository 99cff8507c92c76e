#include "core/embedder.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "util/error.hpp"

namespace olive::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

EffectiveCosts EffectiveCosts::plain(const net::SubstrateNetwork& s) {
  EffectiveCosts c;
  c.node_cost.resize(s.num_nodes());
  for (net::NodeId v = 0; v < s.num_nodes(); ++v)
    c.node_cost[v] = s.node(v).cost;
  c.link_weight = net::link_cost_weights(s);
  return c;
}

namespace {

// dp[i][v] = min cost of embedding the subtree rooted at virtual node i with
// i placed on substrate node v.  choice[j][v] = best host of child j given
// its parent at v.  The tables are independent of the ingress: only the
// reconstruction pins the root.  Two callables specialise the recurrence:
// host_ok(i, v) filters placements on top of η (the capacitated embedder's
// per-element residual check), and paths_of(l) names the shortest-path
// metric virtual link l routes on (one shared metric when pricing, one
// capacity-filtered metric per link size otherwise).
template <class HostOk, class PathsOf>
void run_tree_dp(const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
                 const std::vector<double>& node_cost, const HostOk& host_ok,
                 const PathsOf& paths_of,
                 std::vector<std::vector<double>>& dp,
                 std::vector<std::vector<net::NodeId>>& choice) {
  const int n_sub = s.num_nodes();
  const int n_virt = vn.num_nodes();
  dp.assign(n_virt, std::vector<double>(n_sub, 0.0));
  choice.assign(n_virt, std::vector<net::NodeId>(n_sub, -1));

  // Hosts with finite subtree cost for one child, in ascending order (the
  // scan order fixes tie-breaking: the lowest host id wins a tie).
  std::vector<net::NodeId> finite_hosts;
  std::vector<double> finite_costs;

  const auto& order = vn.preorder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int i = *it;
    // Node i's own placement cost first (ruling out forbidden hosts before
    // any shortest-path tree is requested keeps the lazy provider lazy).
    for (net::NodeId v = 0; v < n_sub; ++v) {
      const double coeff = net::eta(s, vn, i, v);
      dp[i][v] = std::isfinite(coeff) && host_ok(i, v)
                     ? vn.vnode(i).size * coeff * node_cost[v]
                     : kInf;
    }
    for (const int j : vn.children(i)) {
      finite_hosts.clear();
      finite_costs.clear();
      for (net::NodeId w = 0; w < n_sub; ++w) {
        if (dp[j][w] == kInf) continue;
        finite_hosts.push_back(w);
        finite_costs.push_back(dp[j][w]);
      }
      const int vl = vn.parent_link(j);
      const double beta_link = vn.vlink(vl).size;
      const net::LazyShortestPaths& paths = paths_of(vl);
      for (net::NodeId v = 0; v < n_sub; ++v) {
        if (dp[i][v] == kInf) continue;  // placement already ruled out
        double best = kInf;
        net::NodeId best_w = -1;
        if (!finite_hosts.empty()) {
          const auto& tv = paths.tree(v);
          for (std::size_t k = 0; k < finite_hosts.size(); ++k) {
            const double d = tv.dist[finite_hosts[k]];
            if (d == kInf) continue;
            const double c = beta_link * d + finite_costs[k];
            if (c < best) {
              best = c;
              best_w = finite_hosts[k];
            }
          }
        }
        if (best == kInf) {
          dp[i][v] = kInf;
          continue;
        }
        // Record the child's best host for every possible parent location;
        // only the final root-down pass commits to one.
        choice[j][v] = best_w;
        dp[i][v] += best;
      }
    }
  }
}

template <class PathsOf>
std::optional<net::Embedding> reconstruct_tree_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, const PathsOf& paths_of,
    const std::vector<std::vector<double>>& dp,
    const std::vector<std::vector<net::NodeId>>& choice) {
  OLIVE_REQUIRE(ingress >= 0 && ingress < s.num_nodes(), "ingress out of range");
  if (dp[0][ingress] == kInf) return std::nullopt;
  // η(θ, ·) must allow the ingress: the root DP folds it in already.
  net::Embedding e;
  e.node_map.assign(vn.num_nodes(), -1);
  e.link_paths.assign(vn.num_links(), {});
  e.node_map[0] = ingress;
  for (const int i : vn.preorder()) {
    if (i == 0) continue;
    const int p = vn.parent(i);
    const net::NodeId pv = e.node_map[p];
    OLIVE_ASSERT(pv >= 0);
    const net::NodeId w = choice[i][pv];
    OLIVE_ASSERT(w >= 0);
    e.node_map[i] = w;
    const int vl = vn.parent_link(i);
    if (w != pv) e.link_paths[vl] = paths_of(vl).path(pv, w);
  }
  return e;
}

}  // namespace

MinCostTreeDP::MinCostTreeDP(const net::SubstrateNetwork& s,
                             const net::VirtualNetwork& vn,
                             const EffectiveCosts& costs,
                             const net::LazyShortestPaths& paths)
    : s_(&s), vn_(&vn), paths_(&paths) {
  run_tree_dp(
      s, vn, costs.node_cost, [](int, net::NodeId) { return true; },
      [&paths](int) -> const net::LazyShortestPaths& { return paths; }, dp_,
      choice_);
}

std::optional<net::Embedding> MinCostTreeDP::embed(net::NodeId ingress) const {
  return reconstruct_tree_embedding(
      *s_, *vn_, ingress,
      [this](int) -> const net::LazyShortestPaths& { return *paths_; }, dp_,
      choice_);
}

std::optional<net::Embedding> capacitated_min_cost_tree_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, double demand, const LoadTracker& load) {
  OLIVE_REQUIRE(demand > 0, "demand must be positive");
  // Each virtual link routes over the substrate links that individually fit
  // its load: saturated links get +inf weight, which Dijkstra never relaxes
  // over.  Virtual links with equal β share one filtered metric.
  const auto plain = EffectiveCosts::plain(s);
  std::vector<double> betas;
  std::deque<net::LazyShortestPaths> metrics;  // metrics[k] filters betas[k]
  std::vector<const net::LazyShortestPaths*> paths_of_link(vn.num_links());
  for (int l = 0; l < vn.num_links(); ++l) {
    const double beta = vn.vlink(l).size;
    const auto seen = std::find(betas.begin(), betas.end(), beta);
    if (seen != betas.end()) {
      paths_of_link[l] = &metrics[seen - betas.begin()];
      continue;
    }
    std::vector<double> w = plain.link_weight;
    for (net::LinkId sl = 0; sl < s.num_links(); ++sl)
      if (load.residual(s.link_element(sl)) < beta * demand - 1e-9) w[sl] = kInf;
    betas.push_back(beta);
    paths_of_link[l] = &metrics.emplace_back(s, std::move(w));
  }
  // θ is the ingress, not a placed VNF: only η constrains its host.
  const auto host_fits = [&](int i, net::NodeId v) {
    return i == 0 || load.residual(s.node_element(v)) >=
                         vn.vnode(i).size * demand - 1e-9;
  };
  const auto paths_of = [&](int l) -> const net::LazyShortestPaths& {
    return *paths_of_link[l];
  };
  std::vector<std::vector<double>> dp;
  std::vector<std::vector<net::NodeId>> choice;
  run_tree_dp(s, vn, plain.node_cost, host_fits, paths_of, dp, choice);
  return reconstruct_tree_embedding(s, vn, ingress, paths_of, dp, choice);
}

std::optional<net::Embedding> greedy_collocated_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, double demand, const LoadTracker& load) {
  return greedy_collocated_embedding(s, vn, ingress, demand, load,
                                     net::link_cost_weights(s));
}

std::optional<net::Embedding> greedy_collocated_embedding(
    const net::SubstrateNetwork& s, const net::VirtualNetwork& vn,
    net::NodeId ingress, double demand, const LoadTracker& load,
    const std::vector<double>& link_weights) {
  OLIVE_REQUIRE(demand > 0, "demand must be positive");
  // All VNFs share one host: total node usage and the set of virtual links
  // that ride the ingress->host path (exactly those adjacent to θ).
  double node_size = 0;
  for (int i = 1; i < vn.num_nodes(); ++i) node_size += vn.vnode(i).size;
  double path_size = 0;
  for (const int j : vn.children(0))
    path_size += vn.vlink(vn.parent_link(j)).size;

  // A GPU/non-GPU VNF mix cannot collocate on any node.
  const auto host_allowed = [&](net::NodeId v) {
    for (int i = 1; i < vn.num_nodes(); ++i)
      if (!net::placement_allowed(s, vn, i, v)) return false;
    return true;
  };

  // One Dijkstra from the ingress over links with enough residual capacity
  // for the θ-adjacent virtual links.
  const auto tree = net::dijkstra(
      s, ingress, link_weights, [&](net::LinkId l) {
        return load.residual(s.link_element(l)) >= path_size * demand - 1e-9;
      });

  double best_cost = kInf;
  net::NodeId best = -1;
  for (net::NodeId v = 0; v < s.num_nodes(); ++v) {
    if (!tree.reachable(v)) continue;
    if (!host_allowed(v)) continue;
    if (load.residual(s.node_element(v)) < node_size * demand - 1e-9) continue;
    const double cost =
        node_size * s.node(v).cost + path_size * tree.dist[v];
    if (cost < best_cost) {
      best_cost = cost;
      best = v;
    }
  }
  if (best < 0) return std::nullopt;

  net::Embedding e;
  e.node_map.assign(vn.num_nodes(), best);
  e.node_map[0] = ingress;
  e.link_paths.assign(vn.num_links(), {});
  if (best != ingress) {
    const auto path = tree.path_to(best);
    for (const int j : vn.children(0)) e.link_paths[vn.parent_link(j)] = path;
  }
  return e;
}

}  // namespace olive::core
