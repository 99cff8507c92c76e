#include "workload/failures.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <unordered_set>

#include "util/distributions.hpp"
#include "util/error.hpp"

namespace olive::workload {

const char* to_string(FailureKind k) noexcept {
  switch (k) {
    case FailureKind::NodeDown: return "node_down";
    case FailureKind::NodeUp: return "node_up";
    case FailureKind::LinkDown: return "link_down";
    case FailureKind::LinkUp: return "link_up";
    case FailureKind::Rescale: return "rescale";
  }
  return "?";
}

void validate_failure_trace(const FailureTrace& trace,
                            const net::SubstrateNetwork& substrate) {
  int prev_slot = 0;
  for (const FailureEvent& ev : trace) {
    OLIVE_REQUIRE(ev.slot >= 0, "failure event slot must be >= 0");
    OLIVE_REQUIRE(ev.slot >= prev_slot, "failure trace must be slot-sorted");
    prev_slot = ev.slot;
    OLIVE_REQUIRE(ev.element >= 0 && ev.element < substrate.element_count(),
                  "failure event element out of range");
    const bool is_node = substrate.element_is_node(ev.element);
    switch (ev.kind) {
      case FailureKind::NodeDown:
      case FailureKind::NodeUp:
        OLIVE_REQUIRE(is_node, "node event against a link element");
        break;
      case FailureKind::LinkDown:
      case FailureKind::LinkUp:
        OLIVE_REQUIRE(!is_node, "link event against a node element");
        break;
      case FailureKind::Rescale:
        OLIVE_REQUIRE(ev.factor >= 0, "rescale factor must be >= 0");
        break;
    }
  }
}

namespace {

/// Outage length in slots: 1 + an exponential tail, mean ~= repair_mean.
int draw_outage(Rng& rng, double repair_mean) {
  const double tail = std::max(0.0, repair_mean - 1.0);
  if (tail == 0) return 1;
  return 1 + static_cast<int>(std::floor(sample_exponential(rng, tail)));
}

/// "p<digits>" name prefix, or "" when the node is not pod-named.
std::string pod_prefix(const std::string& name) {
  if (name.size() < 2 || name[0] != 'p' ||
      !std::isdigit(static_cast<unsigned char>(name[1])))
    return {};
  std::size_t i = 1;
  while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i])))
    ++i;
  return name.substr(0, i);
}

/// Expands a maintenance window into concrete element indices.
std::vector<int> resolve_window_elements(
    const MaintenanceWindow& w, const net::SubstrateNetwork& substrate) {
  if (!w.elements.empty()) return w.elements;
  std::vector<int> elems;
  for (net::NodeId v = 0;
       v < substrate.num_nodes() && static_cast<int>(elems.size()) < w.count;
       ++v) {
    if (substrate.node(v).tier == w.tier)
      elems.push_back(substrate.node_element(v));
  }
  return elems;
}

}  // namespace

std::vector<SharedRiskGroup> derive_shared_risk_groups(
    const net::SubstrateNetwork& substrate, bool fail_edge) {
  std::vector<SharedRiskGroup> groups;
  // Racks: every failable node together with its incident links (the shared
  // power-feed / ToR model).  Deterministic: node id order, incident links
  // in adjacency order.
  for (net::NodeId v = 0; v < substrate.num_nodes(); ++v) {
    if (!fail_edge && substrate.node(v).tier == net::Tier::Edge) continue;
    SharedRiskGroup g;
    g.name = "rack:" + substrate.node(v).name;
    g.elements.push_back(substrate.node_element(v));
    for (const auto& [nbr, link] : substrate.adjacency(v))
      g.elements.push_back(substrate.link_element(link));
    groups.push_back(std::move(g));
  }
  // Pods: fat-tree naming encodes pod membership as a "p<k>" name prefix.
  // A pod group is its member nodes plus the links internal to the pod.
  std::map<std::string, std::vector<net::NodeId>> pods;
  for (net::NodeId v = 0; v < substrate.num_nodes(); ++v) {
    const std::string p = pod_prefix(substrate.node(v).name);
    if (!p.empty()) pods[p].push_back(v);
  }
  for (const auto& [prefix, members] : pods) {
    if (members.size() < 2) continue;
    std::unordered_set<net::NodeId> in_pod(members.begin(), members.end());
    SharedRiskGroup g;
    g.name = "pod:" + prefix;
    for (const net::NodeId v : members) {
      if (!fail_edge && substrate.node(v).tier == net::Tier::Edge) continue;
      g.elements.push_back(substrate.node_element(v));
    }
    for (net::LinkId l = 0; l < substrate.num_links(); ++l) {
      const auto& lk = substrate.link(l);
      if (in_pod.count(lk.a) && in_pod.count(lk.b))
        g.elements.push_back(substrate.link_element(l));
    }
    if (!g.elements.empty()) groups.push_back(std::move(g));
  }
  return groups;
}

void validate_failure_config(const FailureConfig& config,
                             const net::SubstrateNetwork& substrate) {
  OLIVE_REQUIRE(config.node_mtbf >= 0 && config.link_mtbf >= 0,
                "MTBF must be >= 0");
  OLIVE_REQUIRE(config.repair_mean >= 1, "repair_mean must be >= 1 slot");
  OLIVE_REQUIRE(
      config.max_down_fraction >= 0 && config.max_down_fraction <= 1,
      "max_down_fraction must be in [0, 1]");
  OLIVE_REQUIRE(config.rescale_rate >= 0 && config.rescale_rate <= 1,
                "rescale_rate must be in [0, 1]");
  OLIVE_REQUIRE(0 <= config.rescale_min &&
                    config.rescale_min <= config.rescale_max,
                "rescale factor range must satisfy 0 <= min <= max");
  OLIVE_REQUIRE(config.group_mtbf >= 0, "group_mtbf must be >= 0");

  for (std::size_t i = 0; i < config.groups.size(); ++i) {
    const SharedRiskGroup& g = config.groups[i];
    const std::string who = "shared-risk group '" + g.name + "' (#" +
                            std::to_string(i) + ")";
    OLIVE_REQUIRE(!g.elements.empty(), (who + " is empty").c_str());
    std::unordered_set<int> seen;
    for (const int e : g.elements) {
      OLIVE_REQUIRE(e >= 0 && e < substrate.element_count(),
                    (who + " names unknown element " + std::to_string(e) +
                     " (substrate has " +
                     std::to_string(substrate.element_count()) + " elements)")
                        .c_str());
      OLIVE_REQUIRE(seen.insert(e).second,
                    (who + " lists element " + substrate.element_name(e) +
                     " twice")
                        .c_str());
    }
  }

  for (std::size_t i = 0; i < config.maintenance.size(); ++i) {
    const MaintenanceWindow& w = config.maintenance[i];
    const std::string who = "maintenance window #" + std::to_string(i);
    OLIVE_REQUIRE(w.slot >= 0, (who + " has a negative slot").c_str());
    OLIVE_REQUIRE(w.duration >= 1,
                  (who + " must last at least one slot").c_str());
    for (const int e : w.elements)
      OLIVE_REQUIRE(e >= 0 && e < substrate.element_count(),
                    (who + " names unknown element " + std::to_string(e))
                        .c_str());
    OLIVE_REQUIRE(!resolve_window_elements(w, substrate).empty(),
                  (who + " selects no elements").c_str());
  }
}

FailureTrace generate_failure_trace(const net::SubstrateNetwork& substrate,
                                    const FailureConfig& config, int horizon,
                                    Rng& rng) {
  OLIVE_REQUIRE(horizon >= 0, "failure horizon must be >= 0");
  validate_failure_config(config, substrate);

  FailureTrace trace;
  if (!config.enabled() || horizon == 0) return trace;

  std::vector<int> nodes;
  for (net::NodeId v = 0; v < substrate.num_nodes(); ++v) {
    if (!config.fail_edge && substrate.node(v).tier == net::Tier::Edge)
      continue;
    nodes.push_back(v);
  }
  std::vector<int> links;
  for (net::LinkId l = 0; l < substrate.num_links(); ++l)
    links.push_back(substrate.link_element(l));

  std::vector<SharedRiskGroup> groups = config.groups;
  if (config.derive_groups) {
    auto derived = derive_shared_risk_groups(substrate, config.fail_edge);
    groups.insert(groups.end(), std::make_move_iterator(derived.begin()),
                  std::make_move_iterator(derived.end()));
  }
  const bool group_failures = config.group_mtbf > 0 && !groups.empty();

  // maint_at[t] = (duration, elements) of windows starting at slot t, in
  // config list order.
  std::map<int, std::vector<std::pair<int, std::vector<int>>>> maint_at;
  for (const MaintenanceWindow& w : config.maintenance) {
    if (w.slot >= horizon) continue;
    maint_at[w.slot].emplace_back(w.duration,
                                  resolve_window_elements(w, substrate));
  }

  // up_at[element] = first slot the element is up again (0 = up now).
  std::vector<int> up_at(substrate.element_count(), 0);
  int nodes_down = 0, links_down = 0;

  const auto clamp_back = [horizon](int back) {
    return back < horizon ? back : horizon + 1;  // +1: never recovers
  };
  const auto take_down = [&](int t, int e, int back) {
    const bool is_node = substrate.element_is_node(e);
    trace.push_back(
        {t, is_node ? FailureKind::NodeDown : FailureKind::LinkDown, e, 1.0});
    up_at[e] = back;
    ++(is_node ? nodes_down : links_down);
  };

  // One slot at a time with a fixed phase order — recoveries, maintenance,
  // node hazards, link hazards, group hazards, rescale — and elements in
  // ascending order within each phase.  Recoveries and maintenance consume
  // no randomness, so the RNG stream is untouched by them and the hazard
  // draw sequence is bit-compatible with configs that use neither.
  for (int t = 0; t < horizon; ++t) {
    // Recoveries (all element types; maintenance may down ineligible ones).
    for (int e = 0; e < substrate.element_count(); ++e) {
      if (up_at[e] != t || up_at[e] == 0) continue;
      const bool is_node = substrate.element_is_node(e);
      trace.push_back(
          {t, is_node ? FailureKind::NodeUp : FailureKind::LinkUp, e, 1.0});
      up_at[e] = 0;
      --(is_node ? nodes_down : links_down);
    }

    // Scheduled maintenance: deterministic, exact duration, exempt from
    // max_down_fraction (it models operator-planned downtime).
    if (const auto it = maint_at.find(t); it != maint_at.end()) {
      for (const auto& [duration, elems] : it->second) {
        const int back = clamp_back(t + duration);
        for (const int e : elems) {
          if (up_at[e] == 0) {
            take_down(t, e, back);
          } else if (up_at[e] < back) {
            up_at[e] = back;  // extend an outage already in progress
          }
        }
      }
    }

    const auto sweep = [&](const std::vector<int>& elems, double mtbf,
                           int& down_count) {
      if (mtbf <= 0) return;
      const double hazard = 1.0 / mtbf;
      const int max_down = static_cast<int>(
          std::floor(config.max_down_fraction * elems.size()));
      for (const int e : elems) {
        if (up_at[e] != 0) continue;  // still out
        if (!rng.chance(hazard)) continue;
        if (down_count >= max_down) continue;
        take_down(t, e, clamp_back(t + draw_outage(rng, config.repair_mean)));
      }
    };
    sweep(nodes, config.node_mtbf, nodes_down);
    sweep(links, config.link_mtbf, links_down);

    if (group_failures) {
      const double hazard = 1.0 / config.group_mtbf;
      const int max_nodes = static_cast<int>(
          std::floor(config.max_down_fraction * nodes.size()));
      const int max_links = static_cast<int>(
          std::floor(config.max_down_fraction * links.size()));
      for (const SharedRiskGroup& g : groups) {
        bool any_up = false;
        for (const int e : g.elements)
          if (up_at[e] == 0) { any_up = true; break; }
        if (!any_up) continue;  // no draw: fully-down groups are inert
        if (!rng.chance(hazard)) continue;
        // One outage-length draw per incident: the whole group shares it.
        const int back =
            clamp_back(t + draw_outage(rng, config.repair_mean));
        for (const int e : g.elements) {
          if (up_at[e] != 0) continue;
          const bool is_node = substrate.element_is_node(e);
          if (is_node ? nodes_down >= max_nodes : links_down >= max_links)
            continue;  // truncated by max_down_fraction
          take_down(t, e, back);
        }
      }
    }

    if (config.rescale_rate > 0 && !nodes.empty() &&
        rng.chance(config.rescale_rate)) {
      const int e = nodes[rng.below(nodes.size())];
      const double factor =
          rng.uniform(config.rescale_min, config.rescale_max);
      trace.push_back({t, FailureKind::Rescale, e, factor});
    }
  }
  return trace;
}

}  // namespace olive::workload
