// Substrate failure/recovery event streams (docs/failures.md).
//
// A FailureTrace is a slot-ordered list of capacity events against the
// substrate: a node or link goes down (capacity 0), comes back up, or is
// rescaled to a fraction of its nominal capacity (brown-out / partial
// degradation).  Slots are relative to the engine's test period (slot 0 is
// the first online slot).  The engine applies each slot's events at the
// slot boundary, before that slot's releases and arrivals, and drops or
// migrates the embeddings the events break (engine/engine.hpp).
//
// generate_failure_trace draws a deterministic event stream from an Rng:
// per-slot Bernoulli failures per eligible up element (rate 1/MTBF),
// geometric outage lengths, and optional capacity-rescale events.  On top
// of the independent per-element hazards, two correlated sources exist:
//
//  * shared-risk groups (explicit in FailureConfig::groups, or derived
//    from topology structure — rack = node + incident links, pod = the
//    "p<k>..."-named fat-tree membership) fail as a unit under their own
//    hazard 1/group_mtbf, one outage-length draw per incident;
//  * scheduled maintenance windows are first-class *deterministic* event
//    sources: their elements go down at a fixed slot for a fixed duration
//    and consume no randomness at all.
//
// The stream is a pure function of (substrate, config, rng), so runs
// replaying it are bit-reproducible — the same determinism contract as the
// trace generator (docs/parallelism.md).
#pragma once

#include <string>
#include <vector>

#include "net/substrate.hpp"
#include "util/rng.hpp"

namespace olive::workload {

enum class FailureKind {
  NodeDown,  ///< node capacity -> 0
  NodeUp,    ///< node capacity restored (nominal x current rescale factor)
  LinkDown,  ///< link capacity -> 0
  LinkUp,    ///< link capacity restored
  Rescale,   ///< element capacity factor set to `factor` (sticky until reset)
};

const char* to_string(FailureKind k) noexcept;

struct FailureEvent {
  int slot = 0;  ///< applied at the beginning of this test-period slot
  FailureKind kind = FailureKind::NodeDown;
  int element = -1;    ///< flat element index (nodes first, then links)
  double factor = 1.0;  ///< Rescale only: new capacity = factor x nominal
};

/// Events sorted by slot (ties keep generation order, which the engine
/// preserves when applying them).
using FailureTrace = std::vector<FailureEvent>;

/// Verifies slot ordering, element ranges, kind/element-type agreement, and
/// factor sanity; throws InvalidArgument on violation.
void validate_failure_trace(const FailureTrace& trace,
                            const net::SubstrateNetwork& substrate);

/// A set of substrate elements that share a physical hazard (a rack power
/// feed, a fiber duct, a pod) and therefore fail together.
struct SharedRiskGroup {
  std::string name;           ///< diagnostics only
  std::vector<int> elements;  ///< flat element indices (nodes and/or links)
};

/// Planned downtime: `elements` go down at `slot` and come back up
/// `duration` slots later.  Deterministic — no randomness is consumed.
/// When `elements` is empty, the window instead selects the first `count`
/// substrate nodes of `tier` (ascending id) — a topology-independent way
/// to schedule maintenance before the substrate is built.
struct MaintenanceWindow {
  int slot = 0;
  int duration = 1;
  std::vector<int> elements;
  net::Tier tier = net::Tier::Transport;
  int count = 0;
};

struct FailureConfig {
  /// Mean slots between failures per eligible up node/link (per-slot hazard
  /// 1/MTBF while up).  0 disables that element type's failures.
  double node_mtbf = 0;
  double link_mtbf = 0;
  /// Mean outage length in slots (geometric, >= 1 slot).
  double repair_mean = 25;
  /// Edge-tier nodes host the ingresses; sparing them (the default) models
  /// failures inside the provider core, where migration can actually help.
  bool fail_edge = false;
  /// Never take down more than this fraction of the eligible elements of a
  /// type at once (guards against a dead substrate at high rates;
  /// correlated group failures are truncated by it too).
  double max_down_fraction = 0.5;
  /// Per-slot probability of a capacity-rescale event on a random eligible
  /// node, drawing a factor uniform in [rescale_min, rescale_max).
  double rescale_rate = 0;
  double rescale_min = 0.5;
  double rescale_max = 1.0;
  /// Mean slots between correlated failures per shared-risk group (per-slot
  /// hazard 1/group_mtbf per group with at least one up member).  0
  /// disables group failures even when groups are configured.
  double group_mtbf = 0;
  /// Explicit shared-risk groups (validate_failure_config rejects empty
  /// groups and unknown elements).
  std::vector<SharedRiskGroup> groups;
  /// Additionally derive structural groups from the substrate at generation
  /// time (derive_shared_risk_groups: racks, and pods where names encode
  /// them), appended after the explicit `groups`.
  bool derive_groups = false;
  /// Scheduled maintenance windows, applied in list order.
  std::vector<MaintenanceWindow> maintenance;

  bool enabled() const noexcept {
    return node_mtbf > 0 || link_mtbf > 0 || rescale_rate > 0 ||
           (group_mtbf > 0 && (derive_groups || !groups.empty())) ||
           !maintenance.empty();
  }
};

/// Structural shared-risk groups of a substrate:
///  * one "rack" per non-edge node — the node plus its incident links (the
///    ToR/power-feed failure model); edge nodes are included when
///    `fail_edge` is set;
///  * one "pod" per fat-tree pod (nodes named "p<k>...", plus the links
///    internal to the pod) when the naming scheme reveals them.
/// Ordering is deterministic (racks by node id, pods by index).
std::vector<SharedRiskGroup> derive_shared_risk_groups(
    const net::SubstrateNetwork& substrate, bool fail_edge = false);

/// Validates the config's shared-risk groups and maintenance windows
/// against the substrate (unknown elements, empty groups, bad slots or
/// durations) and the scalar parameter ranges; throws InvalidArgument with
/// a diagnostic naming the offending group/window.  generate_failure_trace
/// calls this first.
void validate_failure_config(const FailureConfig& config,
                             const net::SubstrateNetwork& substrate);

/// Draws a failure/recovery stream over test-period slots [0, horizon).
/// Deterministic in `rng`; an all-zero config yields an empty trace.
FailureTrace generate_failure_trace(const net::SubstrateNetwork& substrate,
                                    const FailureConfig& config, int horizon,
                                    Rng& rng);

}  // namespace olive::workload
