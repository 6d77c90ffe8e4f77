// The paper's evaluation topologies and analytic examples.
//
// scenario1(): Fig. 1 — two 2-hop flows, F1: A→B→C and F2: D→E→F, where
//   F1.2 contends with both hops of F2 but F1.1 contends with neither.
// scenario2(): Fig. 6 / Tables I & III — five flows over 14 nodes:
//   F1: A→B→C→D→E (4 hops), F2: F→G, F3: H→I, F4: J→K→L, F5: M→N, wired so
//   the maximal cliques are exactly the paper's Ω1..Ω6.
// fig4_example(), pentagon_example(): analytic contention graphs the paper
//   gives directly (no geometry), realized over far-apart chains with
//   explicit contention edges.
//
// NOTE: a Scenario owns its Topology; construct the FlowSet against the
// Scenario's own `topo` member and keep the Scenario alive (and unmoved)
// while the FlowSet is in use.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "contention/contention_graph.hpp"
#include "flow/flow.hpp"
#include "net/faults.hpp"
#include "topology/topology.hpp"
#include "transport/transport.hpp"

namespace e2efa {

/// Stop time meaning "the flow never departs" (FlowActivity default).
inline constexpr double kFlowNeverStops = 1e300;

/// Activity window of one flow in a dynamic run (seconds from sim start;
/// the flow sources packets during [start_s, stop_s)). A flow with
/// start_s > 0 is an *arrival* and passes through admission control under
/// the allocating protocols (src/ctrl/admission.*).
struct FlowActivity {
  double start_s = 0.0;
  double stop_s = kFlowNeverStops;
  bool operator==(const FlowActivity&) const = default;
};

/// True when every window is the default always-on one (such a vector is
/// semantically identical to no activity schedule at all; parsers and
/// serializers normalize it away so round-trips stay byte-stable).
bool all_default_activity(const std::vector<FlowActivity>& activity);

/// Random-waypoint mobility of one node. The walk is compiled into
/// link-down/link-up FaultEvents against the *home* topology before the run
/// (src/net/mobility.*): movement modulates which home links are usable,
/// while contention geometry stays that of the home positions.
struct MobilitySpec {
  NodeId node = kInvalidNode;
  double speed_mps = 1.0;  ///< Waypoint-to-waypoint speed, meters/second.
  double pause_s = 0.0;    ///< Dwell time at each waypoint, seconds.
  std::uint64_t seed = 0;  ///< Per-spec trajectory stream (independent of
                           ///< the run seed: reruns share the trajectory).
  bool operator==(const MobilitySpec&) const = default;
};

/// A named topology plus flow specifications (paths and weights), an
/// optional fault schedule (default: no faults, lossless links), an
/// optional per-flow activity schedule (default: every flow always on),
/// and an optional set of mobile nodes.
struct Scenario {
  std::string name;
  Topology topo;
  std::vector<Flow> flow_specs;
  FaultPlan faults{};
  /// Empty (default) = all flows active for the whole run; otherwise one
  /// window per flow (run_scenario validates the size).
  std::vector<FlowActivity> activity{};
  /// Random-waypoint mobility specs, at most one per node.
  std::vector<MobilitySpec> mobility{};
  /// Source model for every flow: open-loop CBR (default, the paper's
  /// workload) or a closed-loop elastic transport (AIMD / BBR-style).
  TransportKind transport = TransportKind::kCbr;
};

/// Fig. 1: the motivating two-flow topology.
Scenario scenario1();

/// Fig. 6: the five-flow topology of Table I / Table III.
Scenario scenario2();

/// An analytic example: flows with the given hop counts and weights laid
/// out as mutually far-apart chains (no geometric contention between
/// flows); pair with ContentionGraph's explicit-edge constructor.
Scenario make_abstract_scenario(const std::vector<int>& hop_counts,
                                const std::vector<double>& weights,
                                std::string name = "abstract");

/// Fig. 4 weighted contention-graph example. Returns the scenario plus the
/// explicit contention edges (over global subflow indices) the paper draws.
struct AbstractExample {
  Scenario scenario;
  std::vector<std::pair<int, int>> edges;
};
AbstractExample fig4_example();

/// Fig. 5 pentagon: five single-hop unit-weight flows in a contention ring.
AbstractExample pentagon_example();

}  // namespace e2efa
