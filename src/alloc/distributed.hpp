// Phase 1, distributed form (Sec. IV-B): local cliques, intra-flow
// constraint propagation, per-source local LPs.
//
// Knowledge model (reproduces Table I on the Fig.-6 topology verbatim):
//
//  1. Every node v *overhears* the subflows with an endpoint inside its
//     interference range — Own(v) — by listening to RTS/CTS/DATA traffic.
//  2. One round of neighbor exchange widens this to
//     K(v) = Own(v) ∪ ⋃_{u ∈ neighbors(v)} Own(u).
//  3. Local cliques of v are the maximal cliques of the contention graph
//     restricted to K(v) (constructible per Huang & Bensaou [5]).
//  4. Every transmitting node of a flow propagates its local cliques
//     upstream/downstream along the flow (piggybacked (n_{i,k}, i) arrays),
//     so the flow's source accumulates ⋃ local cliques over its path.
//  5. The source's per-unit basic share is r̂₀ = B / Σ_{flows seen in K(v)}
//     w_j·v_j (v_j travels with the flow information), which is >= the
//     centralized basic share because only locally visible flows count.
//  6. The source solves the local LP (maximize local total effective
//     throughput subject to its clique rows and r̂_j >= w_j·r̂₀) with the
//     balanced refinement; the flow's allocated share is the source's
//     solution component for its own flow.
#pragma once

#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/refine.hpp"
#include "topology/topology.hpp"

namespace e2efa {

/// The local optimization problem one flow's source constructed and solved
/// (one Table-I row).
struct LocalProblem {
  FlowId flow = -1;       ///< Flow whose share this LP decides.
  NodeId source = kInvalidNode;
  std::vector<FlowId> vars;                 ///< Flows in the local LP, ascending.
  std::vector<std::vector<int>> cliques;    ///< Local cliques (global subflow ids).
  std::vector<std::vector<int>> rows;       ///< Dedup n_{j,k} rows over `vars` order.
  double unit_basic = 0.0;                  ///< r̂₀ at the source (units of B).
  std::vector<double> mins;                 ///< Per-var lower bound w_j·r̂₀.
  LpStatus status = LpStatus::kInfeasible;
  std::vector<double> solution;             ///< Per-var shares (units of B).
  double flow_share = 0.0;                  ///< Solution entry for `flow`.
  double min_relaxation = 1.0;              ///< See ShareLpResult.
  int refine_failures = 0;                  ///< See ShareLpResult.
};

struct DistributedResult {
  Allocation allocation;              ///< Equalized allocation from flow shares.
  std::vector<LocalProblem> locals;   ///< One per flow, in flow order.
  /// Per-node knowledge K(v) (global subflow ids, ascending) — diagnostics.
  std::vector<std::vector<int>> node_knowledge;
  /// Per-node local cliques — diagnostics (Table I "Local cliques" column).
  std::vector<std::vector<std::vector<int>>> node_cliques;
};

/// Runs the distributed first phase. `g` must be the contention graph of
/// `flows` over `topo`. `mask` (optional) restricts step 2's neighbor
/// exchange to the surviving topology — the oracle for what the in-band
/// control plane (src/ctrl) can still learn after node/link faults: a dead
/// neighbor's Own set is no longer heard. Own(v) itself and the clique /
/// LP machinery are unchanged by the mask.
DistributedResult distributed_allocate(const Topology& topo, const FlowSet& flows,
                                       const ContentionGraph& g,
                                       const TopologyMask* mask = nullptr);

/// Steps 4-6 for one flow, shared verbatim with the in-band control plane:
/// given the accumulated clique set (union of local cliques over the flow's
/// transmitting nodes, possibly with subset-redundant entries) and the
/// source's knowledge K(source), builds and solves the source's local
/// ShareLp. Falls back to the local basic share w·r̂₀ on a non-optimal
/// solve. `cliques` entries are ascending subflow-id lists.
LocalProblem solve_local_problem(const FlowSet& flows, FlowId flow,
                                 const std::vector<std::vector<int>>& cliques,
                                 const std::vector<int>& source_knowledge);

}  // namespace e2efa
