// The subflow contention graph (Sec. II-A).
//
// Vertices are subflows; an edge joins two subflows that *contend*: the
// source or destination of one is within (interference) range of the source
// or destination of the other. Subflows of the same flow sharing a node
// contend trivially. Partitioned subgraphs correspond to contending flow
// groups.
//
// The graph can be built from (Topology, FlowSet) using the range rule, or
// constructed directly from an explicit edge list for analytic examples
// where the paper gives the graph rather than node positions (Fig. 4,
// Fig. 5 pentagon).
//
// Storage is a quotient over *link classes*. The range rule reads only a
// subflow's two endpoints, so every subflow on one link {u, v} — of any
// flow, in either direction — is a true twin of the others: they contend
// with each other and have the same closed neighborhood. The geometric
// build therefore gives each link one class and keeps the adjacency
// between links (sorted lists), walking each endpoint's interference
// neighborhood over the links incident to it, so construction is
// O(L * local density) in the number of distinct links L and stays exact —
// link m contends with link l iff m has an endpoint in the closed
// interference neighborhood of one of l's endpoints. An explicit edge list
// is not geometric: two subflows on one physical link may have different
// neighborhoods there, so that constructor makes every subflow its own
// singleton class. Either way, everything downstream (cliques, the clique
// store, coloring) runs one code path over classes.
#pragma once

#include <vector>

#include "flow/flow.hpp"

namespace e2efa {

/// Contention graph over the subflows of a FlowSet, stored as adjacency
/// between twin classes ("links").
class ContentionGraph {
 public:
  /// Builds from geometry: subflows a and b contend iff any endpoint of a is
  /// within interference range of any endpoint of b. One class per
  /// unordered endpoint pair {min(src, dst), max(src, dst)}.
  ContentionGraph(const Topology& topo, const FlowSet& flows);

  /// Builds from an explicit undirected edge list over subflow indices.
  /// Node-sharing edges are added automatically. Every subflow is its own
  /// class.
  ContentionGraph(const FlowSet& flows, const std::vector<std::pair<int, int>>& edges);

  const FlowSet& flows() const { return *flows_; }
  int vertex_count() const { return static_cast<int>(link_of_.size()); }

  /// True when a != b and the two subflows share a class or sit on
  /// adjacent classes.
  bool contend(int a, int b) const;

  /// Number of subflows vertex v contends with: the other members of its
  /// class plus every member of each adjacent class.
  int degree(int v) const;

  /// Number of twin classes. Classes are numbered in order of their
  /// smallest member subflow.
  int link_count() const { return static_cast<int>(members_.size()); }
  /// Class of subflow v.
  int link_of(int v) const;
  /// Member subflows of class l, ascending.
  const std::vector<int>& link_members(int l) const;
  /// Classes adjacent to class l (excluding l), ascending.
  const std::vector<int>& link_neighbors(int l) const;

  /// Connected components over subflow vertices; each component is an
  /// ascending list of subflow indices.
  std::vector<std::vector<int>> components() const;

  /// Contending flow groups: flows whose subflows fall in the same
  /// component are grouped (transitively, per the paper's definition).
  /// Each group is an ascending list of FlowIds; groups are disjoint and
  /// cover all flows.
  std::vector<std::vector<FlowId>> flow_groups() const;

 private:
  void check_vertex(int v) const;
  void check_link(int l) const;
  /// Sorts and deduplicates each adjacency list and derives the per-class
  /// degrees.
  void finish();

  const FlowSet* flows_;
  std::vector<int> link_of_;                // per subflow
  std::vector<std::vector<int>> members_;   // per class, ascending
  std::vector<std::vector<int>> link_adj_;  // per class, ascending
  std::vector<int> degree_;                 // per class: each member's degree
};

}  // namespace e2efa
