#include "contention/contention_graph.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "util/assert.hpp"

namespace e2efa {

ContentionGraph::ContentionGraph(const Topology& topo, const FlowSet& flows)
    : flows_(&flows), link_of_(static_cast<std::size_t>(flows.subflow_count())) {
  // Classes from the per-node incidence lists: a subflow joins the class
  // already incident to its lower endpoint with the same upper endpoint, or
  // opens a new one. Subflows are visited in ascending id order, so every
  // member list and every per-node list comes out ascending.
  std::vector<std::vector<int>> at_node(static_cast<std::size_t>(topo.node_count()));
  std::vector<NodeId> upper;  // per class: max(src, dst)
  for (int s = 0; s < vertex_count(); ++s) {
    const Subflow& sf = flows.subflow(s);
    const NodeId lo = std::min(sf.src, sf.dst);
    const NodeId hi = std::max(sf.src, sf.dst);
    auto& at_lo = at_node[static_cast<std::size_t>(lo)];
    const auto it = std::find_if(at_lo.begin(), at_lo.end(), [&](int l) {
      return upper[static_cast<std::size_t>(l)] == hi;
    });
    int l;
    if (it != at_lo.end()) {
      l = *it;
    } else {
      l = link_count();
      members_.emplace_back();
      upper.push_back(hi);
      at_lo.push_back(l);
      at_node[static_cast<std::size_t>(hi)].push_back(l);
    }
    link_of_[static_cast<std::size_t>(s)] = l;
    members_[static_cast<std::size_t>(l)].push_back(s);
  }

  // m contends with l iff some endpoint of m equals, or interferes with,
  // some endpoint of l — i.e. iff m is incident to a node in the closed
  // interference neighborhood of either endpoint of l. Walking those
  // neighborhoods enumerates exactly the contenders; a stamp array
  // deduplicates classes reachable through several nodes.
  link_adj_.resize(members_.size());
  std::vector<int> stamp(members_.size(), -1);
  for (int l = 0; l < link_count(); ++l) {
    const Subflow& any = flows.subflow(members_[static_cast<std::size_t>(l)].front());
    auto& out = link_adj_[static_cast<std::size_t>(l)];
    stamp[static_cast<std::size_t>(l)] = l;
    auto visit_node = [&](NodeId y) {
      for (int m : at_node[static_cast<std::size_t>(y)]) {
        if (stamp[static_cast<std::size_t>(m)] == l) continue;
        stamp[static_cast<std::size_t>(m)] = l;
        out.push_back(m);
      }
    };
    for (NodeId x : {any.src, any.dst}) {
      visit_node(x);
      for (NodeId y : topo.interference_neighbors(x)) visit_node(y);
    }
  }
  finish();
}

ContentionGraph::ContentionGraph(const FlowSet& flows,
                                 const std::vector<std::pair<int, int>>& edges)
    : flows_(&flows), link_of_(static_cast<std::size_t>(flows.subflow_count())) {
  std::iota(link_of_.begin(), link_of_.end(), 0);
  members_.resize(link_of_.size());
  link_adj_.resize(link_of_.size());
  for (int s = 0; s < vertex_count(); ++s) members_[static_cast<std::size_t>(s)] = {s};
  for (const auto& [a, b] : edges) {
    check_vertex(a);
    check_vertex(b);
    E2EFA_ASSERT_MSG(a != b, "self edge in contention graph");
    link_adj_[static_cast<std::size_t>(a)].push_back(b);
    link_adj_[static_cast<std::size_t>(b)].push_back(a);
  }
  // Node-sharing subflows contend automatically (for intra-flow pairs this
  // is the paper's trivial-contention rule).
  std::vector<std::vector<int>> at_node(
      static_cast<std::size_t>(flows.topology().node_count()));
  for (int s = 0; s < vertex_count(); ++s) {
    const Subflow& sf = flows.subflow(s);
    for (NodeId x : {sf.src, sf.dst}) {
      for (int t : at_node[static_cast<std::size_t>(x)]) {
        link_adj_[static_cast<std::size_t>(s)].push_back(t);
        link_adj_[static_cast<std::size_t>(t)].push_back(s);
      }
      at_node[static_cast<std::size_t>(x)].push_back(s);
    }
  }
  finish();
}

void ContentionGraph::finish() {
  degree_.resize(members_.size());
  for (std::size_t l = 0; l < members_.size(); ++l) {
    auto& nbrs = link_adj_[l];
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    int d = static_cast<int>(members_[l].size()) - 1;
    for (int m : nbrs) d += static_cast<int>(members_[static_cast<std::size_t>(m)].size());
    degree_[l] = d;
  }
}

void ContentionGraph::check_vertex(int v) const {
  E2EFA_ASSERT_MSG(v >= 0 && v < vertex_count(), "contention graph vertex out of range");
}

void ContentionGraph::check_link(int l) const {
  E2EFA_ASSERT_MSG(l >= 0 && l < link_count(), "contention graph link out of range");
}

bool ContentionGraph::contend(int a, int b) const {
  const int la = link_of(a);
  const int lb = link_of(b);
  if (la == lb) return a != b;
  const auto& nbrs = link_adj_[static_cast<std::size_t>(la)];
  return std::binary_search(nbrs.begin(), nbrs.end(), lb);
}

int ContentionGraph::degree(int v) const {
  return degree_[static_cast<std::size_t>(link_of(v))];
}

int ContentionGraph::link_of(int v) const {
  check_vertex(v);
  return link_of_[static_cast<std::size_t>(v)];
}

const std::vector<int>& ContentionGraph::link_members(int l) const {
  check_link(l);
  return members_[static_cast<std::size_t>(l)];
}

const std::vector<int>& ContentionGraph::link_neighbors(int l) const {
  check_link(l);
  return link_adj_[static_cast<std::size_t>(l)];
}

std::vector<std::vector<int>> ContentionGraph::components() const {
  // Breadth-first over classes, started from the subflows in ascending
  // order, so components are numbered by their smallest subflow.
  std::vector<int> comp(members_.size(), -1);
  int next = 0;
  for (int start : link_of_) {
    if (comp[static_cast<std::size_t>(start)] != -1) continue;
    std::queue<int> q;
    q.push(start);
    comp[static_cast<std::size_t>(start)] = next;
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int v : link_adj_[static_cast<std::size_t>(u)]) {
        if (comp[static_cast<std::size_t>(v)] == -1) {
          comp[static_cast<std::size_t>(v)] = next;
          q.push(v);
        }
      }
    }
    ++next;
  }
  std::vector<std::vector<int>> out(static_cast<std::size_t>(next));
  for (int v = 0; v < vertex_count(); ++v)
    out[static_cast<std::size_t>(comp[static_cast<std::size_t>(link_of_[static_cast<std::size_t>(v)])])]
        .push_back(v);
  return out;
}

std::vector<std::vector<FlowId>> ContentionGraph::flow_groups() const {
  // Union-find over flows: flows with subflows in the same component merge.
  const int nf = flows_->flow_count();
  std::vector<int> parent(static_cast<std::size_t>(nf));
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](int a, int b) { parent[find(a)] = find(b); };

  for (const auto& comp : components()) {
    for (std::size_t i = 1; i < comp.size(); ++i) {
      unite(flows_->subflow(comp[0]).flow, flows_->subflow(comp[i]).flow);
    }
  }
  std::vector<std::vector<FlowId>> groups;
  std::vector<int> group_of(static_cast<std::size_t>(nf), -1);
  for (FlowId f = 0; f < nf; ++f) {
    const int root = find(f);
    if (group_of[static_cast<std::size_t>(root)] == -1) {
      group_of[static_cast<std::size_t>(root)] = static_cast<int>(groups.size());
      groups.emplace_back();
    }
    groups[static_cast<std::size_t>(group_of[static_cast<std::size_t>(root)])].push_back(f);
  }
  return groups;
}

}  // namespace e2efa
