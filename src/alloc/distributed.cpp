#include "alloc/distributed.hpp"

#include <algorithm>
#include <set>

#include "alloc/knowledge.hpp"
#include "util/assert.hpp"

namespace e2efa {

namespace {

std::vector<FlowId> flows_in(const FlowSet& flows, const std::vector<int>& subflows) {
  std::set<FlowId> fs;
  for (int s : subflows) fs.insert(flows.subflow(s).flow);
  return {fs.begin(), fs.end()};
}

}  // namespace

LocalProblem solve_local_problem(const FlowSet& flows, FlowId flow,
                                 const std::vector<std::vector<int>>& cliques,
                                 const std::vector<int>& source_knowledge) {
  const Flow& fl = flows.flow(flow);
  LocalProblem lp;
  lp.flow = flow;
  lp.source = fl.source();

  // Drop cliques that are strict subsets of another accumulated clique
  // (a node with narrower knowledge may report a clique another node of
  // the flow sees a superset of; the superset row dominates). Dominance
  // is found by counting shared members through a subflow→clique index —
  // j dominates i exactly when the count reaches |i| with |j| > |i| —
  // instead of all-pairs std::includes: city-scale sources accumulate
  // thousands of local cliques, where the quadratic scan is minutes. The
  // surviving set (the maximal elements under ⊆) is identical.
  const std::set<std::vector<int>> cset(cliques.begin(), cliques.end());
  std::vector<const std::vector<int>*> cs;
  cs.reserve(cset.size());
  for (const auto& c : cset) cs.push_back(&c);
  const int nc = static_cast<int>(cs.size());
  std::vector<std::vector<int>> member_of(
      static_cast<std::size_t>(flows.subflow_count()));
  for (int i = 0; i < nc; ++i)
    for (int s : *cs[i]) member_of[static_cast<std::size_t>(s)].push_back(i);
  std::vector<int> shared(static_cast<std::size_t>(nc), 0);
  for (int i = 0; i < nc; ++i) {
    const int size_i = static_cast<int>(cs[i]->size());
    std::fill(shared.begin(), shared.end(), 0);
    bool dominated = false;
    for (int s : *cs[i]) {
      for (int j : member_of[static_cast<std::size_t>(s)])
        if (j != i && ++shared[static_cast<std::size_t>(j)] == size_i &&
            static_cast<int>(cs[j]->size()) > size_i) {
          dominated = true;
          break;
        }
      if (dominated) break;
    }
    if (!dominated) lp.cliques.push_back(*cs[i]);
  }

  // Variables: flows appearing in any accumulated clique.
  std::set<FlowId> vars;
  vars.insert(flow);
  for (const auto& c : lp.cliques)
    for (int s : c) vars.insert(flows.subflow(s).flow);
  lp.vars.assign(vars.begin(), vars.end());

  // Local per-unit basic share from the source's own two-hop knowledge.
  double denom = 0.0;
  for (FlowId j : flows_in(flows, source_knowledge))
    denom += flows.flow(j).weight * virtual_length(flows.flow(j).length());
  E2EFA_ASSERT(denom > 0.0);
  lp.unit_basic = 1.0 / denom;

  // Build and solve the local ShareLp.
  ShareLp slp;
  const int k = static_cast<int>(lp.vars.size());
  slp.weights.resize(static_cast<std::size_t>(k));
  slp.lower_bounds.resize(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const double w = flows.flow(lp.vars[static_cast<std::size_t>(i)]).weight;
    slp.weights[static_cast<std::size_t>(i)] = w;
    slp.lower_bounds[static_cast<std::size_t>(i)] = w * lp.unit_basic;
  }
  std::set<std::vector<int>> rows;
  for (const auto& c : lp.cliques) {
    std::vector<int> row(static_cast<std::size_t>(k), 0);
    for (int s : c) {
      const FlowId j = flows.subflow(s).flow;
      const auto pos = std::lower_bound(lp.vars.begin(), lp.vars.end(), j) - lp.vars.begin();
      ++row[static_cast<std::size_t>(pos)];
    }
    rows.insert(std::move(row));
  }
  lp.rows.assign(rows.begin(), rows.end());
  for (const auto& row : lp.rows)
    slp.capacity_rows.emplace_back(row.begin(), row.end());

  ShareLpResult r = solve_share_lp(slp);
  lp.status = r.status;
  lp.min_relaxation = r.min_relaxation;
  lp.refine_failures = r.refine_failures;
  lp.mins = slp.lower_bounds;
  if (r.status == LpStatus::kOptimal) {
    lp.solution = r.shares;
    const auto pos = std::lower_bound(lp.vars.begin(), lp.vars.end(), flow) - lp.vars.begin();
    lp.flow_share = r.shares[static_cast<std::size_t>(pos)];
  } else {
    // Fall back to the local basic share — always locally safe.
    lp.flow_share = fl.weight * lp.unit_basic;
  }
  return lp;
}

DistributedResult distributed_allocate(const Topology& topo, const FlowSet& flows,
                                       const ContentionGraph& g,
                                       const TopologyMask* mask) {
  E2EFA_ASSERT(&g.flows() == &flows);
  const int nn = topo.node_count();
  const int nf = flows.flow_count();

  DistributedResult out;

  // Steps 1-2: overheard subflows and one round of neighbor exchange —
  // through the helper the in-band control plane also uses, so oracle and
  // agents derive identical knowledge from one code path.
  const std::vector<std::vector<int>> own = overheard_subflow_sets(topo, flows);
  out.node_knowledge = exchanged_knowledge(topo, own, mask);

  // Step 3: local cliques per node.
  out.node_cliques.resize(static_cast<std::size_t>(nn));
  for (NodeId v = 0; v < nn; ++v)
    out.node_cliques[static_cast<std::size_t>(v)] =
        maximal_cliques_in_subset(g, out.node_knowledge[static_cast<std::size_t>(v)]);

  // Steps 4-6: per-flow constraint accumulation and local LP at the source.
  std::vector<double> flow_share(static_cast<std::size_t>(nf), 0.0);
  for (FlowId f = 0; f < nf; ++f) {
    const Flow& fl = flows.flow(f);
    // Union of local cliques over the flow's transmitting nodes.
    std::set<std::vector<int>> cliques;
    for (int h = 0; h < fl.length(); ++h) {
      const NodeId v = fl.path[static_cast<std::size_t>(h)];
      for (const auto& c : out.node_cliques[static_cast<std::size_t>(v)]) cliques.insert(c);
    }
    LocalProblem lp = solve_local_problem(
        flows, f, {cliques.begin(), cliques.end()},
        out.node_knowledge[static_cast<std::size_t>(fl.source())]);
    flow_share[static_cast<std::size_t>(f)] = lp.flow_share;
    out.locals.push_back(std::move(lp));
  }

  out.allocation = make_equalized_allocation(flows, std::move(flow_share));
  return out;
}

}  // namespace e2efa
