// Brute-force parity for the scaling fast paths: the spatial grid, the
// link-quotient contention graph, the link-level Bron–Kerbosch enumerator,
// and the incremental clique store are exact replacements for the
// quadratic / from-scratch subflow-level code they displaced. Every suite
// sweeps >= 50 seeds and asserts element-wise equality against an
// independent brute-force oracle — the pairwise contention rule, or the
// dense subflow-level maximal_cliques_reference restricted to the active
// subflows — including under fault-driven activity deltas. A quarter or
// more of the seeds route several subflows over one link, so the twin
// classes are exercised, not just singletons.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "alloc/centralized.hpp"
#include "alloc/maxmin.hpp"
#include "alloc/two_tier.hpp"
#include "contention/clique_store.hpp"
#include "contention/cliques.hpp"
#include "contention/contention_graph.hpp"
#include "geom/spatial_index.hpp"
#include "net/scenario_gen.hpp"
#include "route/routing.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace e2efa {
namespace {

class ScaleParity : public ::testing::TestWithParam<std::uint64_t> {};

// ---------- spatial grid vs all-pairs ----------

TEST_P(ScaleParity, GridRangeQueriesMatchAllPairs) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.uniform_u64(60));
  const double side = 150.0 * std::sqrt(static_cast<double>(n));
  std::vector<Point> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  // Cell size and query radius drawn independently: queries wider than a
  // cell exercise the multi-ring walk.
  const double cell = rng.uniform(80.0, 400.0);
  SpatialGrid grid(pts, cell);
  for (int q = 0; q < 10; ++q) {
    const double range = rng.uniform(10.0, 600.0);
    const int i = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
    std::vector<int> brute;
    for (int j = 0; j < n; ++j)
      if (j != i && distance_sq(pts[static_cast<std::size_t>(i)],
                                pts[static_cast<std::size_t>(j)]) <= range * range)
        brute.push_back(j);
    EXPECT_EQ(grid.in_range_of(i, range), brute) << "seed " << GetParam();
  }
}

TEST_P(ScaleParity, TopologyNeighborListsMatchAllPairs) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.uniform_u64(50));
  const double side = 150.0 * std::sqrt(static_cast<double>(n));
  std::vector<Point> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  const double tx = 250.0;
  const double ifr = tx * rng.uniform(1.0, 2.0);
  Topology topo(pts, tx, ifr);
  for (NodeId i = 0; i < n; ++i) {
    std::vector<NodeId> brute_tx, brute_if;
    for (NodeId j = 0; j < n; ++j) {
      if (j == i) continue;
      if (within_range(pts[static_cast<std::size_t>(i)], pts[static_cast<std::size_t>(j)], tx))
        brute_tx.push_back(j);
      if (within_range(pts[static_cast<std::size_t>(i)], pts[static_cast<std::size_t>(j)], ifr))
        brute_if.push_back(j);
    }
    EXPECT_EQ(topo.neighbors(i), brute_tx) << "seed " << GetParam() << " node " << i;
    EXPECT_EQ(topo.interference_neighbors(i), brute_if)
        << "seed " << GetParam() << " node " << i;
  }
}

// ---------- sparse contention graph vs pairwise rule ----------

/// The paper's endpoint-range contention rule, straight off the definition.
bool brute_contend(const Topology& topo, const Subflow& a, const Subflow& b) {
  const NodeId ea[2] = {a.src, a.dst};
  const NodeId eb[2] = {b.src, b.dst};
  for (NodeId x : ea)
    for (NodeId y : eb)
      if (x == y || topo.interferes(x, y)) return true;
  return false;
}

GenConfig random_gen() {
  GenConfig gen;
  gen.min_nodes = 8;
  gen.max_nodes = 40;
  gen.min_flows = 2;
  gen.max_flows = 10;
  // Mid-size random geometric graphs disconnect at the paper-scale
  // density; denser placement keeps every seed usable.
  gen.density_m = 150.0;
  gen.p_faults = 0.0;  // faults are injected by hand below
  gen.p_loss = 0.0;
  return gen;
}

Scenario random_scenario(std::uint64_t seed) {
  return generate_scenario(seed, random_gen());
}

/// random_scenario with many more flows: 155-335 subflows over seeds
/// 1-55, so most links carry several subflows and random subflow toggles
/// both flip links and leave them on.
Scenario many_flow_scenario(std::uint64_t seed) {
  GenConfig gen = random_gen();
  gen.min_nodes = 16;
  gen.min_flows = 80;
  gen.max_flows = 100;
  return generate_scenario(seed, gen);
}

TEST_P(ScaleParity, SparseGraphMatchesPairwiseRule) {
  const Scenario sc = random_scenario(GetParam());
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  const int m = flows.subflow_count();
  for (int a = 0; a < m; ++a) {
    const Subflow& sa = flows.subflow(a);
    int brute_degree = 0;
    for (int b = 0; b < m; ++b) {
      const Subflow& sb = flows.subflow(b);
      const bool brute = b != a && brute_contend(sc.topo, sa, sb);
      brute_degree += brute ? 1 : 0;
      EXPECT_EQ(g.contend(a, b), brute) << "seed " << GetParam() << " " << a << "," << b;
      // One class per unordered endpoint pair.
      EXPECT_EQ(g.link_of(a) == g.link_of(b),
                std::minmax(sa.src, sa.dst) == std::minmax(sb.src, sb.dst));
    }
    EXPECT_EQ(g.degree(a), brute_degree) << "seed " << GetParam() << " subflow " << a;
  }
  // Classes partition the subflows, ascending, numbered by first member.
  std::vector<int> seen;
  for (int l = 0; l < g.link_count(); ++l) {
    const auto& members = g.link_members(l);
    ASSERT_FALSE(members.empty());
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    if (l > 0) {
      EXPECT_LT(g.link_members(l - 1).front(), members.front());
    }
    for (int s : members) {
      EXPECT_EQ(g.link_of(s), l);
      seen.push_back(s);
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), m);
}

// ---------- sparse Bron–Kerbosch vs dense reference ----------

/// Dense oracle for an induced subgraph: the maximal cliques of G[A] are
/// exactly the inclusion-maximal non-empty sets C ∩ A over the maximal
/// cliques C of G (every clique of G[A] lies in some C). `full` is
/// maximal_cliques_reference(g), the dense subflow-level enumerator.
std::vector<std::vector<int>> restricted_reference(const std::vector<std::vector<int>>& full,
                                                   const std::vector<char>& active) {
  std::set<std::vector<int>> cut;
  for (const auto& c : full) {
    std::vector<int> kept;
    for (int v : c)
      if (active[static_cast<std::size_t>(v)]) kept.push_back(v);
    if (!kept.empty()) cut.insert(std::move(kept));
  }
  std::vector<std::vector<int>> out;
  for (const auto& c : cut) {
    bool maximal = true;
    for (const auto& d : cut)
      if (d.size() > c.size() && std::includes(d.begin(), d.end(), c.begin(), c.end())) {
        maximal = false;
        break;
      }
    if (maximal) out.push_back(c);
  }
  return out;  // std::set iteration order: already lexicographic
}

TEST_P(ScaleParity, SparseCliquesMatchDenseReference) {
  const Scenario sc = random_scenario(GetParam());
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  const std::vector<std::vector<int>> reference = maximal_cliques_reference(g);
  EXPECT_EQ(maximal_cliques(g), reference) << "seed " << GetParam();

  // Subset enumeration (the distributed algorithm's local cliques) against
  // the dense reference cut down to the same random subsets.
  Rng rng(GetParam() ^ 0x5b5e7u);
  const int m = flows.subflow_count();
  for (int round = 0; round < 4; ++round) {
    std::vector<char> in(static_cast<std::size_t>(m), 0);
    std::vector<int> subset;
    for (int v = 0; v < m; ++v)
      if (rng.bernoulli(0.6)) {
        in[static_cast<std::size_t>(v)] = 1;
        subset.push_back(v);
      }
    EXPECT_EQ(maximal_cliques_in_subset(g, subset), restricted_reference(reference, in))
        << "seed " << GetParam() << " round " << round;
  }
}

// ---------- incremental clique store vs the dense reference ----------

TEST_P(ScaleParity, CliqueStoreMatchesFromScratchUnderRandomDeltas) {
  const Scenario sc = many_flow_scenario(GetParam());
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  const int m = flows.subflow_count();
  const std::vector<std::vector<int>> reference = maximal_cliques_reference(g);
  Rng rng(GetParam() ^ 0x5ca1ab1e);

  std::vector<char> active(static_cast<std::size_t>(m), 1);
  CliqueStore store(g, active);
  EXPECT_EQ(store.cliques(), reference) << "seed " << GetParam();
  EXPECT_EQ(store.clique_count(), static_cast<int>(reference.size()));

  // Built the way the runner builds it: all-inactive, then one update
  // activates everything.
  CliqueStore from_empty(g, std::vector<char>(static_cast<std::size_t>(m), 0));
  EXPECT_EQ(from_empty.clique_count(), 0);
  from_empty.set_active(active);
  EXPECT_EQ(from_empty.cliques(), reference) << "seed " << GetParam();

  for (int round = 0; round < 8; ++round) {
    // Random batch of subflow-level toggles (flow churn).
    const int toggles = 1 + static_cast<int>(rng.uniform_u64(4));
    for (int t = 0; t < toggles; ++t) {
      const int v = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(m)));
      active[static_cast<std::size_t>(v)] ^= 1;
    }
    store.set_active(active);
    const std::vector<std::vector<int>> expected = restricted_reference(reference, active);
    ASSERT_EQ(store.cliques(), expected) << "seed " << GetParam() << " round " << round;
    EXPECT_EQ(store.clique_count(), static_cast<int>(expected.size()));
  }
}

TEST_P(ScaleParity, CliqueStoreMatchesFromScratchUnderFaultDeltas) {
  const Scenario sc = random_scenario(GetParam());
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  const int m = flows.subflow_count();
  const std::vector<std::vector<int>> reference = maximal_cliques_reference(g);
  Rng rng(GetParam() ^ 0xfa0175u);

  std::vector<char> active(static_cast<std::size_t>(m), 1);
  CliqueStore store(g, active);

  for (int round = 0; round < 6; ++round) {
    // Fault-driven delta: a node or link goes down (or everything heals),
    // mapped to subflow deactivations through the incidence index — the
    // same shape of delta the runner's epoch machinery produces.
    std::fill(active.begin(), active.end(), 1);
    if (round % 3 != 2) {
      TopologyMask mask;
      if (rng.bernoulli(0.5)) {
        const NodeId v = static_cast<NodeId>(
            rng.uniform_u64(static_cast<std::uint64_t>(sc.topo.node_count())));
        mask.node_up.assign(static_cast<std::size_t>(sc.topo.node_count()), true);
        mask.node_up[static_cast<std::size_t>(v)] = false;
      } else {
        const NodeId a = static_cast<NodeId>(
            rng.uniform_u64(static_cast<std::uint64_t>(sc.topo.node_count())));
        const auto& nbrs = sc.topo.neighbors(a);
        if (nbrs.empty()) continue;
        const NodeId b = nbrs[rng.uniform_u64(nbrs.size())];
        mask.down_links.push_back(std::minmax(a, b));
      }
      // A flow whose path loses any node or link suspends: all of its
      // subflows leave the epoch (what route repair / suspension does).
      for (FlowId f = 0; f < flows.flow_count(); ++f) {
        const auto& path = flows.flow(f).path;
        bool alive = true;
        for (std::size_t i = 0; i < path.size() && alive; ++i) {
          if (!mask.node_alive(path[i])) alive = false;
          if (i + 1 < path.size() && !mask.link_alive(path[i], path[i + 1])) alive = false;
        }
        if (!alive)
          for (int h = 0; h < flows.flow(f).length(); ++h)
            active[static_cast<std::size_t>(flows.subflow_index(f, h))] = 0;
      }
    }
    store.set_active(active);
    ASSERT_EQ(store.cliques(), restricted_reference(reference, active))
        << "seed " << GetParam() << " round " << round;
  }
}

// ---------- precomputed-clique allocator overloads are exact ----------

TEST_P(ScaleParity, AllocatorsBitIdenticalWithPrecomputedCliques) {
  const Scenario sc = random_scenario(GetParam());
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  const std::vector<std::vector<int>> cliques = maximal_cliques(g);

  const CentralizedResult c0 = centralized_allocate(g);
  const CentralizedResult c1 = centralized_allocate(g, &cliques);
  EXPECT_EQ(c0.status, c1.status);
  EXPECT_EQ(c0.constraint_rows, c1.constraint_rows);
  EXPECT_EQ(c0.allocation.flow_share, c1.allocation.flow_share);
  EXPECT_EQ(c0.allocation.subflow_share, c1.allocation.subflow_share);

  const TwoTierResult t0 = two_tier_allocate(g);
  const TwoTierResult t1 = two_tier_allocate(g, &cliques);
  EXPECT_EQ(t0.status, t1.status);
  EXPECT_EQ(t0.allocation.subflow_share, t1.allocation.subflow_share);

  const MaxMinResult m0 = maxmin_allocate(g);
  const MaxMinResult m1 = maxmin_allocate(g, {}, &cliques);
  EXPECT_EQ(m0.allocation.flow_share, m1.allocation.flow_share);

  const MaxMinResult s0 = maxmin_allocate_subflows(g);
  const MaxMinResult s1 = maxmin_allocate_subflows(g, {}, &cliques);
  EXPECT_EQ(s0.allocation.subflow_share, s1.allocation.subflow_share);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleParity, ::testing::Range<std::uint64_t>(1, 56));

// The seed corpus exercises twin classes: at least a quarter of the
// random_scenario seeds the suites above sweep route two or more subflows
// over one link.
TEST(ScaleParityCorpus, QuarterOfSeedsShareLinks) {
  int shared = 0, seeds = 0;
  for (std::uint64_t seed = 1; seed < 56; ++seed, ++seeds) {
    const Scenario sc = random_scenario(seed);
    FlowSet flows(sc.topo, sc.flow_specs);
    ContentionGraph g(sc.topo, flows);
    if (g.link_count() < g.vertex_count()) ++shared;
  }
  EXPECT_GE(4 * shared, seeds) << shared << " of " << seeds << " seeds share a link";
}

}  // namespace
}  // namespace e2efa
