#include <gtest/gtest.h>

#include <algorithm>

#include "alloc/refine.hpp"
#include "contention/clique_store.hpp"
#include "contention/cliques.hpp"
#include "contention/coloring.hpp"
#include "contention/contention_graph.hpp"
#include "net/scenarios.hpp"
#include "topology/builders.hpp"

namespace e2efa {
namespace {

// Helper: single chain flow of `hops` hops.
struct ChainFixture {
  explicit ChainFixture(int hops)
      : topo(make_chain(hops + 1)), flows(topo, make_specs(hops)), graph(topo, flows) {}
  static std::vector<Flow> make_specs(int hops) {
    Flow f;
    for (int i = 0; i <= hops; ++i) f.path.push_back(i);
    return {f};
  }
  Topology topo;
  FlowSet flows;
  ContentionGraph graph;
};

TEST(ContentionGraph, ChainContendsWithinTwoHops) {
  // In a shortcut-free chain, subflows j and k contend iff |j-k| <= 2
  // (endpoints of j and j+2 are adjacent nodes, hence in range). This is
  // what makes the virtual length 3.
  ChainFixture c(6);
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      if (a == b) continue;
      EXPECT_EQ(c.graph.contend(a, b), std::abs(a - b) <= 2)
          << "subflows " << a << "," << b;
    }
  }
}

TEST(ContentionGraph, SingleHopFlowHasNoEdges) {
  ChainFixture c(1);
  EXPECT_EQ(c.graph.vertex_count(), 1);
  EXPECT_EQ(c.graph.degree(0), 0);
}

TEST(ContentionGraph, ExplicitEdgesAddIntraFlowAutomatically) {
  Scenario sc = make_abstract_scenario({2, 1}, {1, 1});
  FlowSet fs(sc.topo, sc.flow_specs);
  // Only an explicit edge between F1.2 (idx 1) and F2.1 (idx 2).
  ContentionGraph g(fs, {{1, 2}});
  EXPECT_TRUE(g.contend(0, 1));  // intra-flow, shared node: automatic
  EXPECT_TRUE(g.contend(1, 2));  // explicit
  EXPECT_FALSE(g.contend(0, 2));
}

TEST(ContentionGraph, RejectsSelfEdgeAndBadVertex) {
  Scenario sc = make_abstract_scenario({1, 1}, {1, 1});
  FlowSet fs(sc.topo, sc.flow_specs);
  EXPECT_THROW(ContentionGraph(fs, {{0, 0}}), ContractViolation);
  EXPECT_THROW(ContentionGraph(fs, {{0, 9}}), ContractViolation);
}

TEST(ContentionGraph, Scenario1MatchesFig1b) {
  Scenario sc = scenario1();
  FlowSet fs(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, fs);
  // Vertices: F1.1=0 F1.2=1 F2.1=2 F2.2=3.
  ASSERT_EQ(g.vertex_count(), 4);
  EXPECT_TRUE(g.contend(0, 1));
  EXPECT_TRUE(g.contend(1, 2));
  EXPECT_TRUE(g.contend(1, 3));
  EXPECT_TRUE(g.contend(2, 3));
  EXPECT_FALSE(g.contend(0, 2));
  EXPECT_FALSE(g.contend(0, 3));
}

TEST(ContentionGraph, ComponentsAndFlowGroups) {
  // Two far-apart chains with no explicit edges: two components, two groups.
  Scenario sc = make_abstract_scenario({2, 2}, {1, 1});
  FlowSet fs(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, fs);
  EXPECT_EQ(g.components().size(), 2u);
  const auto groups = g.flow_groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<FlowId>{0}));
  EXPECT_EQ(groups[1], (std::vector<FlowId>{1}));
}

TEST(ContentionGraph, TransitiveFlowGrouping) {
  // F1~F2 and F2~F3 but F1 !~ F3: all three in one group (paper Sec. II-A).
  Scenario sc = make_abstract_scenario({1, 1, 1}, {1, 1, 1});
  FlowSet fs(sc.topo, sc.flow_specs);
  ContentionGraph g(fs, {{0, 1}, {1, 2}});
  EXPECT_FALSE(g.contend(0, 2));
  const auto groups = g.flow_groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<FlowId>{0, 1, 2}));
}

TEST(ContentionGraph, Scenario1SingleGroup) {
  Scenario sc = scenario1();
  FlowSet fs(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, fs);
  EXPECT_EQ(g.flow_groups().size(), 1u);
}

// ---------- twin classes ----------

/// Flow over `path` with weight 1.
Flow path_flow(std::vector<NodeId> path) {
  Flow f;
  f.path = std::move(path);
  return f;
}

bool contains(const std::vector<int>& clique, int v) {
  return std::find(clique.begin(), clique.end(), v) != clique.end();
}

TEST(ContentionGraph, OppositeDirectionTwinsShareOneClass) {
  // Chain 0-1-2-3-4-5. Flows A = 0->1->2 and B = 2->1 cross link {1,2} in
  // opposite directions; C = 3->4 sits on a link adjacent to it, D = 4->5
  // one further. Subflows: A.1 = 0, A.2 = 1, B.1 = 2, C.1 = 3, D.1 = 4.
  const Topology topo = make_chain(6);
  FlowSet fs(topo, {path_flow({0, 1, 2}), path_flow({2, 1}), path_flow({3, 4}),
                    path_flow({4, 5})});
  ContentionGraph g(topo, fs);
  ASSERT_EQ(g.vertex_count(), 5);
  EXPECT_EQ(g.link_count(), 4);
  EXPECT_EQ(g.link_of(1), g.link_of(2));
  EXPECT_EQ(g.link_members(g.link_of(1)), (std::vector<int>{1, 2}));

  // contend and degree against the endpoint-range rule.
  for (int a = 0; a < 5; ++a) {
    int brute_degree = 0;
    for (int b = 0; b < 5; ++b) {
      const Subflow& sa = fs.subflow(a);
      const Subflow& sb = fs.subflow(b);
      bool brute = false;
      for (NodeId x : {sa.src, sa.dst})
        for (NodeId y : {sb.src, sb.dst}) brute = brute || x == y || topo.interferes(x, y);
      brute = brute && a != b;
      brute_degree += brute ? 1 : 0;
      EXPECT_EQ(g.contend(a, b), brute) << a << "," << b;
    }
    EXPECT_EQ(g.degree(a), brute_degree) << a;
  }

  const std::vector<std::vector<int>> cliques = {{0, 1, 2}, {1, 2, 3}, {3, 4}};
  EXPECT_EQ(maximal_cliques(g), cliques);
  EXPECT_EQ(maximal_cliques_reference(g), cliques);
  for (const auto& c : cliques) EXPECT_EQ(contains(c, 1), contains(c, 2));

  // Toggling one twin leaves its link on: only the expansion changes.
  CliqueStore store(g);
  EXPECT_EQ(store.cliques(), cliques);
  store.update({}, {1});
  const std::vector<std::vector<int>> without_a2 = {{0, 2}, {2, 3}, {3, 4}};
  EXPECT_EQ(store.cliques(), without_a2);
  EXPECT_EQ(maximal_cliques_in_subset(g, {0, 2, 3, 4}), without_a2);
  store.update({1}, {});
  EXPECT_EQ(store.cliques(), cliques);
  // Both twins off switches the link off.
  store.update({}, {1, 2});
  EXPECT_EQ(store.cliques(), (std::vector<std::vector<int>>{{0}, {3, 4}}));
  EXPECT_EQ(store.clique_count(), 2);
  store.update({2, 1}, {});
  EXPECT_EQ(store.cliques(), cliques);
}

TEST(ContentionGraph, ExplicitEdgesKeepSameLinkSubflowsApart) {
  // A = 0->1 and B = 1->0 share a physical link, but the explicit graph
  // gives only A an edge to C = 2->3: they are not twins, so they stay
  // separate classes.
  const Topology topo = make_chain(4);
  FlowSet fs(topo, {path_flow({0, 1}), path_flow({1, 0}), path_flow({2, 3})});
  ContentionGraph g(fs, {{0, 2}});
  EXPECT_EQ(g.link_count(), 3);
  EXPECT_NE(g.link_of(0), g.link_of(1));
  EXPECT_TRUE(g.contend(0, 1));  // shared endpoints
  EXPECT_TRUE(g.contend(0, 2));
  EXPECT_FALSE(g.contend(1, 2));
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 1);
  const std::vector<std::vector<int>> cliques = {{0, 1}, {0, 2}};
  EXPECT_EQ(maximal_cliques(g), cliques);
  EXPECT_EQ(maximal_cliques_reference(g), cliques);
  CliqueStore store(g);
  store.update({}, {0});
  EXPECT_EQ(store.cliques(), (std::vector<std::vector<int>>{{1}, {2}}));
}

// ---------- maximal cliques ----------

TEST(Cliques, Scenario1Cliques) {
  Scenario sc = scenario1();
  FlowSet fs(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, fs);
  const auto cliques = maximal_cliques(g);
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0], (std::vector<int>{0, 1}));     // {F1.1, F1.2}
  EXPECT_EQ(cliques[1], (std::vector<int>{1, 2, 3}));  // {F1.2, F2.1, F2.2}
}

TEST(Cliques, Scenario2CliquesAreOmega1to6) {
  Scenario sc = scenario2();
  FlowSet fs(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, fs);
  // Subflow ids: F1.1..F1.4 = 0..3, F2.1 = 4, F3.1 = 5, F4.1 = 6, F4.2 = 7,
  // F5.1 = 8.
  const auto cliques = maximal_cliques(g);
  const std::vector<std::vector<int>> expected = {
      {0, 1, 2},  // Ω1
      {1, 2, 3},  // Ω2
      {2, 3, 4},  // Ω3
      {4, 5},     // Ω4
      {5, 6},     // Ω5
      {6, 7, 8},  // Ω6
  };
  EXPECT_EQ(cliques, expected);
}

TEST(Cliques, ChainCliquesAreTriples) {
  ChainFixture c(6);
  const auto cliques = maximal_cliques(c.graph);
  ASSERT_EQ(cliques.size(), 4u);
  for (std::size_t i = 0; i < cliques.size(); ++i) {
    EXPECT_EQ(cliques[i],
              (std::vector<int>{static_cast<int>(i), static_cast<int>(i) + 1,
                                static_cast<int>(i) + 2}));
  }
}

TEST(Cliques, WeightedCliqueNumberScenario1) {
  Scenario sc = scenario1();
  FlowSet fs(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, fs);
  EXPECT_DOUBLE_EQ(weighted_clique_number(g), 3.0);
}

TEST(Cliques, WeightedCliqueNumberRespectsWeights) {
  AbstractExample ex = fig4_example();
  FlowSet fs(ex.scenario.topo, ex.scenario.flow_specs);
  ContentionGraph g(fs, ex.edges);
  // Clique {F1.1, F2.1, F2.2, F3.1} has weight 1+2+2+3 = 8.
  EXPECT_DOUBLE_EQ(weighted_clique_number(g), 8.0);
}

TEST(Cliques, PentagonCliqueNumberIsTwo) {
  AbstractExample ex = pentagon_example();
  FlowSet fs(ex.scenario.topo, ex.scenario.flow_specs);
  ContentionGraph g(fs, ex.edges);
  const auto cliques = maximal_cliques(g);
  EXPECT_EQ(cliques.size(), 5u);  // the five ring edges
  EXPECT_DOUBLE_EQ(weighted_clique_number(g), 2.0);
}

TEST(Cliques, FlowMembershipCounts) {
  Scenario sc = scenario2();
  FlowSet fs(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, fs);
  const auto cliques = maximal_cliques(g);
  // Ω3 = {F1.3, F1.4, F2.1} -> n = (2,1,0,0,0).
  EXPECT_EQ(flow_membership_counts(g, cliques[2]), (std::vector<int>{2, 1, 0, 0, 0}));
  // Ω6 = {F4.1, F4.2, F5.1} -> n = (0,0,0,2,1).
  EXPECT_EQ(flow_membership_counts(g, cliques[5]), (std::vector<int>{0, 0, 0, 2, 1}));
}

TEST(Cliques, ConstraintRowsDeduplicated) {
  // An l=7 chain has 5 maximal cliques but all give the same row (3).
  ChainFixture c(7);
  const auto rows = graph_share_lp(c.graph, Granularity::kFlow).capacity_rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<double>{3.0}));
}

TEST(Cliques, SubsetCliques) {
  Scenario sc = scenario2();
  FlowSet fs(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, fs);
  // Restrict to {F1.3, F1.4, F2.1, F3.1} = {2, 3, 4, 5}.
  const auto cliques = maximal_cliques_in_subset(g, {2, 3, 4, 5});
  const std::vector<std::vector<int>> expected = {{2, 3, 4}, {4, 5}};
  EXPECT_EQ(cliques, expected);
}

TEST(Cliques, SubsetMustBeAscending) {
  ChainFixture c(3);
  EXPECT_THROW(maximal_cliques_in_subset(c.graph, {2, 1}), ContractViolation);
}

// ---------- independent sets ----------

TEST(IndependentSets, ChainSets) {
  ChainFixture c(3);
  // Subflows 0,1,2 mutually contend: independent sets are singletons.
  const auto sets = maximal_independent_sets(c.graph);
  ASSERT_EQ(sets.size(), 3u);
  for (const auto& s : sets) EXPECT_EQ(s.size(), 1u);
}

TEST(IndependentSets, SixHopChain) {
  ChainFixture c(6);
  const auto sets = maximal_independent_sets(c.graph);
  // {0,3}, {0,4}, {0,5}, {1,4}, {1,5}, {2,5} — pairs at distance >= 3.
  EXPECT_EQ(sets.size(), 6u);
  for (const auto& s : sets) {
    ASSERT_EQ(s.size(), 2u);
    EXPECT_GE(s[1] - s[0], 3);
  }
}

TEST(IndependentSets, PentagonMaxIndependentPairs) {
  AbstractExample ex = pentagon_example();
  FlowSet fs(ex.scenario.topo, ex.scenario.flow_specs);
  ContentionGraph g(fs, ex.edges);
  const auto sets = maximal_independent_sets(g);
  EXPECT_EQ(sets.size(), 5u);  // C5: five maximal independent pairs
  for (const auto& s : sets) EXPECT_EQ(s.size(), 2u);
}

// ---------- coloring ----------

TEST(Coloring, ChainColoringPattern) {
  EXPECT_EQ(chain_coloring(6), (std::vector<int>{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(chain_coloring(2), (std::vector<int>{0, 1}));
  EXPECT_EQ(chain_coloring(1), (std::vector<int>{0}));
  EXPECT_EQ(chain_coloring(4), (std::vector<int>{0, 1, 2, 0}));
}

TEST(Coloring, ChainColoringIsProper) {
  for (int hops : {1, 2, 3, 4, 5, 6, 9, 12}) {
    ChainFixture c(hops);
    const auto coloring = chain_coloring(hops);
    EXPECT_TRUE(is_proper_coloring(c.graph, coloring)) << "hops=" << hops;
    EXPECT_EQ(color_count(coloring), virtual_length(hops)) << "hops=" << hops;
  }
}

TEST(Coloring, GreedyIsProperOnChains) {
  for (int hops : {3, 5, 8, 11}) {
    ChainFixture c(hops);
    const auto coloring = greedy_coloring(c.graph);
    EXPECT_TRUE(is_proper_coloring(c.graph, coloring));
    // Greedy achieves the optimum (= 3) on shortcut-free chains >= 3 hops.
    EXPECT_EQ(color_count(coloring), 3) << "hops=" << hops;
  }
}

TEST(Coloring, GreedyProperOnScenario2) {
  Scenario sc = scenario2();
  FlowSet fs(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, fs);
  EXPECT_TRUE(is_proper_coloring(g, greedy_coloring(g)));
}

TEST(Coloring, DetectsImproperColoring) {
  ChainFixture c(2);
  EXPECT_FALSE(is_proper_coloring(c.graph, {0, 0}));
}

}  // namespace
}  // namespace e2efa
