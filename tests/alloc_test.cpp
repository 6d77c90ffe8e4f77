#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "alloc/allocation.hpp"
#include "alloc/centralized.hpp"
#include "alloc/distributed.hpp"
#include "alloc/schedulability.hpp"
#include "alloc/two_tier.hpp"
#include "contention/cliques.hpp"
#include "net/scenario_gen.hpp"
#include "net/scenarios.hpp"
#include "topology/builders.hpp"

namespace e2efa {
namespace {

constexpr double kTol = 1e-6;

struct Built {
  explicit Built(Scenario s) : sc(std::move(s)), flows(sc.topo, sc.flow_specs), graph(sc.topo, flows) {}
  Built(Scenario s, const std::vector<std::pair<int, int>>& edges)
      : sc(std::move(s)), flows(sc.topo, sc.flow_specs), graph(flows, edges) {}
  Scenario sc;
  FlowSet flows;
  ContentionGraph graph;
};

// ---------- basic shares & bounds ----------

TEST(BasicShares, Scenario1) {
  Built b(scenario1());
  // Σ w v = 2 + 2 = 4 -> B/4 each (the paper's Fig.-1 basic share).
  const auto s = basic_shares(b.flows);
  EXPECT_NEAR(s[0], 0.25, kTol);
  EXPECT_NEAR(s[1], 0.25, kTol);
}

TEST(BasicShares, Scenario2) {
  Built b(scenario2());
  // Σ w v = 8 -> B/8 each (paper Sec. IV-A LP lower bounds).
  for (double s : basic_shares(b.flows)) EXPECT_NEAR(s, 0.125, kTol);
}

TEST(BasicShares, WeightsScaleShares) {
  AbstractExample ex = fig4_example();
  Built b(std::move(ex.scenario), ex.edges);
  // Σ w v = 1·1 + 2·2 + 3·1 + 2·1 = 10 -> (B/10, B/5, 3B/10, B/5).
  const auto s = basic_shares(b.flows);
  EXPECT_NEAR(s[0], 0.1, kTol);
  EXPECT_NEAR(s[1], 0.2, kTol);
  EXPECT_NEAR(s[2], 0.3, kTol);
  EXPECT_NEAR(s[3], 0.2, kTol);
}

TEST(BasicShares, SubflowBasicSharesScenario1) {
  Built b(scenario1());
  // 4 unit-weight subflows -> B/4 each (previous work's guarantee).
  for (double s : subflow_basic_shares(b.flows)) EXPECT_NEAR(s, 0.25, kTol);
}

TEST(FairnessBound, Scenario1UpperBound) {
  Built b(scenario1());
  // ω_Ω = 3 -> each flow bounded by B/3, total 2B/3 (Sec. III-B text).
  EXPECT_NEAR(fairness_upper_bound(b.graph), 2.0 / 3.0, kTol);
  const auto r = fairness_bound_shares(b.graph);
  EXPECT_NEAR(r[0], 1.0 / 3.0, kTol);
  EXPECT_NEAR(r[1], 1.0 / 3.0, kTol);
}

TEST(FairnessBound, PentagonUpperBound) {
  AbstractExample ex = pentagon_example();
  Built b(std::move(ex.scenario), ex.edges);
  // ω_Ω = 2 -> bound 5B/2 with B/2 per flow (Fig. 5).
  EXPECT_NEAR(fairness_upper_bound(b.graph), 2.5, kTol);
}

TEST(Allocation, EqualizedComputesEndToEnd) {
  Built b(scenario1());
  const Allocation a = make_equalized_allocation(b.flows, {0.5, 0.25});
  EXPECT_NEAR(a.end_to_end[0], 0.5, kTol);
  EXPECT_NEAR(a.end_to_end[1], 0.25, kTol);
  EXPECT_NEAR(a.total_effective, 0.75, kTol);
  EXPECT_NEAR(a.subflow_share[0], 0.5, kTol);
  EXPECT_NEAR(a.subflow_share[3], 0.25, kTol);
}

TEST(Allocation, SubflowAllocationMinRule) {
  Built b(scenario1());
  // Two-tier style shares: F1 = (3/4, 1/4), F2 = (3/8, 3/8).
  const Allocation a = make_subflow_allocation(b.flows, {0.75, 0.25, 0.375, 0.375});
  EXPECT_NEAR(a.end_to_end[0], 0.25, kTol);   // min(3/4, 1/4)
  EXPECT_NEAR(a.end_to_end[1], 0.375, kTol);  // min(3/8, 3/8)
  EXPECT_NEAR(a.total_effective, 0.625, kTol);  // paper's 5B/8
}

TEST(Allocation, Checkers) {
  Built b(scenario1());
  const Allocation good = make_equalized_allocation(b.flows, {0.5, 0.25});
  EXPECT_TRUE(satisfies_clique_capacity(b.graph, good.subflow_share));
  EXPECT_TRUE(satisfies_basic_fairness(b.flows, good.flow_share));
  EXPECT_NEAR(max_clique_load(b.graph, good.subflow_share), 1.0, kTol);

  const Allocation overload = make_equalized_allocation(b.flows, {0.6, 0.25});
  EXPECT_FALSE(satisfies_clique_capacity(b.graph, overload.subflow_share));
  const Allocation starved = make_equalized_allocation(b.flows, {0.5, 0.2});
  EXPECT_FALSE(satisfies_basic_fairness(b.flows, starved.flow_share));
}

TEST(Allocation, FairnessResidual) {
  Built b(scenario1());
  EXPECT_NEAR(fairness_residual(b.flows, {0.3, 0.3}), 0.0, kTol);
  EXPECT_NEAR(fairness_residual(b.flows, {0.5, 0.25}), 0.25, kTol);
}

// ---------- centralized allocator (Sec. III-B / IV-A worked examples) ----------

TEST(Centralized, Fig1Example) {
  Built b(scenario1());
  const auto r = centralized_allocate(b.graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Paper: (r̂1, r̂2) = (B/2, B/4), total effective 3B/4.
  EXPECT_NEAR(r.allocation.flow_share[0], 0.5, kTol);
  EXPECT_NEAR(r.allocation.flow_share[1], 0.25, kTol);
  EXPECT_NEAR(r.allocation.total_effective, 0.75, kTol);
  EXPECT_EQ(r.min_relaxation, 1.0);
}

TEST(Centralized, Fig6Example) {
  Built b(scenario2());
  const auto r = centralized_allocate(b.graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Paper: (B/3, B/3, 2B/3, B/8, 3B/4).
  EXPECT_NEAR(r.allocation.flow_share[0], 1.0 / 3.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[1], 1.0 / 3.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[2], 2.0 / 3.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[3], 1.0 / 8.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[4], 3.0 / 4.0, kTol);
  EXPECT_EQ(r.refine_failures, 0);
}

TEST(Centralized, Fig4Example) {
  AbstractExample ex = fig4_example();
  Built b(std::move(ex.scenario), ex.edges);
  const auto r = centralized_allocate(b.graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Paper Sec. IV-C: (3B/10, B/5, 3B/10, 7B/10).
  EXPECT_NEAR(r.allocation.flow_share[0], 0.3, kTol);
  EXPECT_NEAR(r.allocation.flow_share[1], 0.2, kTol);
  EXPECT_NEAR(r.allocation.flow_share[2], 0.3, kTol);
  EXPECT_NEAR(r.allocation.flow_share[3], 0.7, kTol);
}

TEST(Centralized, ResultSatisfiesInvariants) {
  for (Scenario sc : {scenario1(), scenario2()}) {
    Built b(std::move(sc));
    const auto r = centralized_allocate(b.graph);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    EXPECT_TRUE(satisfies_clique_capacity(b.graph, r.allocation.subflow_share));
    EXPECT_TRUE(satisfies_basic_fairness(b.flows, r.allocation.flow_share));
  }
}

TEST(Centralized, PentagonGetsBasicShareOrBetter) {
  AbstractExample ex = pentagon_example();
  Built b(std::move(ex.scenario), ex.edges);
  const auto r = centralized_allocate(b.graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // LP optimum allocates B/2 per flow (total 5B/2) — the Prop.-1 bound.
  for (double s : r.allocation.flow_share) EXPECT_NEAR(s, 0.5, kTol);
}

TEST(Centralized, SingleFlowChainGetsThird) {
  // One 6-hop flow alone: r̂ = B/3 (intra-flow reuse; v = 3).
  Topology topo = make_chain(7);
  Flow f;
  for (int i = 0; i < 7; ++i) f.path.push_back(i);
  FlowSet flows(topo, {f});
  ContentionGraph g(topo, flows);
  const auto r = centralized_allocate(g);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.allocation.flow_share[0], 1.0 / 3.0, kTol);
}

// ---------- two-tier baseline ----------

TEST(TwoTier, Fig1Example) {
  Built b(scenario1());
  const auto r = two_tier_allocate(b.graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Paper: (r1.1, r1.2, r2.1, r2.2) = (3B/4, B/4, 3B/8, 3B/8).
  EXPECT_NEAR(r.allocation.subflow_share[0], 0.75, kTol);
  EXPECT_NEAR(r.allocation.subflow_share[1], 0.25, kTol);
  EXPECT_NEAR(r.allocation.subflow_share[2], 0.375, kTol);
  EXPECT_NEAR(r.allocation.subflow_share[3], 0.375, kTol);
  // Total single-hop throughput 7B/4 — the paper's quoted figure.
  EXPECT_NEAR(r.total_single_hop, 1.75, kTol);
  // End-to-end: (B/4, 3B/8), total effective 5B/8 — inferior to 2PA's 3B/4.
  EXPECT_NEAR(r.allocation.end_to_end[0], 0.25, kTol);
  EXPECT_NEAR(r.allocation.end_to_end[1], 0.375, kTol);
  EXPECT_NEAR(r.allocation.total_effective, 0.625, kTol);
}

TEST(TwoTier, UpstreamDownstreamImbalanceExists) {
  // The defect the paper highlights: two-tier gives F1.1 three times the
  // share of F1.2, so packets pile up at the relay.
  Built b(scenario1());
  const auto r = two_tier_allocate(b.graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_GT(r.allocation.subflow_share[0], 2.9 * r.allocation.subflow_share[1]);
}

TEST(TwoTier, RespectsSubflowBasicShares) {
  for (Scenario sc : {scenario1(), scenario2()}) {
    Built b(std::move(sc));
    const auto r = two_tier_allocate(b.graph);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    const auto mins = subflow_basic_shares(b.flows);
    for (int s = 0; s < b.flows.subflow_count(); ++s)
      EXPECT_GE(r.allocation.subflow_share[s], mins[s] - kTol);
    EXPECT_TRUE(satisfies_clique_capacity(b.graph, r.allocation.subflow_share));
  }
}

TEST(TwoTier, TotalSingleHopBeatsEndToEndObjective) {
  // Two-tier maximizes single-hop throughput, so its single-hop total must
  // be >= the 2PA allocation's single-hop total on the same graph.
  Built b(scenario1());
  const auto tt = two_tier_allocate(b.graph);
  const auto c = centralized_allocate(b.graph);
  double c_single_hop = 0.0;
  for (double s : c.allocation.subflow_share) c_single_hop += s;
  EXPECT_GE(tt.total_single_hop, c_single_hop - kTol);
  // ...while 2PA wins end-to-end.
  EXPECT_GT(c.allocation.total_effective, tt.allocation.total_effective + 0.1);
}

// ---------- distributed allocator (Table I) ----------

TEST(Distributed, Scenario2MatchesPaperVector) {
  Built b(scenario2());
  const auto r = distributed_allocate(b.sc.topo, b.flows, b.graph);
  // Paper 2PA-D: (1/3, 1/5, 1/4, 1/4, 1/2).
  EXPECT_NEAR(r.allocation.flow_share[0], 1.0 / 3.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[1], 1.0 / 5.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[2], 1.0 / 4.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[3], 1.0 / 4.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[4], 1.0 / 2.0, kTol);
}

TEST(Distributed, TableILocalProblems) {
  Built b(scenario2());
  const auto r = distributed_allocate(b.sc.topo, b.flows, b.graph);
  ASSERT_EQ(r.locals.size(), 5u);

  // Row 1 — flow F1 at source A: vars {F1, F2}, mins B/3, solution (B/3, B/3).
  const LocalProblem& p1 = r.locals[0];
  EXPECT_EQ(p1.vars, (std::vector<FlowId>{0, 1}));
  EXPECT_NEAR(p1.unit_basic, 1.0 / 3.0, kTol);
  ASSERT_EQ(p1.status, LpStatus::kOptimal);
  EXPECT_NEAR(p1.solution[0], 1.0 / 3.0, kTol);
  EXPECT_NEAR(p1.solution[1], 1.0 / 3.0, kTol);

  // Row 2 — flow F2 at source F: vars {F1, F2, F3}, mins B/5,
  // solution (2B/5, B/5, 4B/5).
  const LocalProblem& p2 = r.locals[1];
  EXPECT_EQ(p2.vars, (std::vector<FlowId>{0, 1, 2}));
  EXPECT_NEAR(p2.unit_basic, 0.2, kTol);
  ASSERT_EQ(p2.status, LpStatus::kOptimal);
  EXPECT_NEAR(p2.solution[0], 0.4, kTol);
  EXPECT_NEAR(p2.solution[1], 0.2, kTol);
  EXPECT_NEAR(p2.solution[2], 0.8, kTol);

  // Row 3 — flow F3 at source H: vars {F2, F3, F4}, mins B/4,
  // solution (3B/4, B/4, 3B/4).
  const LocalProblem& p3 = r.locals[2];
  EXPECT_EQ(p3.vars, (std::vector<FlowId>{1, 2, 3}));
  EXPECT_NEAR(p3.unit_basic, 0.25, kTol);
  ASSERT_EQ(p3.status, LpStatus::kOptimal);
  EXPECT_NEAR(p3.solution[0], 0.75, kTol);
  EXPECT_NEAR(p3.solution[1], 0.25, kTol);
  EXPECT_NEAR(p3.solution[2], 0.75, kTol);

  // Row 4 — flow F4 at source J: vars {F3, F4, F5}, mins B/4,
  // solution (3B/4, B/4, B/2).
  const LocalProblem& p4 = r.locals[3];
  EXPECT_EQ(p4.vars, (std::vector<FlowId>{2, 3, 4}));
  EXPECT_NEAR(p4.unit_basic, 0.25, kTol);
  ASSERT_EQ(p4.status, LpStatus::kOptimal);
  EXPECT_NEAR(p4.solution[0], 0.75, kTol);
  EXPECT_NEAR(p4.solution[1], 0.25, kTol);
  EXPECT_NEAR(p4.solution[2], 0.5, kTol);

  // Row 5 — flow F5 at source M: vars {F3, F4, F5}, same LP as row 4.
  const LocalProblem& p5 = r.locals[4];
  EXPECT_EQ(p5.vars, (std::vector<FlowId>{2, 3, 4}));
  EXPECT_NEAR(p5.unit_basic, 0.25, kTol);
  EXPECT_NEAR(p5.flow_share, 0.5, kTol);

  // Every refinement LP of the five local problems ends optimal.
  for (const LocalProblem& p : r.locals) EXPECT_EQ(p.refine_failures, 0) << "flow " << p.flow;
}

TEST(Distributed, Scenario1IsConservative) {
  // On the Fig.-1 topology F2's source has full knowledge (gets the
  // centralized B/4), while F1's source A only sees F1 locally: its local
  // basic share of B/2 for everything is jointly infeasible with the clique
  // rows propagated from B, so it is proportionally relaxed (factor 2/3),
  // giving the conservative r̂1 = B/3 < B/2.
  Built b(scenario1());
  const auto d = distributed_allocate(b.sc.topo, b.flows, b.graph);
  EXPECT_NEAR(d.allocation.flow_share[0], 1.0 / 3.0, kTol);
  EXPECT_NEAR(d.allocation.flow_share[1], 1.0 / 4.0, kTol);
  // The 50-step bisection's last feasible midpoint, bit for bit: the
  // phase-1 tolerance (1e-9) lets it sit just above 2/3.
  EXPECT_EQ(d.locals[0].min_relaxation, 0x1.5555555b0f59p-1);
  EXPECT_NEAR(d.locals[1].min_relaxation, 1.0, kTol);
  // Those floors overfill a clique row within the phase-1 tolerance, so
  // once the first level fixes F1, F2's headroom LP and the final re-solve
  // are called infeasible. Both failures are absorbed, and counted.
  EXPECT_EQ(d.locals[0].refine_failures, 2);
  // Still globally feasible and basic-fair.
  EXPECT_TRUE(satisfies_clique_capacity(b.graph, d.allocation.subflow_share));
  EXPECT_TRUE(satisfies_basic_fairness(b.flows, d.allocation.flow_share));
}

TEST(Distributed, NodeCliquesAreEachNodesOwnEnumeration) {
  // distributed_allocate enumerates each distinct knowledge set once and
  // copies the cliques to the other nodes holding it; every node must still
  // get exactly the cliques of its own set.
  GenConfig gen;
  gen.min_nodes = gen.max_nodes = 150;
  gen.min_flows = gen.max_flows = 20;
  gen.max_hops = 3;
  gen.p_faults = 0.0;
  gen.p_loss = 0.0;
  gen.density_m = 160.0;
  Built b(generate_scenario(0, gen));
  const DistributedResult d = distributed_allocate(b.sc.topo, b.flows, b.graph);
  std::set<std::vector<int>> distinct;
  int non_empty = 0;
  for (NodeId v = 0; v < b.sc.topo.node_count(); ++v) {
    const auto& k = d.node_knowledge[static_cast<std::size_t>(v)];
    EXPECT_EQ(d.node_cliques[static_cast<std::size_t>(v)], maximal_cliques_in_subset(b.graph, k))
        << "node " << v;
    if (k.empty()) continue;
    ++non_empty;
    distinct.insert(k);
  }
  // Shared sets occur, so the copy path runs.
  EXPECT_LT(static_cast<int>(distinct.size()), non_empty);
}

TEST(Distributed, LocalBasicSharesAtLeastCentralized) {
  // Paper: local optimization generates a slightly higher basic share.
  Built b(scenario2());
  const auto r = distributed_allocate(b.sc.topo, b.flows, b.graph);
  const auto central_basic = basic_shares(b.flows);
  for (const LocalProblem& lp : r.locals) {
    const double w = b.flows.flow(lp.flow).weight;
    EXPECT_GE(w * lp.unit_basic, central_basic[lp.flow] - kTol);
  }
}

TEST(Distributed, SatisfiesGlobalCliqueCapacity) {
  // The distributed allocation (min over conservative local LPs) must still
  // be globally feasible on the paper topologies.
  for (Scenario sc : {scenario1(), scenario2()}) {
    Built b(std::move(sc));
    const auto r = distributed_allocate(b.sc.topo, b.flows, b.graph);
    EXPECT_TRUE(satisfies_clique_capacity(b.graph, r.allocation.subflow_share));
  }
}

TEST(Distributed, TotalEffectiveAtMostCentralized) {
  Built b(scenario2());
  const auto d = distributed_allocate(b.sc.topo, b.flows, b.graph);
  const auto c = centralized_allocate(b.graph);
  EXPECT_LE(d.allocation.total_effective, c.allocation.total_effective + kTol);
}

// ---------- schedulability ----------

TEST(Schedulability, PentagonBoundUnachievable) {
  AbstractExample ex = pentagon_example();
  Built b(std::move(ex.scenario), ex.edges);
  // Demand B/2 on every subflow: needs 5/4 of the period -> unschedulable.
  const auto r = check_schedulable(b.graph, std::vector<double>(5, 0.5));
  EXPECT_FALSE(r.schedulable);
  EXPECT_NEAR(r.time_needed, 1.25, kTol);
}

TEST(Schedulability, PentagonTwoFifthsAchievable) {
  AbstractExample ex = pentagon_example();
  Built b(std::move(ex.scenario), ex.edges);
  // The fractional limit for C5 is 2/5 per vertex (independence ratio).
  const auto r = check_schedulable(b.graph, std::vector<double>(5, 0.4));
  EXPECT_TRUE(r.schedulable);
  EXPECT_NEAR(r.time_needed, 1.0, kTol);
}

TEST(Schedulability, Fig1OptimalAllocationSchedulable) {
  Built b(scenario1());
  const auto c = centralized_allocate(b.graph);
  const auto r = check_schedulable(b.graph, c.allocation.subflow_share);
  EXPECT_TRUE(r.schedulable);
}

TEST(Schedulability, Scenario2CentralizedSchedulable) {
  Built b(scenario2());
  const auto c = centralized_allocate(b.graph);
  const auto r = check_schedulable(b.graph, c.allocation.subflow_share);
  EXPECT_TRUE(r.schedulable);
}

TEST(Schedulability, WitnessScheduleCoversDemand) {
  Built b(scenario1());
  const auto c = centralized_allocate(b.graph);
  const auto r = check_schedulable(b.graph, c.allocation.subflow_share);
  std::vector<double> served(static_cast<std::size_t>(b.flows.subflow_count()), 0.0);
  double total_time = 0.0;
  for (const auto& e : r.schedule) {
    total_time += e.fraction;
    for (int v : e.independent_set) served[static_cast<std::size_t>(v)] += e.fraction;
  }
  EXPECT_NEAR(total_time, r.time_needed, kTol);
  for (int v = 0; v < b.flows.subflow_count(); ++v)
    EXPECT_GE(served[v], c.allocation.subflow_share[v] - kTol);
}

TEST(Schedulability, ZeroDemandTrivially) {
  Built b(scenario1());
  const auto r = check_schedulable(b.graph, std::vector<double>(4, 0.0));
  EXPECT_TRUE(r.schedulable);
  EXPECT_NEAR(r.time_needed, 0.0, kTol);
}

TEST(Schedulability, RejectsNegativeDemand) {
  Built b(scenario1());
  EXPECT_THROW(check_schedulable(b.graph, {-0.1, 0, 0, 0}), ContractViolation);
}

}  // namespace
}  // namespace e2efa
