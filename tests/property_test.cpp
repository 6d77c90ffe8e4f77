// Property-based (parameterized) suites: invariants that must hold on
// randomized topologies, flow sets, LPs, and schedules — not just on the
// paper's worked examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "alloc/centralized.hpp"
#include "alloc/distributed.hpp"
#include "alloc/schedulability.hpp"
#include "alloc/two_tier.hpp"
#include "contention/cliques.hpp"
#include "contention/coloring.hpp"
#include "lp/simplex.hpp"
#include "net/runner.hpp"
#include "route/routing.hpp"
#include "sched/tag_scheduler.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace e2efa {
namespace {

constexpr double kTol = 1e-6;

/// Deterministic random network: topology + min-hop flows + contention.
struct RandomCase {
  explicit RandomCase(std::uint64_t seed) {
    Rng rng(seed);
    const int nodes = 10 + static_cast<int>(rng.uniform_u64(8));
    const double side = 200.0 * std::sqrt(static_cast<double>(nodes));
    topo = std::make_unique<Topology>(make_random(nodes, side, side, rng));
    const int nf = 2 + static_cast<int>(rng.uniform_u64(4));
    std::vector<Flow> specs;
    for (int i = 0; i < nf; ++i) {
      NodeId a, b;
      do {
        a = static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
        b = static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
      } while (a == b);
      specs.push_back(make_routed_flow(*topo, a, b, 0.5 + 2.0 * rng.uniform01()));
    }
    flows = std::make_unique<FlowSet>(*topo, specs);
    graph = std::make_unique<ContentionGraph>(*topo, *flows);
  }
  std::unique_ptr<Topology> topo;
  std::unique_ptr<FlowSet> flows;
  std::unique_ptr<ContentionGraph> graph;
};

// ---------- allocation invariants on random networks ----------

class RandomNetworkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNetworkProperty, MinHopRoutesShortcutFree) {
  RandomCase c(GetParam());
  EXPECT_TRUE(c.flows->all_shortcut_free());
}

TEST_P(RandomNetworkProperty, CentralizedSatisfiesAllConstraints) {
  RandomCase c(GetParam());
  const auto r = centralized_allocate(*c.graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_TRUE(satisfies_clique_capacity(*c.graph, r.allocation.subflow_share, 1e-5));
  EXPECT_TRUE(satisfies_basic_fairness(*c.flows, r.allocation.flow_share, 1e-5));
}

TEST_P(RandomNetworkProperty, CentralizedAtLeastBasicTotal) {
  RandomCase c(GetParam());
  const auto r = centralized_allocate(*c.graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  double basic_total = 0.0;
  for (double b : basic_shares(*c.flows)) basic_total += b;
  EXPECT_GE(r.allocation.total_effective, basic_total - kTol);
}

TEST_P(RandomNetworkProperty, CentralizedBelowFairnessBoundPerWeight) {
  // Per-unit-weight shares cannot exceed... note: with only *basic*
  // fairness, individual flows may exceed w_i·B/ω_Ω, but no flow can exceed
  // the whole channel, and the equalized allocation respects every clique.
  RandomCase c(GetParam());
  const auto r = centralized_allocate(*c.graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  for (double s : r.allocation.flow_share) {
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0 + kTol);
  }
}

TEST_P(RandomNetworkProperty, TwoTierDominatesCentralizedSingleHop) {
  // Two-tier maximizes total single-hop throughput, so it must be at least
  // the single-hop total of any other feasible allocation — including 2PA's.
  RandomCase c(GetParam());
  const auto tt = two_tier_allocate(*c.graph);
  const auto ce = centralized_allocate(*c.graph);
  ASSERT_EQ(tt.status, LpStatus::kOptimal);
  ASSERT_EQ(ce.status, LpStatus::kOptimal);
  double ce_single = 0.0;
  for (double s : ce.allocation.subflow_share) ce_single += s;
  EXPECT_GE(tt.total_single_hop, ce_single - 1e-5);
}

TEST_P(RandomNetworkProperty, CentralizedDominatesTwoTierEndToEnd) {
  // Conversely 2PA maximizes end-to-end total among equalized allocations;
  // two-tier's end-to-end total can never exceed it. (Two-tier's min-rule
  // end-to-end vector is clique-feasible when equalized downward, so its
  // total is a lower bound for the 2PA LP.)
  RandomCase c(GetParam());
  const auto tt = two_tier_allocate(*c.graph);
  const auto ce = centralized_allocate(*c.graph);
  EXPECT_GE(ce.allocation.total_effective, tt.allocation.total_effective - 1e-5);
}

TEST_P(RandomNetworkProperty, DistributedGuaranteesGlobalBasicShares) {
  RandomCase c(GetParam());
  const auto d = distributed_allocate(*c.topo, *c.flows, *c.graph);
  EXPECT_TRUE(satisfies_basic_fairness(*c.flows, d.allocation.flow_share, 1e-5));
}

TEST_P(RandomNetworkProperty, DistributedLocalSolutionsFeasible) {
  RandomCase c(GetParam());
  const auto d = distributed_allocate(*c.topo, *c.flows, *c.graph);
  for (const LocalProblem& lp : d.locals) {
    if (lp.status != LpStatus::kOptimal) continue;
    for (std::size_t k = 0; k < lp.rows.size(); ++k) {
      double load = 0.0;
      for (std::size_t i = 0; i < lp.vars.size(); ++i)
        load += lp.rows[k][i] * lp.solution[i];
      EXPECT_LE(load, 1.0 + 1e-5);
    }
  }
}

TEST_P(RandomNetworkProperty, DistributedLocalBasicAtLeastGlobal) {
  RandomCase c(GetParam());
  const auto d = distributed_allocate(*c.topo, *c.flows, *c.graph);
  const auto basic = basic_shares(*c.flows);
  for (const LocalProblem& lp : d.locals) {
    const double w = c.flows->flow(lp.flow).weight;
    EXPECT_GE(w * lp.unit_basic, basic[lp.flow] - kTol);
  }
}

TEST_P(RandomNetworkProperty, CliqueLoadLowerBoundsScheduleTime) {
  // Any demand needs at least its maximum clique load of schedule time
  // (clique members are mutually exclusive) — check on the centralized
  // allocation's demand.
  RandomCase c(GetParam());
  const auto ce = centralized_allocate(*c.graph);
  ASSERT_EQ(ce.status, LpStatus::kOptimal);
  const auto sched = check_schedulable(*c.graph, ce.allocation.subflow_share);
  EXPECT_GE(sched.time_needed, max_clique_load(*c.graph, ce.allocation.subflow_share) - 1e-5);
}

TEST_P(RandomNetworkProperty, ScheduleWitnessServesDemand) {
  RandomCase c(GetParam());
  const auto ce = centralized_allocate(*c.graph);
  const auto sched = check_schedulable(*c.graph, ce.allocation.subflow_share);
  std::vector<double> served(static_cast<std::size_t>(c.flows->subflow_count()), 0.0);
  for (const auto& e : sched.schedule)
    for (int v : e.independent_set) served[static_cast<std::size_t>(v)] += e.fraction;
  for (int v = 0; v < c.flows->subflow_count(); ++v)
    EXPECT_GE(served[static_cast<std::size_t>(v)],
              ce.allocation.subflow_share[static_cast<std::size_t>(v)] - 1e-5);
}

TEST_P(RandomNetworkProperty, GreedyColoringProper) {
  RandomCase c(GetParam());
  EXPECT_TRUE(is_proper_coloring(*c.graph, greedy_coloring(*c.graph)));
}

TEST_P(RandomNetworkProperty, CliquesAreCliquesAndMaximal) {
  RandomCase c(GetParam());
  const auto cliques = maximal_cliques(*c.graph);
  for (const auto& q : cliques) {
    for (std::size_t i = 0; i < q.size(); ++i)
      for (std::size_t j = i + 1; j < q.size(); ++j)
        EXPECT_TRUE(c.graph->contend(q[i], q[j]));
    // Maximality: no vertex outside q is adjacent to all of q.
    for (int v = 0; v < c.graph->vertex_count(); ++v) {
      if (std::find(q.begin(), q.end(), v) != q.end()) continue;
      const bool adjacent_to_all = std::all_of(
          q.begin(), q.end(), [&](int u) { return c.graph->contend(u, v); });
      EXPECT_FALSE(adjacent_to_all);
    }
  }
}

TEST_P(RandomNetworkProperty, EveryVertexCoveredBySomeClique) {
  RandomCase c(GetParam());
  const auto cliques = maximal_cliques(*c.graph);
  for (int v = 0; v < c.graph->vertex_count(); ++v) {
    const bool covered = std::any_of(cliques.begin(), cliques.end(), [&](const auto& q) {
      return std::find(q.begin(), q.end(), v) != q.end();
    });
    EXPECT_TRUE(covered);
  }
}

TEST_P(RandomNetworkProperty, FlowGroupsPartitionFlows) {
  RandomCase c(GetParam());
  const auto groups = c.graph->flow_groups();
  std::vector<int> seen(static_cast<std::size_t>(c.flows->flow_count()), 0);
  for (const auto& g : groups)
    for (FlowId f : g) ++seen[static_cast<std::size_t>(f)];
  for (int s : seen) EXPECT_EQ(s, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------- simplex properties on random LPs ----------

class SimplexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexProperty, OptimumFeasibleAndDominatesRandomFeasiblePoints) {
  Rng rng(GetParam());
  const int n = 3 + static_cast<int>(rng.uniform_u64(6));
  const int m = 2 + static_cast<int>(rng.uniform_u64(5));
  LpProblem p(n);
  for (int i = 0; i < n; ++i) p.set_objective(i, rng.uniform(0.1, 2.0));
  std::vector<std::vector<double>> rows;
  for (int k = 0; k < m; ++k) {
    std::vector<double> row(static_cast<std::size_t>(n), 0.0);
    for (int i = 0; i < n; ++i)
      if (rng.bernoulli(0.6)) row[static_cast<std::size_t>(i)] = rng.uniform(0.2, 2.0);
    rows.push_back(row);
    p.add_constraint(rows.back(), Relation::kLessEq, rng.uniform(0.5, 3.0));
  }
  // Cap each variable so the LP is bounded.
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<std::size_t>(n), 0.0);
    row[static_cast<std::size_t>(i)] = 1.0;
    p.add_constraint(row, Relation::kLessEq, 5.0);
  }

  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  // Feasibility of the returned point.
  for (const auto& c : p.constraints()) {
    double lhs = 0.0;
    for (int i = 0; i < n; ++i) lhs += c.coeffs[static_cast<std::size_t>(i)] * s.x[static_cast<std::size_t>(i)];
    EXPECT_LE(lhs, c.rhs + 1e-6);
  }
  for (double x : s.x) EXPECT_GE(x, -1e-9);

  // Optimality vs random feasible points: sample a direction and scale it
  // onto the feasible region (all rhs are positive, so scaled points are
  // always feasible).
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (double& v : x) v = rng.uniform(0.0, 1.0);
    double scale = 1.0;
    for (const auto& c : p.constraints()) {
      double lhs = 0.0;
      for (int i = 0; i < n; ++i) lhs += c.coeffs[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
      if (lhs > 0.0) scale = std::min(scale, c.rhs / lhs);
    }
    double obj = 0.0;
    for (int i = 0; i < n; ++i)
      obj += p.objective()[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)] * scale;
    EXPECT_LE(obj, s.objective + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------- tag scheduler share tracking across share splits ----------

class TagShareProperty
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(TagShareProperty, ServiceProportionalToShares) {
  const auto [c0, c1] = GetParam();
  TagScheduler s({{0, c0}, {1, c1}}, 600, 1e-4);
  for (int i = 0; i < 600; ++i) {
    Packet p;
    p.payload_bytes = 512;
    p.seq = i;
    p.subflow = 0;
    s.enqueue(p, 0);
    p.subflow = 1;
    s.enqueue(p, 0);
  }
  int n0 = 0, n1 = 0;
  for (int i = 0; i < 400; ++i) (s.pop_success(0).subflow == 0 ? n0 : n1)++;
  const double measured = static_cast<double>(n0) / static_cast<double>(n1);
  EXPECT_NEAR(measured, c0 / c1, 0.12 * c0 / c1);
}

INSTANTIATE_TEST_SUITE_P(Splits, TagShareProperty,
                         ::testing::Values(std::pair{0.5, 0.5}, std::pair{0.5, 0.25},
                                           std::pair{0.6, 0.2}, std::pair{0.7, 0.1},
                                           std::pair{0.4, 0.3}, std::pair{0.25, 0.125}));

// ---------- end-to-end simulation invariants across seeds ----------

class SimSeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimSeedProperty, TwoPaShapesHoldAcrossSeeds) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 40.0;
  cfg.seed = GetParam();
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  // Loss stays small and share ratios stay in the right ballpark for any
  // seed, not just the one used in the headline table.
  EXPECT_LT(r.loss_ratio, 0.08);
  const double ratio = static_cast<double>(r.delivered_per_subflow[0]) /
                       static_cast<double>(r.delivered_per_subflow[2]);
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.6);
  // Conservation: F2's two hops deliver within queue-capacity of each other.
  EXPECT_LE(std::llabs(r.delivered_per_subflow[2] - r.delivered_per_subflow[3]), 50);
}

TEST_P(SimSeedProperty, PacketConservationHolds) {
  const Scenario sc = scenario2();
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  cfg.seed = GetParam();
  for (Protocol p : {Protocol::k80211, Protocol::k2paDistributed}) {
    const RunResult r = run_scenario(sc, p, cfg);
    FlowSet flows(sc.topo, sc.flow_specs);
    // Along every flow, deliveries are non-increasing per hop, and adjacent
    // hops differ by at most drops + in-flight queue backlog.
    for (FlowId f = 0; f < flows.flow_count(); ++f) {
      for (int h = 1; h < flows.flow(f).length(); ++h) {
        const auto up = r.delivered_per_subflow[static_cast<std::size_t>(flows.subflow_index(f, h - 1))];
        const auto down = r.delivered_per_subflow[static_cast<std::size_t>(flows.subflow_index(f, h))];
        EXPECT_LE(down, up);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimSeedProperty, ::testing::Values(3, 7, 31, 127, 8191));

}  // namespace
}  // namespace e2efa
