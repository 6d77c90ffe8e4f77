// Second property-test batch: max-min invariants under random rate caps,
// dynamic-run determinism, fluid-model consistency, and strict-fairness
// relations on random networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "alloc/centralized.hpp"
#include "alloc/distributed.hpp"
#include "alloc/maxmin.hpp"
#include "alloc/strict_fair.hpp"
#include "check/check.hpp"
#include "contention/cliques.hpp"
#include "net/fluid.hpp"
#include "net/runner.hpp"
#include "net/scenario_gen.hpp"
#include "net/scenarios.hpp"
#include "route/routing.hpp"
#include "topology/builders.hpp"

namespace e2efa {
namespace {

constexpr double kTol = 1e-6;

struct RandomCase {
  explicit RandomCase(std::uint64_t seed) : rng(seed) {
    const int nodes = 9 + static_cast<int>(rng.uniform_u64(6));
    const double side = 200.0 * std::sqrt(static_cast<double>(nodes));
    topo = std::make_unique<Topology>(make_random(nodes, side, side, rng));
    const int nf = 2 + static_cast<int>(rng.uniform_u64(3));
    std::vector<Flow> specs;
    for (int i = 0; i < nf; ++i) {
      NodeId a, b;
      do {
        a = static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
        b = static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
      } while (a == b);
      specs.push_back(make_routed_flow(*topo, a, b, 0.5 + rng.uniform01()));
    }
    flows = std::make_unique<FlowSet>(*topo, specs);
    graph = std::make_unique<ContentionGraph>(*topo, *flows);
  }
  Rng rng;
  std::unique_ptr<Topology> topo;
  std::unique_ptr<FlowSet> flows;
  std::unique_ptr<ContentionGraph> graph;
};

class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// A necessary condition for max-min, checked against the graph's own
/// maximal cliques: every variable (a flow, or a subflow when
/// `per_subflow`) either sits at its cap (1 when `caps` is empty) or lies
/// in a clique row loaded to at least 1 − 1e-6 — otherwise it could still
/// rise. Returns the variables that violate it.
std::vector<int> unbottlenecked(const ContentionGraph& g, bool per_subflow,
                                const MaxMinResult& r, const std::vector<double>& caps = {}) {
  const FlowSet& flows = g.flows();
  const std::vector<double>& x =
      per_subflow ? r.allocation.subflow_share : r.allocation.flow_share;
  const std::size_t n = x.size();
  std::vector<double> best_row(n, 0.0);
  for (const auto& clique : maximal_cliques(g)) {
    std::vector<int> row(n, 0);
    for (int v : clique) ++row[static_cast<std::size_t>(per_subflow ? v : flows.subflow(v).flow)];
    double load = 0.0;
    for (std::size_t i = 0; i < n; ++i) load += row[i] * x[i];
    for (std::size_t i = 0; i < n; ++i)
      if (row[i] > 0) best_row[i] = std::max(best_row[i], load);
  }
  std::vector<int> out;
  for (std::size_t i = 0; i < n; ++i) {
    const double cap = caps.empty() ? 1.0 : std::min(1.0, caps[i]);
    if (x[i] < cap - 1e-6 && best_row[i] < 1.0 - 1e-6) out.push_back(static_cast<int>(i));
  }
  return out;
}

TEST_P(MaxMinProperty, CapsAreRespectedAndFeasible) {
  RandomCase c(GetParam());
  std::vector<double> caps;
  for (FlowId f = 0; f < c.flows->flow_count(); ++f)
    caps.push_back(c.rng.uniform(0.05, 0.6));
  const auto r = maxmin_allocate(*c.graph, caps);
  for (FlowId f = 0; f < c.flows->flow_count(); ++f) {
    EXPECT_LE(r.allocation.flow_share[f], caps[static_cast<std::size_t>(f)] + kTol);
    EXPECT_GE(r.allocation.flow_share[f], -kTol);
  }
  EXPECT_TRUE(satisfies_clique_capacity(*c.graph, r.allocation.subflow_share, 1e-5));
}

TEST_P(MaxMinProperty, SlackCapsAreNoOps) {
  // Caps above the whole channel cannot bind: the allocation must match
  // the uncapped one exactly. (Note: *binding* caps can raise other flows'
  // shares — capping a clique hog frees capacity — so no pointwise
  // monotonicity is asserted for tight caps.)
  RandomCase c(GetParam());
  const auto uncapped = maxmin_allocate(*c.graph);
  const std::vector<double> slack(static_cast<std::size_t>(c.flows->flow_count()), 2.0);
  const auto capped = maxmin_allocate(*c.graph, slack);
  for (FlowId f = 0; f < c.flows->flow_count(); ++f) {
    EXPECT_NEAR(capped.allocation.flow_share[f], uncapped.allocation.flow_share[f],
                1e-5);
    EXPECT_FALSE(capped.capped[static_cast<std::size_t>(f)]);
  }
}

TEST_P(MaxMinProperty, UncappedLexicographicallyDominatesBasic) {
  RandomCase c(GetParam());
  const auto r = maxmin_allocate(*c.graph);
  const auto basic = basic_shares(*c.graph);
  for (FlowId f = 0; f < c.flows->flow_count(); ++f)
    EXPECT_GE(r.allocation.flow_share[f], basic[f] - kTol);
}

TEST_P(MaxMinProperty, FrozenLevelsAreNonDecreasingInWeightOrder) {
  // All flows frozen at the same water level or above the first one: the
  // minimum normalized level equals the first freeze level.
  RandomCase c(GetParam());
  const auto r = maxmin_allocate(*c.graph);
  double min_level = 1e300;
  for (double l : r.level) min_level = std::min(min_level, l);
  for (FlowId f = 0; f < c.flows->flow_count(); ++f) {
    const double norm =
        r.allocation.flow_share[f] / c.flows->flow(f).weight;
    EXPECT_GE(norm, min_level - kTol);
  }
}

TEST_P(MaxMinProperty, StrictFairMatchesPropOneOnRandomNets) {
  RandomCase c(GetParam());
  const auto r = strict_fair_allocate(*c.graph);
  EXPECT_NEAR(r.per_unit_share, 1.0 / weighted_clique_number(*c.graph), kTol);
  // Strict-fair total <= centralized basic-fair total.
  const auto ce = centralized_allocate(*c.graph);
  ASSERT_EQ(ce.status, LpStatus::kOptimal);
  EXPECT_LE(r.allocation.total_effective, ce.allocation.total_effective + 1e-5);
  // κ scaling is always in (0, 1].
  EXPECT_GT(r.schedulable_fraction, 0.0);
  EXPECT_LE(r.schedulable_fraction, 1.0 + kTol);
}

TEST_P(MaxMinProperty, FluidPredictionInternallyConsistent) {
  RandomCase c(GetParam());
  const auto ce = centralized_allocate(*c.graph);
  ASSERT_EQ(ce.status, LpStatus::kOptimal);
  MacConfig mac;
  const auto p = fluid_predict(*c.flows, ce.allocation, 150.0, 512, mac, 31);
  double total = 0.0;
  for (FlowId f = 0; f < c.flows->flow_count(); ++f) {
    // Flow rate equals its last subflow's rate and is the min over hops.
    const int last = c.flows->subflow_index(f, c.flows->flow(f).length() - 1);
    EXPECT_NEAR(p.flow_rate[f], p.subflow_rate[static_cast<std::size_t>(last)], 1e-9);
    for (int h = 0; h < c.flows->flow(f).length(); ++h)
      EXPECT_LE(p.flow_rate[f],
                p.subflow_rate[static_cast<std::size_t>(c.flows->subflow_index(f, h))] + 1e-9);
    EXPECT_LE(p.flow_rate[f], 150.0 + 1e-9);
    total += p.flow_rate[f];
  }
  EXPECT_NEAR(p.total_flow_rate, total, 1e-9);
  // Equalized 2PA shares produce zero predicted in-network loss.
  EXPECT_NEAR(p.loss_rate, 0.0, 1e-9);
}

TEST_P(MaxMinProperty, EveryShareIsCappedOrBottlenecked) {
  RandomCase c(GetParam());
  EXPECT_EQ(unbottlenecked(*c.graph, false, maxmin_allocate(*c.graph)), std::vector<int>{});
  EXPECT_EQ(unbottlenecked(*c.graph, true, maxmin_allocate_subflows(*c.graph)),
            std::vector<int>{});
  std::vector<double> caps;
  for (FlowId f = 0; f < c.flows->flow_count(); ++f) caps.push_back(c.rng.uniform(0.05, 0.6));
  EXPECT_EQ(unbottlenecked(*c.graph, false, maxmin_allocate(*c.graph, caps), caps),
            std::vector<int>{});
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(MaxMinBottleneck, ManySubflowsInOneCliqueAllRise) {
  // Twelve subflows, eleven of them in one clique: a level used to fix no
  // variable (each one's headroom was the floors' tolerance slack, above
  // the fixing threshold), and freezing every free variable then left
  // subflow 11 at 0.046 with its only clique row loaded to 0.78.
  GenConfig gen;
  gen.max_flows = 8;
  gen.p_faults = 0.0;
  gen.p_loss = 0.0;
  const Scenario sc = generate_scenario(731, gen);
  const FlowSet flows(sc.topo, sc.flow_specs);
  const ContentionGraph g(sc.topo, flows);
  const MaxMinResult r = maxmin_allocate_subflows(g);
  EXPECT_EQ(unbottlenecked(g, true, r), std::vector<int>{});
  ASSERT_EQ(r.allocation.subflow_share.size(), 12u);
  EXPECT_NEAR(r.allocation.subflow_share[11], 0.2697, 1e-4);
  EXPECT_TRUE(satisfies_clique_capacity(g, r.allocation.subflow_share));
}

TEST(MaxMinBottleneck, Scenario1Subflows) {
  const Scenario sc = scenario1();
  const FlowSet flows(sc.topo, sc.flow_specs);
  const ContentionGraph g(sc.topo, flows);
  EXPECT_EQ(unbottlenecked(g, true, maxmin_allocate_subflows(g)), std::vector<int>{});
}


// ---------- distributed phase-1 sweep (random weighted topologies) ----------

// What the Sec. IV-B distributed solve *does* guarantee on arbitrary
// topologies, asserted over a 50-seed sweep: every flow keeps the floor its
// own local LP promised (w_i times the local basic unit share, scaled by the
// local relaxation), the global basic floor holds whenever no local
// relaxation was needed (the local unit share can only exceed the global
// one), and the combined shares stay inside the documented clique-load
// envelope. The companion test runs the same sweep through the packet
// simulator under the full invariant oracle for both distributed variants.
class DistributedAllocProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistributedAllocProperty, FloorAndCliqueEnvelopeHoldOnRandomNets) {
  GenConfig gen;
  gen.p_faults = 0.0;
  gen.p_loss = 0.0;
  const Scenario sc = generate_scenario(GetParam(), gen);
  const FlowSet flows(sc.topo, sc.flow_specs);
  const ContentionGraph graph(sc.topo, flows);
  const DistributedResult r = distributed_allocate(sc.topo, flows, graph);

  EXPECT_LE(max_clique_load(graph, r.allocation.subflow_share),
            kDistributedCliqueEnvelope + kTol);

  const std::vector<double> global_floor = basic_shares(graph);
  for (FlowId f = 0; f < flows.flow_count(); ++f) {
    const LocalProblem& lp = r.locals[static_cast<std::size_t>(f)];
    const double local_floor =
        flows.flow(f).weight * lp.unit_basic * lp.min_relaxation;
    EXPECT_GE(r.allocation.flow_share[static_cast<std::size_t>(f)],
              local_floor - kTol)
        << "seed " << GetParam() << " flow " << f;
    if (lp.min_relaxation >= 1.0 - kTol) {
      EXPECT_GE(r.allocation.flow_share[static_cast<std::size_t>(f)],
                global_floor[static_cast<std::size_t>(f)] - kTol)
          << "seed " << GetParam() << " flow " << f;
    }
  }
}

TEST_P(DistributedAllocProperty, PacketSimVariantsPassThePhase1Oracle) {
  GenConfig gen;
  gen.p_faults = 0.0;
  gen.p_loss = 0.0;
  const Scenario sc = generate_scenario(GetParam() + 5000, gen);
  for (Protocol proto :
       {Protocol::k2paDistributed, Protocol::k2paDistributedCtrl}) {
    CheckContext check;
    SimConfig cfg;
    cfg.sim_seconds = 0.3;
    cfg.warmup_seconds = 0.2;
    cfg.check = &check;
    const RunResult r = run_scenario(sc, proto, cfg);
    EXPECT_TRUE(r.has_target);
    EXPECT_TRUE(check.ok()) << to_string(proto) << " seed " << GetParam()
                            << "\n" << check.report();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributedAllocProperty,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------- dynamic-run determinism ----------

class DynamicDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicDeterminism, IdenticalConfigsIdenticalResults) {
  Scenario sc = scenario1();
  sc.activity = {{0.0, 1e300}, {5.0, 12.0}};
  SimConfig cfg;
  cfg.sim_seconds = 15.0;
  cfg.seed = GetParam();
  const RunResult a = run_scenario(sc, Protocol::k2paDistributed, cfg);
  const RunResult b = run_scenario(sc, Protocol::k2paDistributed, cfg);
  EXPECT_EQ(a.delivered_per_subflow, b.delivered_per_subflow);
  EXPECT_EQ(a.lost_packets, b.lost_packets);
  EXPECT_EQ(a.epoch_flow_share, b.epoch_flow_share);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicDeterminism, ::testing::Values(1, 42, 777));

}  // namespace
}  // namespace e2efa
