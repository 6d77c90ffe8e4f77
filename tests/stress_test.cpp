// Stress and configuration-sweep tests: larger topologies, alternative
// payloads and offered loads, and engine-level invariants under load.
#include <gtest/gtest.h>

#include "alloc/centralized.hpp"
#include "net/cli.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "phy/channel.hpp"
#include "route/routing.hpp"
#include "sim/simulator.hpp"
#include "topology/builders.hpp"

namespace e2efa {
namespace {

TEST(Stress, EventEngineHundredThousandEvents) {
  Simulator sim;
  std::uint64_t fired = 0;
  Rng rng(9);
  for (int i = 0; i < 100'000; ++i) {
    sim.schedule_at(static_cast<TimeNs>(rng.uniform_u64(1'000'000'000)), [&] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 100'000u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Stress, EventEngineCancellationStorm) {
  Simulator sim;
  Rng rng(10);
  std::vector<Simulator::EventId> ids;
  int fired = 0;
  for (int i = 0; i < 10'000; ++i)
    ids.push_back(sim.schedule_at(i + 1, [&] { ++fired; }));
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 2) cancelled += sim.cancel(ids[i]) ? 1 : 0;
  sim.run();
  EXPECT_EQ(cancelled, 5000);
  EXPECT_EQ(fired, 5000);
}

TEST(Stress, LongChainEndToEnd) {
  // A 10-hop flow: the allocation stays B/3 and packets actually traverse
  // all ten hops of pipelined MAC exchanges.
  Topology topo = make_chain(11);
  Flow f;
  for (int i = 0; i < 11; ++i) f.path.push_back(i);
  Scenario sc{"chain-10", std::move(topo), {f}, {}};
  SimConfig cfg;
  cfg.sim_seconds = 30.0;
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  EXPECT_NEAR(r.target_flow_share[0], 1.0 / 3.0, 1e-6);
  EXPECT_GT(r.end_to_end_per_flow[0], 500);
  // Pipelining: deliveries decrease monotonically along the chain but the
  // last hop still gets most of the first hop's packets.
  EXPECT_GT(r.delivered_per_subflow[9], r.delivered_per_subflow[0] / 2);
}

TEST(Stress, GridWithCrossTraffic) {
  Rng rng(1);
  const Scenario sc = make_named_scenario("grid:4x4", rng);
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  cfg.cbr_pps = 80.0;
  for (Protocol p : {Protocol::k80211, Protocol::k2paDistributed}) {
    const RunResult r = run_scenario(sc, p, cfg);
    EXPECT_GT(r.total_end_to_end, 100) << to_string(p);
    for (std::int64_t v : r.end_to_end_per_flow) EXPECT_GE(v, 0);
  }
}

class PayloadSweep : public ::testing::TestWithParam<int> {};

TEST_P(PayloadSweep, RunnerHandlesPayloadSizes) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 15.0;
  cfg.payload_bytes = GetParam();
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  EXPECT_GT(r.total_end_to_end, 0);
  EXPECT_LT(r.loss_ratio, 0.2);
  // Throughput in bytes should be higher for larger payloads (less
  // per-packet overhead), measured at the bottleneck subflow F1.2.
  // (Only sanity-checked: positive measured share below the target.)
  const double share = r.measured_subflow_share(1, cfg.payload_bytes);
  EXPECT_GT(share, 0.05);
  EXPECT_LT(share, 0.55);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSweep, ::testing::Values(64, 256, 512, 1024, 1500));

class LoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(LoadSweep, LossStaysLowUnder2paAtAnyOfferedLoad) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  cfg.warmup_seconds = 10.0;  // measure steady state, not the tag transient
  cfg.cbr_pps = GetParam();
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  // 2PA's equalized shares keep in-network loss small whether the sources
  // are far below, at, or far above their allocated rates.
  EXPECT_LT(r.loss_ratio, 0.06) << "pps=" << GetParam();
  // Deliveries never exceed offered load.
  EXPECT_LE(r.end_to_end_per_flow[0],
            static_cast<std::int64_t>(GetParam() * cfg.sim_seconds) + 1);
}

INSTANTIATE_TEST_SUITE_P(Loads, LoadSweep, ::testing::Values(20.0, 100.0, 200.0, 400.0));

TEST(Stress, ChannelAccountingConsistent) {
  const Scenario sc = scenario2();
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  for (Protocol p : {Protocol::k80211, Protocol::k2paCentralized}) {
    const RunResult r = run_scenario(sc, p, cfg);
    // Every transmitted frame is heard by at most node_count-1 receivers.
    EXPECT_LE(r.channel.frames_delivered + r.channel.frames_corrupted,
              r.channel.frames_transmitted * 13);
    EXPECT_GT(r.channel.frames_delivered, r.channel.frames_corrupted);
  }
}

TEST(Stress, ManyFlowsOneBottleneck) {
  // Six single-hop flows into one shared neighborhood: everyone gets a
  // positive, roughly equal share under 2PA.
  Scenario sc = make_abstract_scenario({1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1},
                                       "six-flows");
  // All mutually contending (single clique) — via explicit edges.
  std::vector<std::pair<int, int>> edges;
  for (int a = 0; a < 6; ++a)
    for (int b = a + 1; b < 6; ++b) edges.emplace_back(a, b);
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(flows, edges);
  const auto cliques = maximal_cliques(g);
  ASSERT_EQ(cliques.size(), 1u);
  // NOTE: the packet simulator derives contention from geometry, so we only
  // check the analytic layer here (the abstract scenario's chains are far
  // apart by construction).
  const auto alloc = centralized_allocate(g);
  ASSERT_EQ(alloc.status, LpStatus::kOptimal);
  for (double s : alloc.allocation.flow_share) EXPECT_NEAR(s, 1.0 / 6.0, 1e-6);
}

TEST(Stress, RandomScenarioAllProtocolsSmoke) {
  Rng rng(33);
  const Scenario sc = make_named_scenario("random:12", rng);
  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  for (Protocol p :
       {Protocol::k80211, Protocol::kTwoTier, Protocol::kTwoTierBalanced,
        Protocol::k2paCentralized, Protocol::k2paDistributed, Protocol::kMaxMin,
        Protocol::k2paStaticCw}) {
    const RunResult r = run_scenario(sc, p, cfg);
    EXPECT_GT(r.total_end_to_end, 0) << to_string(p);
  }
}

}  // namespace
}  // namespace e2efa
