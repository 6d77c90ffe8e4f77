// Tests for runner extensions: warm-up windows, delay metrics, the
// additional protocols (two-tier-mm, maxmin) and the phase-1 fallback
// counts.
#include <gtest/gtest.h>

#include "alloc/distributed.hpp"
#include "contention/contention_graph.hpp"
#include "net/cli.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"

namespace e2efa {
namespace {

TEST(Warmup, ExcludesTransient) {
  const Scenario sc = scenario1();
  SimConfig with;
  with.sim_seconds = 20.0;
  with.warmup_seconds = 20.0;
  SimConfig without;
  without.sim_seconds = 40.0;
  const RunResult a = run_scenario(sc, Protocol::k2paCentralized, with);
  const RunResult b = run_scenario(sc, Protocol::k2paCentralized, without);
  // Same total horizon; the warmed-up run counts roughly half the packets.
  EXPECT_LT(a.total_end_to_end, b.total_end_to_end);
  EXPECT_GT(a.total_end_to_end, b.total_end_to_end / 3);
  // Steady state is cleaner than the transient: lower loss ratio.
  EXPECT_LE(a.loss_ratio, b.loss_ratio + 1e-9);
}

TEST(Warmup, ZeroWarmupIsDefaultBehavior) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  SimConfig explicit_zero = cfg;
  explicit_zero.warmup_seconds = 0.0;
  const RunResult a = run_scenario(sc, Protocol::k80211, cfg);
  const RunResult b = run_scenario(sc, Protocol::k80211, explicit_zero);
  EXPECT_EQ(a.delivered_per_subflow, b.delivered_per_subflow);
}

TEST(Delay, PopulatedAndPositive) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  ASSERT_EQ(r.mean_delay_s.size(), 2u);
  for (FlowId f = 0; f < 2; ++f) {
    EXPECT_GT(r.mean_delay_s[f], 0.0);
    EXPECT_GE(r.max_delay_s[f], r.mean_delay_s[f]);
    // A packet needs at least its per-hop airtime: > 2 ms for 2 hops.
    EXPECT_GT(r.mean_delay_s[f], 0.002);
    // And queues are bounded, so delay is bounded by ~capacity / service.
    EXPECT_LT(r.max_delay_s[f], 30.0);
  }
}

TEST(Delay, StarvedFlowHasLargeDelayUnder80211) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 30.0;
  const RunResult dcf = run_scenario(sc, Protocol::k80211, cfg);
  const RunResult tpa = run_scenario(sc, Protocol::k2paCentralized, cfg);
  // F1 is starved under 802.11: its delivered packets waited far longer
  // than under 2PA.
  EXPECT_GT(dcf.mean_delay_s[0], 2.0 * tpa.mean_delay_s[0]);
}

TEST(TwoTierBalanced, TargetsAreSubflowMaxMin) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  const RunResult r = run_scenario(sc, Protocol::kTwoTierBalanced, cfg);
  ASSERT_TRUE(r.has_target);
  EXPECT_NEAR(r.target_subflow_share[0], 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(r.target_subflow_share[1], 1.0 / 3.0, 1e-6);
  EXPECT_NEAR(r.target_subflow_share[2], 1.0 / 3.0, 1e-6);
  EXPECT_NEAR(r.target_subflow_share[3], 1.0 / 3.0, 1e-6);
}

TEST(TwoTierBalanced, LosesLessThanLpTwoTier) {
  // The balanced variant's upstream/downstream gap (2/3 vs 1/3) is smaller
  // than the LP variant's (3/4 vs 1/4), so it overflows the relay less —
  // but still an order of magnitude more than 2PA's equalized shares.
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 40.0;
  const RunResult lp = run_scenario(sc, Protocol::kTwoTier, cfg);
  const RunResult mm = run_scenario(sc, Protocol::kTwoTierBalanced, cfg);
  const RunResult tpa = run_scenario(sc, Protocol::k2paCentralized, cfg);
  EXPECT_LT(mm.lost_packets, lp.lost_packets);
  EXPECT_GT(mm.lost_packets, 3 * tpa.lost_packets);
}

TEST(MaxMinProtocol, RunsAndIsFair) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 30.0;
  const RunResult r = run_scenario(sc, Protocol::kMaxMin, cfg);
  ASSERT_TRUE(r.has_target);
  // Max-min on Fig. 1: both flows at B/3 — equal end-to-end service.
  EXPECT_NEAR(r.target_flow_share[0], 1.0 / 3.0, 1e-6);
  EXPECT_NEAR(r.target_flow_share[1], 1.0 / 3.0, 1e-6);
  const double ratio = static_cast<double>(r.end_to_end_per_flow[0]) /
                       static_cast<double>(r.end_to_end_per_flow[1]);
  EXPECT_NEAR(ratio, 1.0, 0.25);
  EXPECT_LT(r.loss_ratio, 0.12);
}

TEST(MaxMinProtocol, LowerAnalyticTotalThan2paOnFig1) {
  // Strict equality costs total effective throughput vs basic fairness
  // (2B/3 vs 3B/4 analytically). The *measured* totals are dominated by
  // MAC efficiency and land within a few percent of each other, so the
  // ordering claim is checked on the phase-1 targets.
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 40.0;
  const RunResult mm = run_scenario(sc, Protocol::kMaxMin, cfg);
  const RunResult tpa = run_scenario(sc, Protocol::k2paCentralized, cfg);
  auto total = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  EXPECT_NEAR(total(mm.target_flow_share), 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(total(tpa.target_flow_share), 3.0 / 4.0, 1e-6);
  // Measured totals stay in the same ballpark.
  const double rel = static_cast<double>(mm.total_end_to_end) /
                     static_cast<double>(tpa.total_end_to_end);
  EXPECT_GT(rel, 0.7);
  EXPECT_LT(rel, 1.3);
}

// On Fig. 1, F1's source sees only F1 and relaxes its local floors, and
// two of its refinement LPs fail (Distributed.Scenario1IsConservative): the
// run reports exactly the sums over the local problems, and the report
// prints them, while a run where nothing falls back prints no such line.
// Under 2PA-Dctrl the agents' own solves set the rates and are counted, not
// the runner's oracle solve on top of them.
TEST(Phase1Fallbacks, CountedOverTheDistributedLocalProblems) {
  const Scenario sc = scenario1();
  const FlowSet flows(sc.topo, sc.flow_specs);
  const ContentionGraph graph(sc.topo, flows);
  Phase1Fallbacks expected;
  for (const LocalProblem& lp : distributed_allocate(sc.topo, flows, graph).locals)
    expected += lp.fallbacks();
  EXPECT_EQ(expected, (Phase1Fallbacks{0, 1, 2}));

  SimConfig cfg;
  cfg.sim_seconds = 1.0;
  const RunResult d = run_scenario(sc, Protocol::k2paDistributed, cfg);
  EXPECT_EQ(d.phase1_fallbacks, expected);
  EXPECT_NE(format_run_result(sc, d, cfg, false)
                .find("phase-1 fallbacks: 0 local LPs at the basic share, 1 with relaxed "
                      "floors, 2 refinement LP failures\n"),
            std::string::npos);
  EXPECT_EQ(run_scenario(sc, Protocol::k2paDistributedCtrl, cfg).phase1_fallbacks, expected);

  const RunResult c = run_scenario(sc, Protocol::k2paCentralized, cfg);
  EXPECT_EQ(c.phase1_fallbacks, Phase1Fallbacks{});
  EXPECT_EQ(format_run_result(sc, c, cfg, false).find("fallbacks"), std::string::npos);
}

}  // namespace
}  // namespace e2efa
