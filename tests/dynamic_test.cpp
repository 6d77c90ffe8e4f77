// Tests for dynamic flow churn with per-epoch re-allocation.
#include <gtest/gtest.h>

#include "net/runner.hpp"
#include "net/scenarios.hpp"

namespace e2efa {
namespace {

constexpr double kTol = 1e-6;

TEST(Dynamic, AlwaysOnActivityMatchesStaticRun) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  const RunResult a = run_scenario(sc, Protocol::k2paCentralized, cfg);
  Scenario dyn = sc;
  dyn.activity = {FlowActivity{}, FlowActivity{}};
  const RunResult b = run_scenario(dyn, Protocol::k2paCentralized, cfg);
  EXPECT_EQ(a.delivered_per_subflow, b.delivered_per_subflow);
  EXPECT_EQ(a.lost_packets, b.lost_packets);
}

TEST(Dynamic, EpochSharesRecomputed) {
  // F2 joins at t = 30: F1 alone gets B/2 (its 2-hop chain), then the
  // Fig.-1 allocation (1/2, 1/4) once F2 contends.
  Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 60.0;
  sc.activity = {{0.0, 1e300}, {30.0, 1e300}};
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  ASSERT_EQ(r.epoch_starts_s.size(), 2u);
  EXPECT_DOUBLE_EQ(r.epoch_starts_s[0], 0.0);
  EXPECT_DOUBLE_EQ(r.epoch_starts_s[1], 30.0);
  EXPECT_NEAR(r.epoch_flow_share[0][0], 0.5, kTol);
  EXPECT_NEAR(r.epoch_flow_share[0][1], 0.0, kTol);  // inactive
  EXPECT_NEAR(r.epoch_flow_share[1][0], 0.5, kTol);
  EXPECT_NEAR(r.epoch_flow_share[1][1], 0.25, kTol);
}

TEST(Dynamic, LateFlowDeliversOnlyAfterStart) {
  Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 60.0;
  cfg.metrics_period_seconds = 5.0;
  sc.activity = {{0.0, 1e300}, {30.0, 1e300}};
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  const std::vector<MetricsSample>& win = r.metrics.samples;
  ASSERT_EQ(win.size(), 12u);
  // Windows before t = 30: F2 silent; after: flowing.
  for (std::size_t w = 0; w < 5; ++w) EXPECT_EQ(win[w].flow_delivered[1], 0);
  for (std::size_t w = 7; w < 12; ++w) EXPECT_GT(win[w].flow_delivered[1], 0);
}

TEST(Dynamic, DepartedFlowFreesBandwidth) {
  // F2 leaves at t = 30: F1's windowed rate should rise afterwards (it
  // re-gains the whole bottleneck clique).
  Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 60.0;
  cfg.metrics_period_seconds = 5.0;
  sc.activity = {{0.0, 1e300}, {0.0, 30.0}};
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  const std::vector<MetricsSample>& win = r.metrics.samples;
  ASSERT_EQ(win.size(), 12u);
  // Mean F1 window rate in [5, 30) vs [35, 60).
  double before = 0, after = 0;
  for (std::size_t w = 1; w < 6; ++w) before += static_cast<double>(win[w].flow_delivered[0]);
  for (std::size_t w = 7; w < 12; ++w) after += static_cast<double>(win[w].flow_delivered[0]);
  EXPECT_GT(after, before * 1.15);
  // F2 sources nothing after it stops; only its queued backlog (at most
  // two 50-deep queues plus in-flight) drains out, slowly, under the
  // epsilon share.
  std::int64_t tail_f2 = 0;
  for (std::size_t w = 7; w < 12; ++w) tail_f2 += win[w].flow_delivered[1];
  EXPECT_LE(tail_f2, 105);
}

TEST(Dynamic, WorksFor80211) {
  Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  sc.activity = {{0.0, 10.0}, {5.0, 1e300}};
  const RunResult r = run_scenario(sc, Protocol::k80211, cfg);
  EXPECT_FALSE(r.has_target);
  EXPECT_GT(r.end_to_end_per_flow[0], 0);
  EXPECT_GT(r.end_to_end_per_flow[1], 0);
  // F1 sourced ~10 s * 200 pkt/s at most.
  EXPECT_LE(r.delivered_per_subflow[0], 2000);
}

TEST(Dynamic, DistributedReallocates) {
  Scenario sc = scenario2();
  SimConfig cfg;
  cfg.sim_seconds = 30.0;
  sc.activity.resize(5);
  sc.activity[2] = {10.0, 20.0};  // F3 active only in the middle
  const RunResult r = run_scenario(sc, Protocol::k2paDistributed, cfg);
  ASSERT_EQ(r.epoch_starts_s.size(), 3u);
  // Without F3, F2 and F4 gain (F3 was their main contender).
  EXPECT_GT(r.epoch_flow_share[0][1], r.epoch_flow_share[1][1] - kTol);
  EXPECT_NEAR(r.epoch_flow_share[1][2], 0.25, kTol);  // Table-I value mid-run
  EXPECT_NEAR(r.epoch_flow_share[0][2], 0.0, kTol);
}

TEST(Dynamic, RejectsBadActivity) {
  Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  sc.activity = {FlowActivity{}};  // one window for two flows
  EXPECT_THROW(run_scenario(sc, Protocol::k80211, cfg), ContractViolation);
  sc.activity = {FlowActivity{5.0, 2.0}, FlowActivity{}};  // stops before it starts
  EXPECT_THROW(run_scenario(sc, Protocol::k80211, cfg), ContractViolation);
}

TEST(Dynamic, AllFlowsInactiveEpochIsSafe) {
  Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 30.0;
  // Nobody active until t = 10.
  sc.activity = {{10.0, 1e300}, {20.0, 1e300}};
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  EXPECT_GT(r.total_end_to_end, 0);
  EXPECT_NEAR(r.epoch_flow_share[0][0], 0.0, kTol);
  EXPECT_NEAR(r.epoch_flow_share[0][1], 0.0, kTol);
}

}  // namespace
}  // namespace e2efa
