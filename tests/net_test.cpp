// Integration tests: full phase-1 + phase-2 runs on the paper topologies
// (shortened horizons) asserting the qualitative results of Tables II/III.
#include <gtest/gtest.h>

#include "net/runner.hpp"
#include "net/scenarios.hpp"

namespace e2efa {
namespace {

SimConfig quick_cfg(double seconds = 60.0, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.sim_seconds = seconds;
  cfg.seed = seed;
  return cfg;
}

// Cache results: the fixture topologies are static, runs are deterministic.
const RunResult& s1(Protocol p) {
  static const Scenario sc = scenario1();
  static std::map<Protocol, RunResult> cache;
  auto it = cache.find(p);
  if (it == cache.end()) it = cache.emplace(p, run_scenario(sc, p, quick_cfg())).first;
  return it->second;
}

const RunResult& s2(Protocol p) {
  static const Scenario sc = scenario2();
  static std::map<Protocol, RunResult> cache;
  auto it = cache.find(p);
  if (it == cache.end()) it = cache.emplace(p, run_scenario(sc, p, quick_cfg())).first;
  return it->second;
}

double ratio(std::int64_t a, std::int64_t b) {
  return static_cast<double>(a) / static_cast<double>(b);
}

// ---------- Scenario 1 (Table II shapes) ----------

TEST(Scenario1, TargetsMatchPaper) {
  const RunResult& r = s1(Protocol::k2paCentralized);
  ASSERT_TRUE(r.has_target);
  EXPECT_NEAR(r.target_flow_share[0], 0.5, 1e-6);
  EXPECT_NEAR(r.target_flow_share[1], 0.25, 1e-6);
  const RunResult& tt = s1(Protocol::kTwoTier);
  EXPECT_NEAR(tt.target_subflow_share[0], 0.75, 1e-6);
  EXPECT_NEAR(tt.target_subflow_share[1], 0.25, 1e-6);
  EXPECT_NEAR(tt.target_subflow_share[2], 0.375, 1e-6);
  EXPECT_NEAR(tt.target_subflow_share[3], 0.375, 1e-6);
}

TEST(Scenario1, TwoPaTracksAllocatedShares) {
  const RunResult& r = s1(Protocol::k2paCentralized);
  // Paper: throughput ratios approximate 1/2 : 1/2 : 1/4 : 1/4.
  EXPECT_NEAR(ratio(r.delivered_per_subflow[0], r.delivered_per_subflow[2]), 2.0, 0.3);
  EXPECT_NEAR(ratio(r.delivered_per_subflow[1], r.delivered_per_subflow[3]), 2.0, 0.3);
  // Upstream and downstream of F1 nearly equal (no relay pile-up).
  EXPECT_NEAR(ratio(r.delivered_per_subflow[0], r.delivered_per_subflow[1]), 1.0, 0.1);
  // F2's two hops equal.
  EXPECT_NEAR(ratio(r.delivered_per_subflow[2], r.delivered_per_subflow[3]), 1.0, 0.05);
}

TEST(Scenario1, TwoPaLowLoss) {
  const RunResult& r = s1(Protocol::k2paCentralized);
  EXPECT_LT(r.loss_ratio, 0.05);
}

TEST(Scenario1, TwoTierRelayImbalance) {
  // The paper's central criticism: two-tier allocates 3x more to F1.1 than
  // F1.2, so the relay overflows.
  const RunResult& r = s1(Protocol::kTwoTier);
  EXPECT_GT(ratio(r.delivered_per_subflow[0], r.delivered_per_subflow[1]), 2.0);
  EXPECT_GT(r.lost_packets, 10 * s1(Protocol::k2paCentralized).lost_packets);
}

TEST(Scenario1, Dcf80211StarvesMultihopFlow) {
  const RunResult& r = s1(Protocol::k80211);
  // F1's end-to-end throughput collapses; F2 dominates.
  EXPECT_LT(ratio(r.end_to_end_per_flow[0], r.end_to_end_per_flow[1]), 0.25);
  EXPECT_GT(r.loss_ratio, s1(Protocol::kTwoTier).loss_ratio);
}

TEST(Scenario1, TwoPaBeatsTwoTierTotalEffective) {
  EXPECT_GT(s1(Protocol::k2paCentralized).total_end_to_end,
            s1(Protocol::kTwoTier).total_end_to_end);
}

TEST(Scenario1, LossOrderingMatchesPaper) {
  EXPECT_LT(s1(Protocol::k2paCentralized).loss_ratio, s1(Protocol::kTwoTier).loss_ratio);
  EXPECT_LT(s1(Protocol::kTwoTier).loss_ratio, s1(Protocol::k80211).loss_ratio);
}

TEST(Scenario1, EndToEndEqualsLastSubflow) {
  for (Protocol p : {Protocol::k80211, Protocol::kTwoTier, Protocol::k2paCentralized}) {
    const RunResult& r = s1(p);
    EXPECT_EQ(r.end_to_end_per_flow[0], r.delivered_per_subflow[1]);
    EXPECT_EQ(r.end_to_end_per_flow[1], r.delivered_per_subflow[3]);
    EXPECT_EQ(r.total_end_to_end, r.end_to_end_per_flow[0] + r.end_to_end_per_flow[1]);
  }
}

TEST(Scenario1, SubflowMonotoneAlongPath) {
  // A downstream hop can never deliver more than its upstream hop.
  for (Protocol p : {Protocol::k80211, Protocol::kTwoTier, Protocol::k2paCentralized}) {
    const RunResult& r = s1(p);
    EXPECT_LE(r.delivered_per_subflow[1], r.delivered_per_subflow[0]);
    EXPECT_LE(r.delivered_per_subflow[3], r.delivered_per_subflow[2]);
  }
}

TEST(Scenario1, LostPacketsIdentity) {
  // lost = Σ_i (first-hop delivered − end-to-end delivered) — the identity
  // Table II's numbers satisfy.
  for (Protocol p : {Protocol::k80211, Protocol::kTwoTier, Protocol::k2paCentralized}) {
    const RunResult& r = s1(p);
    const std::int64_t expect = (r.delivered_per_subflow[0] - r.end_to_end_per_flow[0]) +
                                (r.delivered_per_subflow[2] - r.end_to_end_per_flow[1]);
    EXPECT_EQ(r.lost_packets, expect);
  }
}

TEST(Scenario1, DeterministicAcrossRuns) {
  const Scenario sc = scenario1();
  const RunResult a = run_scenario(sc, Protocol::k2paCentralized, quick_cfg(20.0, 99));
  const RunResult b = run_scenario(sc, Protocol::k2paCentralized, quick_cfg(20.0, 99));
  EXPECT_EQ(a.delivered_per_subflow, b.delivered_per_subflow);
  EXPECT_EQ(a.lost_packets, b.lost_packets);
  const RunResult c = run_scenario(sc, Protocol::k2paCentralized, quick_cfg(20.0, 100));
  EXPECT_NE(a.delivered_per_subflow, c.delivered_per_subflow);
}

// ---------- Scenario 2 (Table III shapes) ----------

TEST(Scenario2, TargetsMatchPaper) {
  const RunResult& c = s2(Protocol::k2paCentralized);
  const std::vector<double> expect_c = {1.0 / 3, 1.0 / 3, 2.0 / 3, 1.0 / 8, 3.0 / 4};
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(c.target_flow_share[i], expect_c[i], 1e-6);
  const RunResult& d = s2(Protocol::k2paDistributed);
  const std::vector<double> expect_d = {1.0 / 3, 1.0 / 5, 1.0 / 4, 1.0 / 4, 1.0 / 2};
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(d.target_flow_share[i], expect_d[i], 1e-6);
}

TEST(Scenario2, CentralizedTracksShares) {
  const RunResult& r = s2(Protocol::k2paCentralized);
  // r̂3 : r̂1 = 2 : 1 and r̂2 : r̂1 = 1 : 1 (targets 2/3, 1/3, 1/3).
  EXPECT_NEAR(ratio(r.end_to_end_per_flow[2], r.end_to_end_per_flow[0]), 2.0, 0.35);
  EXPECT_NEAR(ratio(r.end_to_end_per_flow[1], r.end_to_end_per_flow[0]), 1.0, 0.2);
  // F4 is pinned to its basic share 1/8 — by far the smallest.
  for (FlowId f : {0, 1, 2, 4})
    EXPECT_GT(r.end_to_end_per_flow[f], 2 * r.end_to_end_per_flow[3]);
}

TEST(Scenario2, DistributedTracksShares) {
  const RunResult& r = s2(Protocol::k2paDistributed);
  // Targets (1/3, 1/5, 1/4, 1/4, 1/2): check the salient ratios.
  EXPECT_NEAR(ratio(r.end_to_end_per_flow[0], r.end_to_end_per_flow[1]), 5.0 / 3.0, 0.3);
  EXPECT_NEAR(ratio(r.end_to_end_per_flow[4], r.end_to_end_per_flow[2]), 2.0, 0.4);
  EXPECT_NEAR(ratio(r.end_to_end_per_flow[2], r.end_to_end_per_flow[3]), 1.0, 0.2);
}

TEST(Scenario2, MultihopSubflowsBalancedUnder2pa) {
  const RunResult& r = s2(Protocol::k2paCentralized);
  // F1's four hops should deliver nearly equal counts (equalized shares).
  for (int s = 1; s < 4; ++s)
    EXPECT_NEAR(ratio(r.delivered_per_subflow[s], r.delivered_per_subflow[0]), 1.0, 0.1);
}

TEST(Scenario2, CentralizedBeatsTwoTierAndDistributed) {
  // Paper: 2PA-C total > two-tier total; 2PA-D (partial knowledge) lower
  // than 2PA-C.
  EXPECT_GT(s2(Protocol::k2paCentralized).total_end_to_end,
            s2(Protocol::kTwoTier).total_end_to_end);
  EXPECT_GT(s2(Protocol::k2paCentralized).total_end_to_end,
            s2(Protocol::k2paDistributed).total_end_to_end);
}

TEST(Scenario2, LossOrdering) {
  EXPECT_LE(s2(Protocol::k2paDistributed).loss_ratio,
            s2(Protocol::k2paCentralized).loss_ratio + 0.01);
  EXPECT_LT(s2(Protocol::k2paCentralized).loss_ratio, s2(Protocol::kTwoTier).loss_ratio);
  EXPECT_LT(s2(Protocol::k2paCentralized).loss_ratio, s2(Protocol::k80211).loss_ratio);
}

TEST(Scenario2, TwoPaLossTiny) {
  EXPECT_LT(s2(Protocol::k2paCentralized).loss_ratio, 0.02);
  EXPECT_LT(s2(Protocol::k2paDistributed).loss_ratio, 0.02);
}

TEST(Scenario2, FlowCountsConsistent) {
  for (Protocol p : {Protocol::k80211, Protocol::kTwoTier, Protocol::k2paCentralized,
                     Protocol::k2paDistributed}) {
    const RunResult& r = s2(p);
    ASSERT_EQ(r.delivered_per_subflow.size(), 9u);
    ASSERT_EQ(r.end_to_end_per_flow.size(), 5u);
    // Every flow should move at least some packets in 60 s.
    for (std::int64_t v : r.end_to_end_per_flow) EXPECT_GT(v, 0);
    // Chain monotonicity for F1 and F4.
    EXPECT_LE(r.delivered_per_subflow[1], r.delivered_per_subflow[0]);
    EXPECT_LE(r.delivered_per_subflow[2], r.delivered_per_subflow[1]);
    EXPECT_LE(r.delivered_per_subflow[3], r.delivered_per_subflow[2]);
    EXPECT_LE(r.delivered_per_subflow[7], r.delivered_per_subflow[6]);
  }
}

TEST(Scenario2, MeasuredShareHelperConsistent) {
  const RunResult& r = s2(Protocol::k2paCentralized);
  const SimConfig cfg = quick_cfg();
  const double share = r.measured_subflow_share(5, cfg.payload_bytes);
  // F3's measured share should be positive and below its 2/3 target.
  EXPECT_GT(share, 0.1);
  EXPECT_LT(share, 0.67);
}

// ---------- CBR sanity through the runner ----------

TEST(Runner, OfferedLoadBoundsDeliveries) {
  const RunResult& r = s1(Protocol::k2paCentralized);
  // No subflow can deliver more than the offered load (200 pkt/s * 60 s).
  for (std::int64_t v : r.delivered_per_subflow) EXPECT_LE(v, 12000);
}

TEST(Runner, ChannelStatsPopulated) {
  const RunResult& r = s1(Protocol::k2paCentralized);
  EXPECT_GT(r.channel.frames_transmitted, 0u);
  EXPECT_GT(r.channel.frames_delivered, 0u);
}

}  // namespace
}  // namespace e2efa
