// Determinism regression: the event-engine rewrite (pooled slab + 4-ary
// heap + SBO callbacks + single-event channel completion) must reproduce
// the seed engine's trajectories bit-for-bit. The golden values below were
// captured from the pre-rewrite engine (scenario 1, T = 5 s, seed = 1) for
// all seven protocols; any divergence in event ordering shows up as a
// different packet count somewhere in this table.
//
// Also covers: same-seed reruns are identical in every RunResult field,
// and BatchRunner produces exactly the sequential results regardless of
// thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/batch.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "run_result_testing.hpp"

namespace e2efa {
namespace {

const Protocol kAllProtocols[] = {
    Protocol::k80211,          Protocol::kTwoTier,
    Protocol::kTwoTierBalanced, Protocol::k2paCentralized,
    Protocol::k2paDistributed,  Protocol::kMaxMin,
    Protocol::k2paStaticCw,     Protocol::k2paDistributedCtrl};

SimConfig golden_config() {
  SimConfig cfg;
  cfg.sim_seconds = 5.0;
  cfg.seed = 1;
  return cfg;
}

struct Golden {
  Protocol protocol;
  std::vector<std::int64_t> delivered_per_subflow;
  std::vector<std::int64_t> end_to_end_per_flow;
  std::int64_t total_end_to_end;
  std::int64_t lost_packets;
  std::int64_t dropped_queue;
  std::int64_t dropped_mac;
  std::uint64_t frames_transmitted;
  std::uint64_t frames_delivered;
  std::uint64_t frames_corrupted;
  std::uint64_t bytes_corrupted;
};

// Captured from the seed engine at commit 877a039 (scenario1, 5 s, seed 1).
const Golden kGolden[] = {
    {Protocol::k80211,
      {1000, 50, 881, 879},
      {50, 879},
      929, 952, 926, 44,
      11925, 19245, 1112, 475664},
    {Protocol::kTwoTier,
      {995, 269, 667, 667},
      {269, 667},
      936, 726, 942, 22,
      11127, 18027, 856, 359706},
    {Protocol::kTwoTierBalanced,
      {933, 354, 600, 599},
      {354, 599},
      953, 580, 910, 24,
      10705, 17474, 790, 334510},
    {Protocol::k2paCentralized,
      {814, 528, 503, 501},
      {528, 501},
      1029, 288, 817, 23,
      10258, 16863, 707, 277362},
    {Protocol::k2paDistributed,
      {737, 450, 545, 544},
      {450, 544},
      994, 288, 888, 19,
      9996, 16546, 715, 297142},
    {Protocol::kMaxMin,
      {763, 434, 610, 605},
      {434, 605},
      1039, 334, 778, 31,
      10482, 17349, 787, 316970},
    {Protocol::k2paStaticCw,
      {1000, 215, 654, 652},
      {215, 652},
      867, 787, 1017, 15,
      10659, 17348, 791, 342654},
};

TEST(Determinism, MatchesSeedEngineGoldens) {
  const Scenario sc = scenario1();
  const SimConfig cfg = golden_config();
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(to_string(g.protocol));
    const RunResult r = run_scenario(sc, g.protocol, cfg);
    EXPECT_EQ(r.delivered_per_subflow, g.delivered_per_subflow);
    EXPECT_EQ(r.end_to_end_per_flow, g.end_to_end_per_flow);
    EXPECT_EQ(r.total_end_to_end, g.total_end_to_end);
    EXPECT_EQ(r.lost_packets, g.lost_packets);
    EXPECT_EQ(r.dropped_queue, g.dropped_queue);
    EXPECT_EQ(r.dropped_mac, g.dropped_mac);
    EXPECT_EQ(r.channel.frames_transmitted, g.frames_transmitted);
    EXPECT_EQ(r.channel.frames_delivered, g.frames_delivered);
    EXPECT_EQ(r.channel.frames_corrupted, g.frames_corrupted);
    EXPECT_EQ(r.channel.bytes_corrupted, g.bytes_corrupted);
  }
}

// Full-field equality, including bitwise-compared doubles, lives in
// run_result_testing.hpp (shared with fault/churn/transport tests):
// determinism means *identical*, not merely close.

TEST(Determinism, SameSeedSameResultAllProtocols) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 2.0;
  cfg.seed = 7;
  cfg.sample_interval_seconds = 0.5;
  cfg.metrics_period_seconds = 0.5;
  for (Protocol p : kAllProtocols) {
    SCOPED_TRACE(to_string(p));
    const RunResult a = run_scenario(sc, p, cfg);
    const RunResult b = run_scenario(sc, p, cfg);
    expect_identical(a, b);
  }
}

TEST(Determinism, BatchRunnerMatchesSequential) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 2.0;
  cfg.metrics_period_seconds = 0.5;
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};

  std::vector<RunResult> sequential;
  for (std::uint64_t s : seeds) {
    SimConfig c = cfg;
    c.seed = s;
    sequential.push_back(run_scenario(sc, Protocol::k2paCentralized, c));
  }

  for (int jobs : {1, 2, 4}) {
    SCOPED_TRACE(jobs);
    const std::vector<RunResult> batch =
        BatchRunner(jobs).run_seeds(sc, Protocol::k2paCentralized, cfg, seeds);
    ASSERT_EQ(batch.size(), sequential.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      expect_identical(batch[i], sequential[i]);
  }
}

// Fault plans (node crashes, link cuts, lossy channels) draw from a
// dedicated RNG stream derived from the run seed, so a faulted run must be
// just as reproducible as a clean one — sequentially and under BatchRunner
// at any thread count.
TEST(Determinism, FaultPlanRunsAreReproducible) {
  Scenario sc = scenario1();
  sc.faults.node_down(2, 0.6);
  sc.faults.node_up(2, 1.2);
  sc.faults.link_down(0, 1, 0.9);
  sc.faults.link_up(0, 1, 1.4);
  sc.faults.set_default_loss(0.05);

  SimConfig cfg;
  cfg.sim_seconds = 2.0;
  cfg.sample_interval_seconds = 0.5;
  cfg.metrics_period_seconds = 0.5;
  const std::vector<std::uint64_t> seeds = {7, 8, 9};

  for (Protocol p : kAllProtocols) {
    SCOPED_TRACE(to_string(p));
    const RunResult a = run_scenario(sc, p, cfg);
    const RunResult b = run_scenario(sc, p, cfg);
    EXPECT_GT(a.channel.frames_faulted, 0u);
    expect_identical(a, b);
  }

  std::vector<RunResult> sequential;
  for (std::uint64_t s : seeds) {
    SimConfig c = cfg;
    c.seed = s;
    sequential.push_back(run_scenario(sc, Protocol::k2paCentralized, c));
  }
  for (int jobs : {1, 2, 4}) {
    SCOPED_TRACE(jobs);
    const std::vector<RunResult> batch =
        BatchRunner(jobs).run_seeds(sc, Protocol::k2paCentralized, cfg, seeds);
    ASSERT_EQ(batch.size(), sequential.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      expect_identical(batch[i], sequential[i]);
  }
}

TEST(Determinism, BatchRunnerProtocolFanout) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 1.0;
  const std::vector<Protocol> protos(std::begin(kAllProtocols),
                                     std::end(kAllProtocols));
  const std::vector<RunResult> batch =
      BatchRunner(0).run_protocols(sc, protos, cfg);  // 0 = hardware threads
  ASSERT_EQ(batch.size(), protos.size());
  for (std::size_t i = 0; i < protos.size(); ++i) {
    SCOPED_TRACE(to_string(protos[i]));
    expect_identical(batch[i], run_scenario(sc, protos[i], cfg));
  }
}

}  // namespace
}  // namespace e2efa
