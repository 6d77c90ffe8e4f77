// Tests for MAC extensions and edge cases: basic access (no RTS/CTS),
// backoff policies, EIFS/NAV behavior, and forwarding-plane duplicate
// suppression.
#include <gtest/gtest.h>

#include <memory>

#include "mac/backoff.hpp"
#include "mac/dcf_mac.hpp"
#include "net/node_stack.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "sched/fifo_queue.hpp"
#include "sched/tag_scheduler.hpp"
#include "topology/builders.hpp"

namespace e2efa {
namespace {

// ---------- backoff policies ----------

TEST(BebBackoff, WithinWindow) {
  Rng rng(1);
  BebBackoff b(31, 1023);
  for (int retries = 0; retries < 10; ++retries) {
    for (int i = 0; i < 200; ++i) {
      const int v = b.draw_slots(rng, retries, 0);
      EXPECT_GE(v, 0);
      EXPECT_LE(v, 1023);
      if (retries == 0) {
        EXPECT_LE(v, 31);
      }
    }
  }
}

TEST(BebBackoff, WindowDoubles) {
  // Empirically the mean of draws at retries=2 is ~4x the retries=0 mean.
  Rng rng(2);
  BebBackoff b(31, 1023);
  double m0 = 0, m2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) m0 += b.draw_slots(rng, 0, 0);
  for (int i = 0; i < n; ++i) m2 += b.draw_slots(rng, 2, 0);
  EXPECT_NEAR(m2 / m0, (127.0 / 2) / (31.0 / 2), 0.35);
}

TEST(BebBackoff, CapsAtCwMax) {
  Rng rng(3);
  BebBackoff b(31, 255);
  for (int i = 0; i < 500; ++i) EXPECT_LE(b.draw_slots(rng, 12, 0), 255);
}

TEST(BebBackoff, RejectsBadConfig) {
  EXPECT_THROW(BebBackoff(0, 1023), ContractViolation);
  EXPECT_THROW(BebBackoff(31, 15), ContractViolation);
  Rng rng(1);
  BebBackoff b(31, 1023);
  EXPECT_THROW(b.draw_slots(rng, -1, 0), ContractViolation);
}

TEST(TagBackoff, StretchesWithLag) {
  // Scheduler far ahead of its neighbor => Q large => draws reach past
  // CWmin.
  TagScheduler sched({{0, 0.5}}, 10, /*alpha=*/0.01);
  for (int i = 0; i < 20; ++i) {
    Packet p;
    p.subflow = 0;
    p.payload_bytes = 512;
    p.seq = i;
    sched.enqueue(p, 0);
    sched.pop_success(0);
  }
  sched.observe_tag(9, 0.0, 0);  // neighbor stuck at tag 0
  Packet p;
  p.subflow = 0;
  p.payload_bytes = 512;
  sched.enqueue(p, 0);
  ASSERT_GT(sched.q_slots(0), 100.0);

  Rng rng(4);
  TagBackoff b(31, 1023, sched);
  int above_cwmin = 0;
  for (int i = 0; i < 200; ++i) above_cwmin += b.draw_slots(rng, 0, 0) > 31 ? 1 : 0;
  EXPECT_GT(above_cwmin, 100);  // most draws exceed the base window
}

TEST(TagBackoff, NoLagBehavesLikeCwMin) {
  TagScheduler sched({{0, 0.5}}, 10, 0.01);
  Rng rng(5);
  TagBackoff b(31, 1023, sched);
  for (int i = 0; i < 300; ++i) EXPECT_LE(b.draw_slots(rng, 0, 0), 31);
}

// ---------- basic access (no RTS/CTS) ----------

TEST(BasicAccess, DeliversWithoutRtsCts) {
  Simulator sim;
  Topology topo = make_chain(2);
  Channel channel(sim, topo);
  Rng master(7);
  FifoQueue q0(50), q1(50);
  BebBackoff b0(31, 1023), b1(31, 1023);
  class Cb : public MacCallbacks {
   public:
    void on_packet_delivered(const Packet& p) override { delivered.push_back(p); }
    void on_packet_sent(const Packet&) override {}
    void on_packet_dropped(const Packet&) override {}
    std::vector<Packet> delivered;
  } cb0, cb1;
  MacConfig cfg;
  cfg.use_rts_cts = false;
  DcfMac m0(sim, channel, 0, cfg, q0, b0, cb0, master.split());
  DcfMac m1(sim, channel, 1, cfg, q1, b1, cb1, master.split());

  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.src = 0;
    p.dst = 1;
    p.seq = i;
    p.payload_bytes = 512;
    q0.enqueue(p, 0);
  }
  m0.notify_queue_nonempty();
  sim.run();
  EXPECT_EQ(cb1.delivered.size(), 10u);
  EXPECT_EQ(m0.stats().rts_sent, 0u);   // no handshake frames at all
  EXPECT_EQ(m1.stats().cts_sent, 0u);
  EXPECT_EQ(m0.stats().data_sent, 10u);
  EXPECT_EQ(m1.stats().ack_sent, 10u);
}

TEST(BasicAccess, RunnerOptionWorks) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  cfg.use_rts_cts = false;
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  EXPECT_GT(r.total_end_to_end, 0);
}

TEST(BasicAccess, HiddenTerminalWastesMoreAirtime) {
  const Scenario sc = scenario1();
  SimConfig rts, basic;
  rts.sim_seconds = basic.sim_seconds = 20.0;
  basic.use_rts_cts = false;
  const RunResult a = run_scenario(sc, Protocol::k2paCentralized, rts);
  const RunResult b = run_scenario(sc, Protocol::k2paCentralized, basic);
  EXPECT_GT(b.channel.bytes_corrupted, a.channel.bytes_corrupted);
}

// ---------- channel corrupted-bytes accounting ----------

TEST(ChannelStats, BytesCorruptedTracked) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  const RunResult r = run_scenario(sc, Protocol::k80211, cfg);
  EXPECT_GT(r.channel.frames_corrupted, 0u);
  EXPECT_GT(r.channel.bytes_corrupted, r.channel.frames_corrupted);  // > 1 B/frame
}

// ---------- forwarding-plane duplicate suppression ----------

struct StackFixture {
  StackFixture()
      : topo(make_chain(3)),
        flows(topo, make_specs()),
        sim(),
        channel(sim, topo),
        stats(flows) {
    Rng master(1);
    // Node 1 is the relay under test.
    stack = std::make_unique<NodeStack>(
        sim, channel, 1, flows, stats, MacConfig{}, std::make_unique<FifoQueue>(50),
        std::make_unique<BebBackoff>(31, 1023), master.split(), nullptr);
  }
  static std::vector<Flow> make_specs() {
    Flow f;
    f.path = {0, 1, 2};
    return {f};
  }
  Topology topo;
  FlowSet flows;
  Simulator sim;
  Channel channel;
  TrafficStats stats;
  std::unique_ptr<NodeStack> stack;
};

TEST(NodeStack, DuplicateDeliveriesSuppressed) {
  StackFixture fx;
  Packet p;
  p.flow = 0;
  p.hop = 0;
  p.subflow = 0;
  p.seq = 5;
  p.src = 0;
  p.dst = 1;
  p.payload_bytes = 512;
  fx.stack->on_packet_delivered(p);
  fx.stack->on_packet_delivered(p);  // retry duplicate (lost ACK)
  EXPECT_EQ(fx.stats.subflow(0).delivered, 1);
  EXPECT_EQ(fx.stats.subflow(1).enqueued, 1);  // forwarded exactly once
}

TEST(NodeStack, OutOfOrderOldSequenceIgnored) {
  StackFixture fx;
  Packet p;
  p.flow = 0;
  p.hop = 0;
  p.subflow = 0;
  p.src = 0;
  p.dst = 1;
  p.payload_bytes = 512;
  p.seq = 7;
  fx.stack->on_packet_delivered(p);
  p.seq = 3;  // stale
  fx.stack->on_packet_delivered(p);
  EXPECT_EQ(fx.stats.subflow(0).delivered, 1);
}

TEST(NodeStack, WrongDestinationAsserts) {
  StackFixture fx;
  Packet p;
  p.flow = 0;
  p.hop = 0;
  p.subflow = 0;
  p.src = 0;
  p.dst = 2;  // not this stack's node
  EXPECT_THROW(fx.stack->on_packet_delivered(p), ContractViolation);
}

// ---------- window sampling ----------

TEST(WindowSampling, ProducesWindows) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  cfg.metrics_period_seconds = 2.0;
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  ASSERT_EQ(r.metrics.samples.size(), 10u);
  std::int64_t sum = 0;
  for (const MetricsSample& s : r.metrics.samples) {
    ASSERT_EQ(s.flow_delivered.size(), 2u);
    sum += s.flow_delivered[0] + s.flow_delivered[1];
  }
  // Window deltas add up to (nearly) the final totals; the last window
  // boundary coincides with the horizon.
  EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(r.total_end_to_end),
              static_cast<double>(r.total_end_to_end) * 0.02 + 20);
}

TEST(WindowSampling, DisabledByDefault) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 5.0;
  const RunResult r = run_scenario(sc, Protocol::k80211, cfg);
  EXPECT_TRUE(r.metrics.samples.empty());
}

}  // namespace
}  // namespace e2efa
