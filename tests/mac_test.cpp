#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/dcf_mac.hpp"
#include "sched/fifo_queue.hpp"
#include "sched/tag_scheduler.hpp"
#include "topology/builders.hpp"
#include "topology/topology.hpp"

namespace e2efa {
namespace {

class RecordingCallbacks : public MacCallbacks {
 public:
  void on_packet_delivered(const Packet& p) override { delivered.push_back(p); }
  void on_packet_sent(const Packet& p) override { sent.push_back(p); }
  void on_packet_dropped(const Packet& p) override { dropped.push_back(p); }
  std::vector<Packet> delivered, sent, dropped;
};

/// A small harness: one DcfMac + FifoQueue + BEB per node on a topology.
struct MacNet {
  explicit MacNet(Topology t, std::uint64_t seed = 42, int queue_capacity = 100)
      : topo(std::move(t)), channel(sim, topo) {
    Rng master(seed);
    for (NodeId n = 0; n < topo.node_count(); ++n) {
      queues.push_back(std::make_unique<FifoQueue>(queue_capacity));
      policies.push_back(std::make_unique<BebBackoff>(31, 1023));
      cbs.push_back(std::make_unique<RecordingCallbacks>());
      macs.push_back(std::make_unique<DcfMac>(sim, channel, n, MacConfig{}, *queues.back(),
                                              *policies.back(), *cbs.back(), master.split()));
    }
  }

  void send(NodeId from, NodeId to, std::int64_t seq, std::int32_t subflow = 0) {
    Packet p;
    p.src = from;
    p.dst = to;
    p.seq = seq;
    p.subflow = subflow;
    p.payload_bytes = 512;
    queues[static_cast<std::size_t>(from)]->enqueue(p, sim.now());
    macs[static_cast<std::size_t>(from)]->notify_queue_nonempty();
  }

  Simulator sim;
  Topology topo;
  Channel channel;
  std::vector<std::unique_ptr<FifoQueue>> queues;
  std::vector<std::unique_ptr<BebBackoff>> policies;
  std::vector<std::unique_ptr<RecordingCallbacks>> cbs;
  std::vector<std::unique_ptr<DcfMac>> macs;
};

TEST(DcfMac, SinglePacketFourWayHandshake) {
  MacNet net(make_chain(2));
  net.send(0, 1, 7);
  net.sim.run();
  ASSERT_EQ(net.cbs[1]->delivered.size(), 1u);
  EXPECT_EQ(net.cbs[1]->delivered[0].seq, 7);
  ASSERT_EQ(net.cbs[0]->sent.size(), 1u);
  EXPECT_TRUE(net.cbs[0]->dropped.empty());
  EXPECT_EQ(net.macs[0]->stats().rts_sent, 1u);
  EXPECT_EQ(net.macs[1]->stats().cts_sent, 1u);
  EXPECT_EQ(net.macs[0]->stats().data_sent, 1u);
  EXPECT_EQ(net.macs[1]->stats().ack_sent, 1u);
  EXPECT_EQ(net.macs[0]->stats().timeouts, 0u);
}

TEST(DcfMac, BackToBackPacketsAllDelivered) {
  MacNet net(make_chain(2));
  for (int i = 0; i < 20; ++i) net.send(0, 1, i);
  net.sim.run();
  ASSERT_EQ(net.cbs[1]->delivered.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(net.cbs[1]->delivered[static_cast<std::size_t>(i)].seq, i);
}

TEST(DcfMac, UnreachableDestinationDropsAfterRetries) {
  // Node 2 is out of range of node 0: RTS never answered.
  MacNet net(make_chain(3));
  net.send(0, 2, 1);
  net.sim.run();
  EXPECT_TRUE(net.cbs[2]->delivered.empty());
  ASSERT_EQ(net.cbs[0]->dropped.size(), 1u);
  EXPECT_EQ(net.macs[0]->stats().timeouts, 8u);  // retry_limit 7 + initial
  EXPECT_EQ(net.macs[0]->stats().retry_drops, 1u);
}

TEST(DcfMac, TwoContendingSendersBothSucceed) {
  // 0 -> 1 and 2 -> 1: hidden terminals (0 and 2 out of range). Collisions
  // happen but retries resolve them; everything is delivered eventually.
  MacNet net(make_chain(3));
  for (int i = 0; i < 10; ++i) {
    net.send(0, 1, i, 0);
    net.send(2, 1, i, 1);
  }
  net.sim.run();
  int from0 = 0, from2 = 0;
  for (const Packet& p : net.cbs[1]->delivered) (p.src == 0 ? from0 : from2)++;
  EXPECT_EQ(from0 + static_cast<int>(net.cbs[0]->dropped.size()), 10);
  EXPECT_EQ(from2 + static_cast<int>(net.cbs[2]->dropped.size()), 10);
  // The medium is lightly loaded; most packets should make it.
  EXPECT_GE(from0, 8);
  EXPECT_GE(from2, 8);
}

TEST(DcfMac, InRangeContendersRarelyCollide) {
  // 0 -> 1 and 1 -> 0 hear each other: carrier sense + NAV should keep
  // collisions near zero.
  MacNet net(make_chain(2));
  for (int i = 0; i < 25; ++i) {
    net.send(0, 1, i, 0);
    net.send(1, 0, i, 1);
  }
  net.sim.run();
  EXPECT_EQ(net.cbs[1]->delivered.size(), 25u);
  EXPECT_EQ(net.cbs[0]->delivered.size(), 25u);
  EXPECT_LE(net.macs[0]->stats().timeouts + net.macs[1]->stats().timeouts, 6u);
}

TEST(DcfMac, SaturatedLinkThroughputSane) {
  // Saturated 0 -> 1 at 2 Mbps with 512-byte payloads: the full exchange
  // (DIFS + avg 15.5 slots + RTS/CTS/DATA/ACK + 3 SIFS) costs ~3.0 ms, so
  // expect roughly 300-340 packets/s.
  MacNet net(make_chain(2), /*seed=*/42, /*queue_capacity=*/2000);
  for (int i = 0; i < 2000; ++i) net.send(0, 1, i);
  net.sim.run_until(from_seconds(2.0));
  const auto n = net.cbs[1]->delivered.size();
  EXPECT_GE(n, 550u);
  EXPECT_LE(n, 750u);
}

TEST(DcfMac, OverhearingNodeDefersViaNav) {
  // 1 -> 2 transfer; node 0 (in range of 1) starts contending mid-exchange
  // and must not collide: all packets delivered with zero timeouts at 1.
  MacNet net(make_chain(3));
  for (int i = 0; i < 10; ++i) net.send(1, 2, i, 0);
  net.sim.run_until(3 * kMillisecond);
  for (int i = 0; i < 10; ++i) net.send(0, 1, i, 1);
  net.sim.run();
  EXPECT_EQ(net.cbs[2]->delivered.size(), 10u);
  EXPECT_EQ(net.cbs[1]->delivered.size(), 10u);
}

TEST(DcfMac, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    MacNet net(make_chain(3), seed);
    for (int i = 0; i < 50; ++i) {
      net.send(0, 1, i, 0);
      net.send(2, 1, i, 1);
    }
    net.sim.run();
    return std::make_tuple(net.cbs[1]->delivered.size(), net.macs[0]->stats().timeouts,
                           net.sim.events_processed());
  };
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(std::get<2>(run(123)), std::get<2>(run(456)));
}

TEST(DcfMac, TagPiggybackRoundTrip) {
  // With a TagScheduler attached, the receiver's tag table learns the
  // sender's subflow tag from the exchange.
  Simulator sim;
  Topology topo = make_chain(2);
  Channel channel(sim, topo);
  Rng master(7);

  TagScheduler sched0({{5, 0.5}}, 50, 1e-4);
  TagScheduler sched1({{6, 0.5}}, 50, 1e-4);
  BebBackoff beb0(31, 1023), beb1(31, 1023);
  RecordingCallbacks cb0, cb1;
  DcfMac mac0(sim, channel, 0, MacConfig{}, sched0, beb0, cb0, master.split(), &sched0);
  DcfMac mac1(sim, channel, 1, MacConfig{}, sched1, beb1, cb1, master.split(), &sched1);

  Packet p;
  p.src = 0;
  p.dst = 1;
  p.subflow = 5;
  p.payload_bytes = 512;
  sched0.enqueue(p, 0);
  mac0.notify_queue_nonempty();
  sim.run();
  ASSERT_EQ(cb1.delivered.size(), 1u);
  EXPECT_EQ(sched1.tag_table_size(), 1);  // learned subflow 5's tag
}

}  // namespace
}  // namespace e2efa
