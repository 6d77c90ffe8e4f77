#include <gtest/gtest.h>

#include "sched/fifo_queue.hpp"
#include "sched/tag_scheduler.hpp"
#include "util/assert.hpp"

namespace e2efa {
namespace {

Packet make_packet(std::int32_t subflow, std::int64_t seq, int bytes = 512) {
  Packet p;
  p.subflow = subflow;
  p.seq = seq;
  p.payload_bytes = bytes;
  return p;
}

// ---------- FifoQueue ----------

TEST(FifoQueue, FifoOrder) {
  FifoQueue q(10);
  EXPECT_FALSE(q.has_packet());
  q.enqueue(make_packet(0, 1), 0);
  q.enqueue(make_packet(0, 2), 0);
  EXPECT_EQ(q.head().seq, 1);
  EXPECT_EQ(q.pop_success(0).seq, 1);
  EXPECT_EQ(q.pop_success(0).seq, 2);
  EXPECT_FALSE(q.has_packet());
}

TEST(FifoQueue, DropTailWhenFull) {
  FifoQueue q(2);
  EXPECT_TRUE(q.enqueue(make_packet(0, 1), 0));
  EXPECT_TRUE(q.enqueue(make_packet(0, 2), 0));
  EXPECT_FALSE(q.enqueue(make_packet(0, 3), 0));
  EXPECT_EQ(q.backlog(), 2);
}

TEST(FifoQueue, PopEmptyThrows) {
  FifoQueue q(2);
  EXPECT_THROW(q.pop_success(0), ContractViolation);
  EXPECT_THROW((void)q.head(), ContractViolation);
}

// ---------- TagScheduler ----------

TEST(TagScheduler, RejectsBadConfig) {
  EXPECT_THROW(TagScheduler({{0, 0.0}}, 10, 1e-4), ContractViolation);
  EXPECT_THROW(TagScheduler({{0, 0.5}, {0, 0.25}}, 10, 1e-4), ContractViolation);
  EXPECT_THROW(TagScheduler({{0, 0.5}}, 0, 1e-4), ContractViolation);
}

TEST(TagScheduler, NodeShareIsSum) {
  TagScheduler s({{0, 0.3}, {1, 0.2}}, 10, 1e-4);
  EXPECT_DOUBLE_EQ(s.node_share(), 0.5);
}

TEST(TagScheduler, RejectsForeignSubflow) {
  TagScheduler s({{0, 0.5}}, 10, 1e-4);
  EXPECT_THROW(s.enqueue(make_packet(7, 1), 0), ContractViolation);
}

TEST(TagScheduler, PerLaneCapacity) {
  TagScheduler s({{0, 0.5}, {1, 0.5}}, 2, 1e-4);
  EXPECT_TRUE(s.enqueue(make_packet(0, 1), 0));
  EXPECT_TRUE(s.enqueue(make_packet(0, 2), 0));
  EXPECT_FALSE(s.enqueue(make_packet(0, 3), 0));
  EXPECT_TRUE(s.enqueue(make_packet(1, 1), 0));  // other lane unaffected
  EXPECT_EQ(s.backlog(), 3);
}

TEST(TagScheduler, SelectsSmallestInternalFinishTag) {
  // Shares 0.5 vs 0.25: lane 0's internal finish tag is half of lane 1's,
  // so with equal backlogs lane 0 sends ~2 packets per lane-1 packet.
  TagScheduler s({{0, 0.5}, {1, 0.25}}, 50, 1e-4);
  for (int i = 0; i < 12; ++i) {
    s.enqueue(make_packet(0, i), 0);
    s.enqueue(make_packet(1, i), 0);
  }
  int lane0 = 0, lane1 = 0;
  for (int i = 0; i < 9; ++i) {
    const Packet p = s.pop_success(0);
    (p.subflow == 0 ? lane0 : lane1)++;
  }
  EXPECT_EQ(lane0, 6);
  EXPECT_EQ(lane1, 3);
}

TEST(TagScheduler, WeightedServiceRatioLongRun) {
  // Shares 3:1 over many packets -> service counts within 5% of 3:1.
  TagScheduler s({{0, 0.6}, {1, 0.2}}, 400, 1e-4);
  for (int i = 0; i < 400; ++i) {
    s.enqueue(make_packet(0, i), 0);
    s.enqueue(make_packet(1, i), 0);
  }
  int lane0 = 0, lane1 = 0;
  for (int i = 0; i < 200; ++i) (s.pop_success(0).subflow == 0 ? lane0 : lane1)++;
  EXPECT_NEAR(static_cast<double>(lane0) / lane1, 3.0, 0.15);
}

TEST(TagScheduler, HeadStableAcrossEnqueues) {
  // An arrival with a smaller tag must not displace the latched head.
  TagScheduler s({{0, 0.1}, {1, 0.9}}, 10, 1e-4);
  s.enqueue(make_packet(0, 1), 0);
  const Packet head = s.head();
  EXPECT_EQ(head.subflow, 0);
  s.enqueue(make_packet(1, 1), 0);  // much larger share => smaller I-tag
  EXPECT_EQ(s.head().subflow, 0);  // still the latched head
  s.pop_success(0);
  EXPECT_EQ(s.head().subflow, 1);  // re-selection after pop
}

TEST(TagScheduler, VirtualClockAdvancesByExternalFinishTag) {
  TagScheduler s({{0, 0.5}}, 10, 1e-4);
  s.enqueue(make_packet(0, 1), 0);
  EXPECT_DOUBLE_EQ(s.virtual_clock(), 0.0);
  s.pop_success(0);
  // 512 B = 2048 µs of airtime; node share 0.5 -> E = 4096 µs.
  EXPECT_DOUBLE_EQ(s.virtual_clock(), 4096.0);
  s.enqueue(make_packet(0, 2), 0);
  EXPECT_DOUBLE_EQ(s.head_tag(), 4096.0);  // S = v at head arrival
}

TEST(TagScheduler, ParkedNodeDrainsWithoutAdvancingVirtualClock) {
  // Every lane at the inactive floor: stranded packets still drain, but
  // each would otherwise cost L/kInactiveShare (~2e9 µs) of virtual time.
  TagScheduler s({{0, 0.5}, {1, 0.25}}, 10, 1e-4);
  s.enqueue(make_packet(0, 1), 0);
  s.pop_success(0);
  const double before = s.virtual_clock();
  s.update_share(0, TagScheduler::kInactiveShare);
  s.update_share(1, TagScheduler::kInactiveShare);
  s.enqueue(make_packet(0, 2), 0);
  s.enqueue(make_packet(1, 1), 0);
  s.pop_success(0);
  s.pop_success(0);
  EXPECT_FALSE(s.has_packet());
  EXPECT_DOUBLE_EQ(s.virtual_clock(), before);
  // One live lane is enough for the clock to move again.
  s.update_share(1, 0.25);
  s.enqueue(make_packet(0, 3), 0);
  s.pop_success(0);
  EXPECT_GT(s.virtual_clock(), before);
}

TEST(TagScheduler, DropDoesNotAdvanceClock) {
  TagScheduler s({{0, 0.5}}, 10, 1e-4);
  s.enqueue(make_packet(0, 1), 0);
  s.pop_drop(0);
  EXPECT_DOUBLE_EQ(s.virtual_clock(), 0.0);
}

TEST(TagScheduler, InternalVsExternalTags) {
  // Two lanes 0.25 each -> node share 0.5. For lane 0's head:
  // I = S + 2048/0.25 = 8192, E = S + 2048/0.5 = 4096.
  TagScheduler s({{0, 0.25}, {1, 0.25}}, 10, 1e-4);
  s.enqueue(make_packet(0, 1), 0);
  s.pop_success(0);
  EXPECT_DOUBLE_EQ(s.virtual_clock(), 4096.0);
}

TEST(TagScheduler, ObserveTagIgnoresOwnSubflows) {
  TagScheduler s({{3, 0.5}}, 10, 1e-4);
  s.observe_tag(3, 100.0, 0);  // own subflow: not a neighbor entry
  EXPECT_EQ(s.tag_table_size(), 0);
  s.observe_tag(7, 100.0, 0);
  EXPECT_EQ(s.tag_table_size(), 1);
  s.observe_tag(7, 200.0, 0);  // update, not insert
  EXPECT_EQ(s.tag_table_size(), 1);
}

TEST(TagScheduler, QSlotsFollowsPaperFormula) {
  const double alpha = 1e-3;
  TagScheduler s({{0, 0.5}}, 10, alpha);
  // Enqueue first (empty table => no join synchronization), then learn the
  // neighbors' tags after the grace window: our head keeps S = 0.
  s.enqueue(make_packet(0, 1), 0);
  const TimeNs t = kSecond;  // past the join grace
  s.observe_tag(5, 1000.0, t);
  s.observe_tag(6, 3000.0, t);
  // Q = α · ((0-1000) + (0-3000)) = -4.0 (we are far behind -> negative).
  EXPECT_NEAR(s.q_slots(t), -4.0, 1e-9);
}

TEST(TagScheduler, JoinSynchronizationAdoptsFreshTags) {
  // A node that starts sending after overhearing established neighbors
  // fast-forwards its virtual clock instead of entering with tag 0 (which
  // would throttle the incumbents via their Q estimates).
  TagScheduler s({{0, 0.5}}, 10, 1e-3);
  s.observe_tag(5, 50'000.0, 0);
  s.observe_tag(6, 80'000.0, 0);
  s.enqueue(make_packet(0, 1), kSecond);
  EXPECT_DOUBLE_EQ(s.virtual_clock(), 80'000.0);
  EXPECT_DOUBLE_EQ(s.head_tag(), 80'000.0);
}

TEST(TagScheduler, JoinSynchronizationIgnoresStaleTags) {
  TagScheduler s({{0, 0.5}}, 10, 1e-3, /*tag_horizon=*/kSecond);
  s.observe_tag(5, 50'000.0, 0);
  // Entry is 3 s old at enqueue time: too stale to adopt.
  s.enqueue(make_packet(0, 1), 3 * kSecond);
  EXPECT_DOUBLE_EQ(s.virtual_clock(), 0.0);
}

TEST(TagScheduler, NoResyncWhileContinuouslyBusy) {
  // Past its join grace, a backlogged node must NOT keep jumping its clock
  // to neighbors' tags — that would erase the relative-lag signal fairness
  // relies on.
  TagScheduler s({{0, 0.5}}, 10, 1e-3);
  s.enqueue(make_packet(0, 1), 0);
  const TimeNs t = kSecond;  // past the grace window
  s.observe_tag(5, 99'000.0, t);
  s.enqueue(make_packet(0, 2), t + 100);  // still busy: no sync
  EXPECT_DOUBLE_EQ(s.virtual_clock(), 0.0);
  s.pop_success(t + 300);
  s.pop_success(t + 400);
  // Brief emptiness below the horizon: still no sync.
  s.enqueue(make_packet(0, 3), t + 500);
  EXPECT_DOUBLE_EQ(s.virtual_clock(), 2.0 * 4096.0);
}

TEST(TagScheduler, GraceWindowSyncsEmptyTableJoiner) {
  // A joiner whose table was empty at its first enqueue adopts the first
  // (much larger) overheard clock during the short grace window.
  TagScheduler s({{0, 0.5}}, 10, 1e-3, /*tag_horizon=*/2 * kSecond);
  s.enqueue(make_packet(0, 1), 0);  // join with empty table; grace 250 ms
  s.observe_tag(5, 5'000'000.0, 100 * kMillisecond);
  EXPECT_DOUBLE_EQ(s.virtual_clock(), 5'000'000.0);
  EXPECT_DOUBLE_EQ(s.head_tag(), 5'000'000.0);  // head re-tagged
  // After the grace, larger tags no longer move the clock.
  s.observe_tag(6, 9'000'000.0, kSecond);
  EXPECT_DOUBLE_EQ(s.virtual_clock(), 5'000'000.0);
}

TEST(TagScheduler, StaleEntriesLeaveQ) {
  const double alpha = 1e-3;
  TagScheduler s({{0, 0.5}}, 10, alpha, /*tag_horizon=*/kSecond);
  s.enqueue(make_packet(0, 1), 0);
  const TimeNs t = kSecond / 2;  // past the grace (125 ms), entry fresh
  s.observe_tag(5, 1000.0, t);
  // Fresh: counted.
  EXPECT_NEAR(s.q_slots(t + kSecond / 2), alpha * (0.0 - 1000.0), 1e-9);
  // Stale: dropped from Q (and from R).
  EXPECT_DOUBLE_EQ(s.q_slots(t + 3 * kSecond), 0.0);
  EXPECT_DOUBLE_EQ(s.r_slots_for(5, t + 3 * kSecond), 0.0);
}

TEST(TagScheduler, QSlotsPositiveWhenAhead) {
  const double alpha = 1e-3;
  TagScheduler s({{0, 0.5}}, 10, alpha);
  // Drain a few packets to advance our clock.
  for (int i = 0; i < 3; ++i) {
    s.enqueue(make_packet(0, i), 0);
    s.pop_success(0);
  }
  // v = 3 * 4096 = 12288.
  s.observe_tag(5, 1000.0, 0);
  s.enqueue(make_packet(0, 9), 0);  // S = 12288
  EXPECT_NEAR(s.q_slots(0), 1e-3 * (12288.0 - 1000.0), 1e-9);
}

TEST(TagScheduler, QZeroWithEmptyTableOrQueue) {
  TagScheduler s({{0, 0.5}}, 10, 1e-3);
  EXPECT_DOUBLE_EQ(s.q_slots(0), 0.0);  // empty queue
  s.enqueue(make_packet(0, 1), 0);
  EXPECT_DOUBLE_EQ(s.q_slots(0), 0.0);  // empty table
}

TEST(TagScheduler, RSlotsFollowsPaperFormula) {
  const double alpha = 1e-3;
  TagScheduler s({{0, 0.5}}, 10, alpha);
  s.observe_tag(5, 5000.0, 0);  // the data sender's subflow
  s.observe_tag(6, 1000.0, 0);
  s.observe_tag(7, 2000.0, 0);
  // R = α · ((5000-1000) + (5000-2000)) = 7.0.
  EXPECT_NEAR(s.r_slots_for(5, 0), 7.0, 1e-9);
}

TEST(TagScheduler, RUnknownSubflowZero) {
  TagScheduler s({{0, 0.5}}, 10, 1e-3);
  EXPECT_DOUBLE_EQ(s.r_slots_for(42, 0), 0.0);
}

TEST(TagScheduler, StoresAckR) {
  TagScheduler s({{0, 0.5}, {1, 0.5}}, 10, 1e-3);
  s.enqueue(make_packet(0, 1), 0);
  EXPECT_DOUBLE_EQ(s.head_last_r(), 0.0);
  s.store_ack_r(0, 2.5);
  EXPECT_DOUBLE_EQ(s.head_last_r(), 2.5);
  s.store_ack_r(1, 9.0);  // other subflow's R does not leak to this head
  EXPECT_DOUBLE_EQ(s.head_last_r(), 2.5);
}

TEST(TagScheduler, HeadTagMatchesStartTag) {
  TagScheduler s({{0, 0.5}}, 10, 1e-4);
  s.enqueue(make_packet(0, 1), 0);
  EXPECT_DOUBLE_EQ(s.head_tag(), 0.0);
  EXPECT_EQ(s.head_subflow(), 0);
}

}  // namespace
}  // namespace e2efa
