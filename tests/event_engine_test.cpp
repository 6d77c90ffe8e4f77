// Unit and stress coverage for the pooled event engine: FIFO ordering at
// equal timestamps, generation-tagged handle safety across slot reuse,
// exact pending() under lazy cancellation, both queue tiers (the sorted run
// and the heap behind it) against a reference model, and the Callback
// small-buffer machinery (inline vs heap storage, move-only semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"

namespace e2efa {
namespace {

TEST(EventEngine, FifoAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) sim.schedule_at(42, [&order, i] { order.push_back(i); });
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sim.now(), 42);
}

TEST(EventEngine, InterleavedScheduleCancelRescheduleSameTime) {
  Simulator sim;
  std::vector<int> order;
  // Schedule ten events at t=10, cancel the odd ones, then schedule five
  // more at the same time: survivors fire in scheduling order 0,2,4,6,8,
  // then 10..14.
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 10; ++i)
    ids.push_back(sim.schedule_at(10, [&order, i] { order.push_back(i); }));
  for (int i = 1; i < 10; i += 2) EXPECT_TRUE(sim.cancel(ids[i]));
  for (int i = 10; i < 15; ++i)
    sim.schedule_at(10, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8, 10, 11, 12, 13, 14}));
}

TEST(EventEngine, CancelSemantics) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(5, [&fired] { fired = true; });
  EXPECT_FALSE(sim.cancel(Simulator::kInvalidEvent));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);

  const auto id2 = sim.schedule_at(sim.now() + 1, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id2));  // already fired
}

TEST(EventEngine, StaleHandleDoesNotCancelRecycledSlot) {
  Simulator sim;
  // Arrange for slot reuse: cancel an event, then schedule another — the
  // freed slot is recycled only after the dead heap entry surfaces, so
  // drive the clock past it first.
  const auto stale = sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.cancel(stale));
  sim.run_until(2);  // dead entry popped; slot back on the free list

  bool fired = false;
  const auto fresh = sim.schedule_at(3, [&fired] { fired = true; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(sim.cancel(stale));  // stale generation must not match
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(EventEngine, HandleReuseAcrossManyGenerations) {
  Simulator sim;
  // Repeatedly schedule+cancel; with a single slot cycling through
  // generations, every stale id must stay dead.
  std::vector<Simulator::EventId> history;
  for (int i = 0; i < 50; ++i) {
    const auto id = sim.schedule_at(sim.now() + 1, [] {});
    for (const auto old : history) EXPECT_FALSE(sim.cancel(old));
    EXPECT_TRUE(sim.cancel(id));
    history.push_back(id);
    sim.run_until(sim.now() + 1);
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(EventEngine, PendingIsExactUnderLazyCancellation) {
  Simulator sim;
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(sim.schedule_at(100 + i, [] {}));
  EXPECT_EQ(sim.pending(), 20u);
  for (int i = 0; i < 20; i += 2) sim.cancel(ids[i]);
  // The ten dead heap entries still exist internally; pending() must not
  // count them.
  EXPECT_EQ(sim.pending(), 10u);
  sim.run_until(104);
  EXPECT_EQ(sim.pending(), 8u);  // 101 and 103 fired
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 10u);
}

TEST(EventEngine, CallbacksMayScheduleAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] {
    order.push_back(0);
    sim.schedule_at(5, [&] { order.push_back(2); });
    sim.schedule_at(sim.now(), [&] { order.push_back(3); });
  });
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), 5);
}

TEST(EventEngine, RunUntilAdvancesClockRunStopsAtLastEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&fired] { ++fired; });
  EXPECT_EQ(sim.run_until(3), 0u);
  EXPECT_EQ(sim.now(), 3);
  EXPECT_EQ(sim.run_until(100), 1u);
  EXPECT_EQ(sim.now(), 100);

  sim.schedule_at(150, [&fired] { ++fired; });
  sim.schedule_at(120, [&fired] { ++fired; });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(sim.now(), 150);  // run() ends at the last executed event
  EXPECT_EQ(fired, 3);
}

TEST(EventEngine, SchedulingInThePastIsRejected) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), ContractViolation);
  EXPECT_THROW(sim.schedule_in(-1, [] {}), ContractViolation);
}

// Deterministic stress: a pseudo-random interleaving of schedules, cancels
// and reschedules (many at equal timestamps) checked against engine
// invariants — non-decreasing firing time, FIFO among same-time events,
// exact bookkeeping of fired vs cancelled.
TEST(EventEngine, StressInterleavedScheduleCancelReschedule) {
  Simulator sim;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  struct Live {
    Simulator::EventId id;
    std::uint64_t seq;
  };
  std::vector<Live> live;
  std::uint64_t seq = 0, scheduled = 0, cancelled = 0, fired = 0;
  TimeNs last_time = 0;
  std::uint64_t last_seq = 0;

  // Fired events check global (time, seq) order; same-time events must
  // come out FIFO.
  auto on_fire = [&](TimeNs t, std::uint64_t s) {
    EXPECT_GE(t, last_time);
    if (t == last_time) {
      EXPECT_GT(s, last_seq);
    }
    last_time = t;
    last_seq = s;
    ++fired;
  };

  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t r = next();
    const int op = static_cast<int>(r % 100);
    if (op < 55 || live.empty()) {
      // Schedule at now + one of only 8 distinct offsets, forcing heavy
      // same-time pileups.
      const TimeNs t = sim.now() + static_cast<TimeNs>((r >> 8) % 8);
      const std::uint64_t s = seq++;
      const auto id = sim.schedule_at(t, [&, t, s] { on_fire(t, s); });
      live.push_back({id, s});
      ++scheduled;
    } else if (op < 80) {
      const std::size_t i = static_cast<std::size_t>((r >> 8) % live.size());
      if (sim.cancel(live[i].id)) ++cancelled;
      live[i] = live.back();
      live.pop_back();
    } else {
      // Drain a little, letting events fire and slots recycle.
      sim.run_until(sim.now() + static_cast<TimeNs>((r >> 8) % 4));
      live.clear();  // ids may have fired; drop tracking (cancels above
                     // tolerate stale ids by checking cancel()'s result)
    }
    ASSERT_EQ(sim.pending(), scheduled - cancelled - fired);
  }
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(fired, scheduled - cancelled);
}

// ---- The two queue tiers: the run (kRunCap earliest entries) and the heap ----
//
// The directed cases below build a known split between the tiers from the
// push rules: an entry later than the heap top goes to the heap; one later
// than the run's tail is appended while the run has room and goes to the
// heap once it is full; any other entry is inserted into the run, whose
// tail is evicted into the heap first when the run is full.

constexpr int kCap = static_cast<int>(Simulator::kRunCap);

/// Schedules an event that appends `label` to `order` when it fires.
Simulator::EventId schedule_label(Simulator& sim, std::vector<int>& order,
                                  TimeNs t, int label) {
  return sim.schedule_at(t, [&order, label] { order.push_back(label); });
}

std::vector<int> iota_labels(int first, int count) {
  std::vector<int> v(count);
  for (int i = 0; i < count; ++i) v[i] = first + i;
  return v;
}

TEST(EventEngineTiers, StrictlyIncreasingPushesFireInOrder) {
  // The BM_EngineScheduleDrain shape: the first kCap entries fill the
  // run, every later one goes to the heap behind it.
  Simulator sim;
  std::vector<int> order;
  const int n = 4 * kCap + 7;
  for (int i = 0; i < n; ++i) schedule_label(sim, order, i, i);
  EXPECT_EQ(sim.pending(), static_cast<std::size_t>(n));
  EXPECT_EQ(sim.run(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(order, iota_labels(0, n));
  EXPECT_EQ(sim.now(), n - 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventEngineTiers, PushTyingTheRunTailFiresAfterIt) {
  Simulator sim;
  std::vector<int> order;
  schedule_label(sim, order, 10, 0);
  schedule_label(sim, order, 20, 1);
  schedule_label(sim, order, 30, 2);
  schedule_label(sim, order, 30, 3);  // ties the tail: appended after it
  schedule_label(sim, order, 20, 4);  // ties an inner entry: inserted after it
  schedule_label(sim, order, 10, 5);  // ties the head
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 5, 1, 4, 2, 3}));

  // The same with a full run: the tie goes to the heap and still fires
  // after the run's tail.
  Simulator full;
  order.clear();
  for (int i = 0; i < kCap; ++i) schedule_label(full, order, 100 + i, i);
  schedule_label(full, order, 100 + kCap - 1, kCap);
  schedule_label(full, order, 100 + kCap, kCap + 1);
  full.run();
  EXPECT_EQ(order, iota_labels(0, kCap + 2));
}

TEST(EventEngineTiers, SameTimeFifoAcrossTheRunHeapBoundary) {
  // 3·kCap events at one instant: kCap in the run, the rest in the heap.
  // Earlier events then evict run tails (same time, older seq) into the
  // heap, so the instant's entries straddle the boundary twice over; they
  // must still fire strictly in scheduling order.
  Simulator sim;
  std::vector<int> order;
  const int n = 3 * kCap;
  for (int i = 0; i < n; ++i) schedule_label(sim, order, 50, 1000 + i);
  for (int i = 0; i < kCap / 2; ++i) schedule_label(sim, order, 40, i);
  // A same-time push after the evictions: later than the heap top.
  schedule_label(sim, order, 50, 1000 + n);
  sim.run();
  std::vector<int> expected = iota_labels(0, kCap / 2);
  const std::vector<int> tail = iota_labels(1000, n + 1);
  expected.insert(expected.end(), tail.begin(), tail.end());
  EXPECT_EQ(order, expected);

  // A push tying the heap top while the run has room (here: is empty)
  // still fires behind it.
  Simulator drained;
  order.clear();
  for (int i = 0; i < kCap; ++i) schedule_label(drained, order, 1 + i, i);
  schedule_label(drained, order, 500, kCap);      // heap
  schedule_label(drained, order, 500, kCap + 1);  // heap
  drained.run_until(499);                         // the run is now empty
  schedule_label(drained, order, 500, kCap + 2);
  drained.run();
  EXPECT_EQ(order, iota_labels(0, kCap + 3));
}

TEST(EventEngineTiers, CancelledEntriesSurfaceFromEitherTier) {
  Simulator sim;
  std::vector<int> order;
  std::vector<Simulator::EventId> ids;
  // Times 0..kCap-1 fill the run; kCap..3·kCap-1 sit in the heap.
  for (int i = 0; i < 3 * kCap; ++i)
    ids.push_back(schedule_label(sim, order, i, i));
  std::vector<int> expected;
  for (int i = 0; i < 3 * kCap; ++i) {
    // Cancel every third entry, plus the run head (0), the run tail
    // (kCap-1) and the heap top (kCap).
    if (i % 3 == 0 || i == kCap - 1 || i == kCap) {
      EXPECT_TRUE(sim.cancel(ids[i]));
    } else {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(sim.pending(), expected.size());
  // Stop just past the heap top: the run drains, the heap is entered.
  const auto through_heap_top = static_cast<std::size_t>(std::count_if(
      expected.begin(), expected.end(), [](int t) { return t <= kCap; }));
  EXPECT_EQ(sim.run_until(kCap), through_heap_top);
  EXPECT_EQ(sim.pending(), expected.size() - through_heap_top);
  sim.run();
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.pending(), 0u);
  for (const auto id : ids) EXPECT_FALSE(sim.cancel(id));
}

TEST(EventEngineTiers, RunUntilStopsWithTheNextEventInEitherTier) {
  Simulator sim;
  std::vector<int> order;
  // Next event in the run: times 1..kCap fill it, 1000 + i go to the heap.
  for (int i = 0; i < kCap; ++i) schedule_label(sim, order, 1 + i, i);
  for (int i = 0; i < 4; ++i) schedule_label(sim, order, 1000 + i, kCap + i);
  EXPECT_EQ(sim.run_until(kCap / 2), static_cast<std::uint64_t>(kCap / 2));
  EXPECT_EQ(sim.now(), kCap / 2);
  EXPECT_EQ(sim.pending(), static_cast<std::size_t>(kCap / 2 + 4));

  // Next event in the heap: the run drains, the clock stops at t_end.
  EXPECT_EQ(sim.run_until(999), static_cast<std::uint64_t>(kCap / 2));
  EXPECT_EQ(sim.now(), 999);
  EXPECT_EQ(sim.pending(), 4u);

  // An event earlier than the heap top now enters the (empty) run and
  // fires first; the heap's entries follow in order.
  schedule_label(sim, order, 999, -1);
  EXPECT_EQ(sim.run(), 5u);
  std::vector<int> expected = iota_labels(0, kCap);
  expected.push_back(-1);
  for (int i = 0; i < 4; ++i) expected.push_back(kCap + i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.now(), 1003);
}

TEST(EventEngineTiers, ThrowingHandlerLeavesPendingExact) {
  Simulator sim;
  std::vector<int> order;
  // 2·kCap events across both tiers; the one at t = 5 (in the run) throws.
  for (int i = 0; i < 2 * kCap; ++i) {
    if (i == 5) {
      sim.schedule_at(i, [] { throw std::runtime_error("handler failed"); });
    } else {
      schedule_label(sim, order, i, i);
    }
  }
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.now(), 5);
  EXPECT_EQ(sim.pending(), static_cast<std::size_t>(2 * kCap - 6));
  EXPECT_EQ(sim.events_processed(), 5u);

  // Pushes after the throw land in both tiers and keep the order.
  schedule_label(sim, order, 6, -6);
  schedule_label(sim, order, 3 * kCap, -7);
  EXPECT_EQ(sim.run(), static_cast<std::uint64_t>(2 * kCap - 6 + 2));
  std::vector<int> expected = iota_labels(0, 5);
  expected.push_back(6);
  expected.push_back(-6);
  const std::vector<int> rest = iota_labels(7, 2 * kCap - 7);
  expected.insert(expected.end(), rest.begin(), rest.end());
  expected.push_back(-7);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.pending(), 0u);
}

// Differential test: a reference model (an ordered set of (time, seq))
// must match the engine's firing order over seeded mixes of schedules,
// cancels, run_until calls and handler-scheduled children. Each seed grows
// the queue from empty to at least 4·kCap pending and drains it back to
// empty, twice, with offsets that range from same-instant ties to far
// future, so entries enter, leave and cross both tiers.
TEST(EventEngineTiers, MatchesReferenceModelOverSeededMixes) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Simulator sim;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull * seed;
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    using Key = std::pair<TimeNs, std::uint64_t>;  // (time, seq)
    std::set<Key> model;
    std::map<std::uint64_t, std::pair<Simulator::EventId, TimeNs>> ids;
    std::uint64_t seq = 0;
    std::uint64_t fired = 0;
    std::size_t max_pending = 0;

    auto offset = [&next]() -> TimeNs {
      const std::uint64_t r = next();
      switch (r % 4) {
        case 0: return 0;                                          // tie now
        case 1: return static_cast<TimeNs>((r >> 8) % 8);          // near
        case 2: return static_cast<TimeNs>((r >> 8) % 200);        // mid
        default: return static_cast<TimeNs>((r >> 8) % 20'000);    // far
      }
    };
    // Defined below; firing handlers call it to schedule child events.
    std::function<void(TimeNs)> schedule;
    auto on_fire = [&](TimeNs t, std::uint64_t s) {
      ASSERT_FALSE(model.empty());
      EXPECT_EQ(*model.begin(), Key(t, s));
      EXPECT_EQ(sim.now(), t);
      model.erase(Key(t, s));
      ids.erase(s);
      ++fired;
      if (next() % 4 == 0) schedule(sim.now() + offset());  // child event
    };
    schedule = [&](TimeNs t) {
      const std::uint64_t s = seq++;
      const auto id = sim.schedule_at(t, [&on_fire, t, s] { on_fire(t, s); });
      model.insert({t, s});
      ids[s] = {id, t};
    };

    for (int cycle = 0; cycle < 2; ++cycle) {
      for (const bool grow : {true, false}) {
        for (int step = 0; step < 20'000; ++step) {
          if (grow && model.size() >= 5 * Simulator::kRunCap) break;
          if (!grow && model.empty()) break;
          const int op = static_cast<int>(next() % 100);
          if (op < (grow ? 70 : 20)) {
            schedule(sim.now() + offset());
          } else if (op < (grow ? 80 : 45) && !ids.empty()) {
            // Cancel a random pending event (either tier).
            auto it = ids.lower_bound(next() % seq);
            if (it == ids.end()) it = ids.begin();
            EXPECT_TRUE(sim.cancel(it->second.first));
            EXPECT_FALSE(sim.cancel(it->second.first));
            model.erase(Key(it->second.second, it->first));
            ids.erase(it);
          } else {
            // Growing steps advance the clock by a few ticks only.
            const TimeNs t_end =
                sim.now() + (grow ? static_cast<TimeNs>(next() % 8) : offset());
            sim.run_until(t_end);
            EXPECT_EQ(sim.now(), t_end);
            if (!model.empty()) {
              EXPECT_GT(model.begin()->first, t_end);
            }
          }
          ASSERT_EQ(sim.pending(), model.size());
          max_pending = std::max(max_pending, model.size());
        }
      }
      // Drain whatever the shrink phase's step budget left.
      sim.run();
      EXPECT_TRUE(model.empty());
      EXPECT_EQ(sim.pending(), 0u);
    }
    EXPECT_GE(max_pending, 4u * Simulator::kRunCap);
    EXPECT_EQ(sim.events_processed(), fired);
  }
}

// ---- Callback (SBO) unit coverage ----

TEST(CallbackSbo, InlineAndHeapStorageBothInvoke) {
  int hits = 0;
  Callback small([&hits] { ++hits; });  // 8 bytes: inline
  small();
  EXPECT_EQ(hits, 1);

  struct Big {
    int* hits;
    char pad[120];  // > kInlineCapacity: heap fallback
    void operator()() const { ++*hits; }
  };
  Callback big(Big{&hits, {}});
  big();
  EXPECT_EQ(hits, 2);
}

TEST(CallbackSbo, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  Callback a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  Callback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(*counter, 1);
  b.reset();
  EXPECT_EQ(counter.use_count(), 1);  // capture destroyed exactly once
}

TEST(CallbackSbo, MoveOnlyCapturesWork) {
  auto value = std::make_unique<int>(41);
  Callback cb([v = std::move(value)] { ++*v; });
  Callback moved(std::move(cb));
  moved();
  EXPECT_TRUE(static_cast<bool>(moved));
}

TEST(CallbackSbo, SchedulingACallbackObjectWorks) {
  // The engine accepts a pre-built Callback (moved in as-is, not wrapped).
  Simulator sim;
  int hits = 0;
  Callback cb([&hits] { ++hits; });
  sim.schedule_at(1, std::move(cb));
  sim.run();
  EXPECT_EQ(hits, 1);
}

TEST(CallbackSbo, LargeCapturesSurviveSlotRecycling) {
  // Heap-fallback callbacks must stay valid while the slab slot cycles.
  Simulator sim;
  std::string out;
  struct Big {
    std::string text;
    std::string* out;
    char pad[64];
    void operator()() const { *out += text; }
  };
  sim.schedule_at(1, Big{"a", &out, {}});
  sim.schedule_at(1, Big{"b", &out, {}});
  const auto dead = sim.schedule_at(2, Big{"X", &out, {}});
  sim.cancel(dead);
  sim.schedule_at(3, Big{"c", &out, {}});
  sim.run();
  EXPECT_EQ(out, "abc");
}

}  // namespace
}  // namespace e2efa
