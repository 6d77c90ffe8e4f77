// Discrete-event simulation engine (the ns-2 stand-in's core).
//
// A pooled, cache-friendly design: event records live in a slab (vector
// slots recycled through a free list), handles are generation-tagged slot
// references giving O(1) cancel with no hash maps, and callbacks are
// small-buffer-optimized (`Callback`), so steady-state MAC/PHY/scheduler
// timers allocate nothing.
//
// The ready queue has two tiers of compact (time, seq, slot) entries whose
// comparisons never dereference the slab:
//   - the run: a sorted ring of at most kRunCap (128) of the earliest
//     pending entries, popped from its head in O(1);
//   - a 4-ary implicit min-heap behind it, for everything else.
// Invariant: every run entry precedes every heap entry in (time, seq)
// order. The paper's workloads never leave the run: the mean pending count
// at a pop is 16 / 62 / 40 on perfbench's paper_s2 / cold_start /
// churn_ctrl, the maximum 30 / 92 / 78, and 89-95% of new events land
// among the 8 earliest pending ones (mean rank 3-5), so a push is a short
// scan from the run's head. Larger queues (city-scale runs) overflow into the heap and
// cost what a plain heap costs, plus a bounded scan. The run's buffer
// starts at 16 entries and doubles as it fills, so a short run (a setup
// probe) never makes the allocator's large-request call.
//
// Fixed-delay lanes. A caller whose timer always fires a constant `delay`
// after it is armed (the MAC's backoff slot steps: kSlot, or kDifs + kSlot
// after a busy period) registers a lane, a (delay, handler) pair, and pushes
// plain context pointers onto it. Since `now` never decreases and `seq`
// always grows, the entries of one lane arrive already in (time, seq)
// order: a lane is a FIFO ring, a push an O(1) append that takes the next
// seq like any event but touches neither the run, the heap, the slab nor a
// Callback, and a pop takes its head. The drain loop fires whichever is
// earliest of the run/heap front and the lane heads, and calls the lane's
// handler directly. Over one perfbench golden pass at seed 1, 97-99% of
// the MAC's step arms go on its two lanes (paper_s2 2.93 M of 3.02 M,
// churn_ctrl 3.31 M of 3.37 M, cold_start 3.22 M of 3.26 M); the rest
// start at a NAV or EIFS end and take schedule_at. Lane ids share the
// EventId type with slab ids and never collide with them: a slab id's low
// word is slot + 1 < 2^31, a lane id's low word has bit 31 set, and the
// other 63 bits hold the entry's position in its lane (a per-lane count of
// pushes, never reused) and the lane index. Cancelling one is O(1) and
// lazy like a slab cancel.
//
// Ordering guarantee: events fire in (time, scheduling sequence) order —
// same-time events fire in the order they were scheduled, which makes every
// run fully deterministic and exactly reproduces the pre-pool engine's
// trajectories. Cancellation is lazy (the record is disarmed and its handle
// generation bumped; the queue entry is skipped and recycled when it
// surfaces), but `pending()` is exact. Handlers may schedule further events
// freely, including at the current time.

#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace e2efa {

class Simulator {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;
  /// Capacity of the run, the sorted tier in front of the heap: a power of
  /// two above the deepest queue the perfbench workloads reach (92).
  static constexpr std::uint32_t kRunCap = 128;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimeNs now() const { return now_; }

  /// Schedules `fn` at absolute time t (>= now). Returns a cancellable id.
  /// The callable is constructed directly in the event record (no
  /// intermediate Callback); passing a Callback moves it in as-is.
  template <typename F>
  EventId schedule_at(TimeNs t, F&& fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<F>&>,
                  "event handler must be callable as void()");
    const std::uint32_t slot = prepare(t);
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      slab_[slot].fn = std::forward<F>(fn);
    } else {
      slab_[slot].fn.emplace(std::forward<F>(fn));
    }
    return slab_event_id(slot, slab_[slot].gen);
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  template <typename F>
  EventId schedule_in(TimeNs delay, F&& fn) {
    check_delay(delay);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// A lane's handler, called with the context pointer of the entry that
  /// fires.
  using LaneHandler = void (*)(void* ctx);
  using LaneId = std::uint32_t;
  /// Upper bound on registered lanes (asserted by `lane`).
  static constexpr LaneId kMaxLanes = 4;

  /// Returns the lane that fires `fn` `delay` (>= 0) after each push,
  /// registering it on first use: every caller passing the same pair
  /// shares one lane.
  LaneId lane(TimeNs delay, LaneHandler fn);

  /// Schedules `fn(ctx)` on `lane` at now + its delay, in the same
  /// (time, seq) order as schedule_at; `ctx` must not be null. Returns a
  /// cancellable id.
  EventId schedule_on(LaneId lane, void* ctx) {
    E2EFA_ASSERT_MSG(lane < lane_count_ && ctx != nullptr, "bad lane push");
    Lane& l = lanes_[lane];
    if (l.tail - l.head == l.cap) grow_lane(l);
    const std::uint64_t index = l.tail++;
    l.ring[index & (l.cap - 1)] = {now_ + l.delay, next_seq_++, ctx};
    ++live_;
    return lane_event_id(lane, index);
  }

  /// Cancels a pending event; cancelling an already-fired or invalid id is
  /// a harmless no-op (returns false). O(1): the handle's generation tag
  /// rejects stale ids even after the slot has been recycled, and a lane
  /// id names a lane position that is never reused.
  bool cancel(EventId id);

  /// Runs events until the queue empties or the next event is after
  /// `t_end`; the clock then finishes at `t_end` (never moving backwards).
  /// Returns the number of events processed by this call.
  std::uint64_t run_until(TimeNs t_end);

  /// Runs until the event queue is empty (single drain loop); the clock
  /// finishes at the last *executed* event's time.
  std::uint64_t run();

  /// Total events processed over the simulator's lifetime.
  std::uint64_t events_processed() const { return processed_; }

  /// Pending (non-cancelled) events. Exact even though cancellation is
  /// lazy: disarmed records still occupy queue entries but are not counted.
  std::size_t pending() const { return live_; }

  // EventId encoding (public so that tests can probe its extremes).
  /// Bit 31 of the low word: set in lane ids, clear in slab ids.
  static constexpr EventId kLaneBit = 0x80000000u;
  /// Slab slots stay below this, so slot + 1 never reaches kLaneBit.
  static constexpr std::uint32_t kMaxSlots = 0x7fffffffu;
  static constexpr EventId slab_event_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }
  /// `index` counts the lane's pushes (< 2^61).
  static constexpr EventId lane_event_id(LaneId lane, std::uint64_t index) {
    const std::uint64_t payload = index * kMaxLanes + lane;
    return ((payload >> 31) << 32) | kLaneBit | (payload & (kLaneBit - 1));
  }
  static constexpr bool is_lane_id(EventId id) { return (id & kLaneBit) != 0; }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  /// Slab record, exactly one cache line. The callback's inline buffer
  /// makes this the only memory an event needs; `gen` tags handles so
  /// recycled slots reject stale ids. Armed state is the generation's
  /// parity: odd = armed, even = free or retired (no separate flag).
  struct Event {
    Callback fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilSlot;
  };
  static_assert(sizeof(Callback) == 56);

  /// Compact queue entry (run or heap): comparisons never touch the slab.
  struct QueueEntry {
    TimeNs time;
    std::uint64_t seq;  ///< Scheduling order; breaks same-time ties FIFO.
    std::uint32_t slot;
  };

  /// (time, seq) order over queue and lane entries alike.
  template <class A, class B>
  static bool earlier(const A& a, const B& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  /// The run's first buffer (384 bytes); it doubles up to kRunCap.
  static constexpr std::uint32_t kRunInitCap = 16;

  /// Lane entry; a null `ctx` marks a cancelled one.
  struct LaneEntry {
    TimeNs time;
    std::uint64_t seq;
    void* ctx;
  };
  /// A FIFO ring of `cap` entries (a power of two, allocated on the first
  /// push, doubled when full). `head` and `tail` count pops and pushes over
  /// the lane's lifetime; entry i lives at ring[i & (cap - 1)].
  struct Lane {
    TimeNs delay = 0;
    LaneHandler fn = nullptr;
    std::unique_ptr<LaneEntry[]> ring;
    std::uint64_t cap = 0;
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
  };
  /// A lane's first ring (384 bytes).
  static constexpr std::uint64_t kLaneInitCap = 16;

  std::uint32_t prepare(TimeNs t);
  void check_delay(TimeNs delay) const;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(QueueEntry e);
  QueueEntry heap_pop();
  /// The run's i-th earliest entry.
  QueueEntry& run_at(std::uint32_t i) {
    return run_[(run_head_ + i) & (run_cap_ - 1)];
  }
  /// Doubles the run's buffer (allocating the first one); false once it
  /// holds kRunCap entries.
  bool grow_run();
  /// Queues a new entry in the run or the heap, keeping the invariant.
  void push(QueueEntry e);
  /// Earliest pending entry (run head, else heap top); null when empty.
  const QueueEntry* front() const;
  /// Removes and returns the earliest entry; the queue must be non-empty.
  QueueEntry pop();
  static void grow_lane(Lane& l);
  bool cancel_lane(EventId id);
  /// Pops entries <= t_end, firing armed ones; shared by run/run_until.
  std::uint64_t drain(TimeNs t_end);

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::vector<Event> slab_;
  std::vector<QueueEntry> heap_;
  /// The run's ring buffer (`run_cap_` entries, a power of two), allocated
  /// on first use so that constructing a Simulator stays free.
  std::unique_ptr<QueueEntry[]> run_;
  std::uint32_t run_cap_ = 0;
  std::uint32_t run_head_ = 0;
  std::uint32_t run_size_ = 0;
  std::uint32_t free_head_ = kNilSlot;
  Lane lanes_[kMaxLanes];
  LaneId lane_count_ = 0;
};

}  // namespace e2efa
