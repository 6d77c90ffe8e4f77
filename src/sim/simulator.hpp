// Discrete-event simulation engine (the ns-2 stand-in's core).
//
// A pooled, cache-friendly design: event records live in a slab (vector
// slots recycled through a free list), handles are generation-tagged slot
// references giving O(1) cancel with no hash maps, and the ready queue is a
// 4-ary implicit min-heap over compact (time, seq, slot) entries so sifts
// touch one cache line per level and never dereference the slab. Callbacks
// are small-buffer-optimized (`Callback`), so steady-state MAC/PHY/scheduler
// timers allocate nothing.
//
// Ordering guarantee: events fire in (time, scheduling sequence) order —
// same-time events fire in the order they were scheduled, which makes every
// run fully deterministic and exactly reproduces the pre-pool engine's
// trajectories. Cancellation is lazy (the record is disarmed and its handle
// generation bumped; the heap entry is skipped and recycled when it
// surfaces), but `pending()` is exact. Handlers may schedule further events
// freely, including at the current time.

#pragma once

#include <cstdint>
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
    return make_id(slot, slab_[slot].gen);
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  template <typename F>
  EventId schedule_in(TimeNs delay, F&& fn) {
    check_delay(delay);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event; cancelling an already-fired or invalid id is
  /// a harmless no-op (returns false). O(1): the handle's generation tag
  /// rejects stale ids even after the slot has been recycled.
  bool cancel(EventId id);

  /// Runs events until the queue empties or the next event is after
  /// `t_end`; the clock finishes at min(t_end, last event time). Returns
  /// the number of events processed by this call.
  std::uint64_t run_until(TimeNs t_end);

  /// Runs until the event queue is empty (single drain loop); the clock
  /// finishes at the last *executed* event's time.
  std::uint64_t run();

  /// Total events processed over the simulator's lifetime.
  std::uint64_t events_processed() const { return processed_; }

  /// Pending (non-cancelled) events. Exact even though cancellation is
  /// lazy: disarmed records still occupy heap entries but are not counted.
  std::size_t pending() const { return live_; }

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

  /// Compact heap entry: comparisons never touch the slab.
  struct HeapEntry {
    TimeNs time;
    std::uint64_t seq;  ///< Scheduling order; breaks same-time ties FIFO.
    std::uint32_t slot;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }

  std::uint32_t prepare(TimeNs t);
  void check_delay(TimeNs delay) const;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(HeapEntry e);
  HeapEntry heap_pop();
  /// Pops entries <= t_end, firing armed ones; shared by run/run_until.
  std::uint64_t drain(TimeNs t_end);

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::vector<Event> slab_;
  std::vector<HeapEntry> heap_;
  std::uint32_t free_head_ = kNilSlot;
};

}  // namespace e2efa
