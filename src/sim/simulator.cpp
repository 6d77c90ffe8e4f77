#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace e2efa {

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    slab_[slot].next_free = kNilSlot;
    return slot;
  }
  E2EFA_ASSERT_MSG(slab_.size() < kMaxSlots, "event slab exhausted");
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  slab_[slot].next_free = free_head_;
  free_head_ = slot;
}

void Simulator::heap_push(QueueEntry e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t p = (i - 1) >> 2;
    if (!earlier(e, heap_[p])) break;
    heap_[i] = heap_[p];
    i = p;
  }
  heap_[i] = e;
}

Simulator::QueueEntry Simulator::heap_pop() {
  const QueueEntry top = heap_.front();
  const QueueEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t c = 4 * i + 1;
      if (c >= n) break;
      std::size_t m = c;
      const std::size_t end = std::min(c + 4, n);
      for (std::size_t k = c + 1; k < end; ++k)
        if (earlier(heap_[k], heap_[m])) m = k;
      if (!earlier(heap_[m], last)) break;
      heap_[i] = heap_[m];
      i = m;
    }
    heap_[i] = last;
  }
  return top;
}

bool Simulator::grow_run() {
  if (run_cap_ == kRunCap) return false;
  const std::uint32_t cap = run_cap_ == 0 ? kRunInitCap : 2 * run_cap_;
  std::unique_ptr<QueueEntry[]> grown(new QueueEntry[cap]);
  for (std::uint32_t i = 0; i < run_size_; ++i) grown[i] = run_at(i);
  run_ = std::move(grown);
  run_cap_ = cap;
  run_head_ = 0;
  return true;
}

void Simulator::push(QueueEntry e) {
  // `e` carries the largest seq so far, so it follows every pending entry
  // of its own time: comparing times alone decides where it goes.
  if (!heap_.empty() && heap_.front().time <= e.time) {
    heap_push(e);  // later than the heap top
    return;
  }
  const bool full = run_size_ == run_cap_ && !grow_run();
  if (run_size_ == 0 || run_at(run_size_ - 1).time <= e.time) {
    if (full) {
      heap_push(e);  // later than the whole full run
      return;
    }
    run_at(run_size_++) = e;
    return;
  }
  // `e` precedes the run's tail. Make room by evicting the tail (the
  // earliest entry the heap will then hold), find e's rank by a scan from
  // the head, and shift the entries before it one slot toward the front.
  if (full) heap_push(run_at(--run_size_));
  std::uint32_t rank = 0;
  while (rank < run_size_ && run_at(rank).time <= e.time) ++rank;
  run_head_ = (run_head_ - 1) & (run_cap_ - 1);
  for (std::uint32_t i = 0; i < rank; ++i) run_at(i) = run_at(i + 1);
  run_at(rank) = e;
  ++run_size_;
}

const Simulator::QueueEntry* Simulator::front() const {
  if (run_size_ != 0) return &run_[run_head_];
  return heap_.empty() ? nullptr : &heap_.front();
}

Simulator::QueueEntry Simulator::pop() {
  if (run_size_ == 0) return heap_pop();
  const QueueEntry e = run_[run_head_];
  run_head_ = (run_head_ + 1) & (run_cap_ - 1);
  --run_size_;
  return e;
}

std::uint32_t Simulator::prepare(TimeNs t) {
  E2EFA_ASSERT_MSG(t >= now_, "cannot schedule in the past");
  const std::uint32_t slot = acquire_slot();
  ++slab_[slot].gen;  // even -> odd: armed
  push({t, next_seq_++, slot});
  ++live_;
  return slot;
}

Simulator::LaneId Simulator::lane(TimeNs delay, LaneHandler fn) {
  check_delay(delay);
  E2EFA_ASSERT(fn != nullptr);
  for (LaneId i = 0; i < lane_count_; ++i)
    if (lanes_[i].delay == delay && lanes_[i].fn == fn) return i;
  E2EFA_ASSERT_MSG(lane_count_ < kMaxLanes, "too many event lanes");
  lanes_[lane_count_].delay = delay;
  lanes_[lane_count_].fn = fn;
  return lane_count_++;
}

void Simulator::grow_lane(Lane& l) {
  const std::uint64_t cap = l.cap == 0 ? kLaneInitCap : 2 * l.cap;
  std::unique_ptr<LaneEntry[]> grown(new LaneEntry[cap]);
  for (std::uint64_t i = l.head; i != l.tail; ++i)
    grown[i & (cap - 1)] = l.ring[i & (l.cap - 1)];
  l.ring = std::move(grown);
  l.cap = cap;
}

void Simulator::check_delay(TimeNs delay) const {
  E2EFA_ASSERT_MSG(delay >= 0, "negative delay");
}

bool Simulator::cancel_lane(EventId id) {
  const std::uint64_t payload = ((id >> 32) << 31) | (id & (kLaneBit - 1));
  const LaneId lane = static_cast<LaneId>(payload % kMaxLanes);
  const std::uint64_t index = payload / kMaxLanes;
  if (lane >= lane_count_) return false;
  Lane& l = lanes_[lane];
  if (index < l.head || index >= l.tail) return false;  // popped or never pushed
  LaneEntry& e = l.ring[index & (l.cap - 1)];
  if (e.ctx == nullptr) return false;  // already cancelled
  // Lazy, as for slab events: the entry is skipped when it reaches the head.
  e.ctx = nullptr;
  --live_;
  return true;
}

bool Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return false;
  if (is_lane_id(id)) return cancel_lane(id);
  const std::uint64_t slot64 = (id & 0xffffffffu) - 1;
  if (slot64 >= slab_.size()) return false;
  Event& ev = slab_[static_cast<std::uint32_t>(slot64)];
  if ((ev.gen & 1u) == 0 || ev.gen != static_cast<std::uint32_t>(id >> 32))
    return false;
  // Lazy cancel: disarm and release the closure now (O(1)); the queue entry
  // is skipped and the slot recycled when it reaches the front.
  ++ev.gen;  // odd -> even: retired; stale handles now mismatch
  ev.fn.reset();
  --live_;
  return true;
}

std::uint64_t Simulator::drain(TimeNs t_end) {
  std::uint64_t count = 0;
  for (;;) {
    // The earliest of the run/heap front and the lane heads.
    const QueueEntry* next = front();
    Lane* from = nullptr;
    const LaneEntry* head = nullptr;
    for (LaneId i = 0; i < lane_count_; ++i) {
      Lane& l = lanes_[i];
      if (l.head == l.tail) continue;
      const LaneEntry& h = l.ring[l.head & (l.cap - 1)];
      if (head != nullptr ? earlier(h, *head) : next == nullptr || earlier(h, *next)) {
        from = &l;
        head = &h;
      }
    }
    if (from != nullptr) {
      if (head->time > t_end) break;
      const LaneEntry e = *head;
      ++from->head;
      if (e.ctx == nullptr) continue;  // lazily cancelled
      --live_;
      now_ = e.time;
      from->fn(e.ctx);
      ++count;
      ++processed_;
      continue;
    }
    if (next == nullptr || next->time > t_end) break;
    __builtin_prefetch(&slab_[next->slot]);
    const QueueEntry e = pop();
    Event& ev = slab_[e.slot];
    if ((ev.gen & 1u) == 0) {  // lazily cancelled; recycle and move on
      release_slot(e.slot);
      continue;
    }
    ++ev.gen;  // odd -> even: retire the handle before callbacks reuse it
    release_slot(e.slot);
    --live_;
    now_ = e.time;
    ev.fn.consume_invoke();
    ++count;
    ++processed_;
  }
  return count;
}

std::uint64_t Simulator::run_until(TimeNs t_end) {
  const std::uint64_t count = drain(t_end);
  now_ = std::max(now_, t_end);
  return count;
}

std::uint64_t Simulator::run() {
  return drain(std::numeric_limits<TimeNs>::max());
}

}  // namespace e2efa
