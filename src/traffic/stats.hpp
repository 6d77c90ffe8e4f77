// Per-subflow and per-flow traffic accounting (the quantities Tables II and
// III report: delivered packets per subflow, end-to-end totals, losses).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "flow/flow.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace e2efa {

struct SubflowCounters {
  std::int64_t generated = 0;      ///< Source-generated (first hop only).
  std::int64_t enqueued = 0;       ///< Accepted into the transmit queue.
  std::int64_t dropped_queue = 0;  ///< Drop-tail (buffer overflow) losses.
  std::int64_t dropped_mac = 0;    ///< Retry-limit losses.
  std::int64_t delivered = 0;      ///< Clean, deduplicated receptions.
};

class TrafficStats {
 public:
  explicit TrafficStats(const FlowSet& flows);

  /// Measurements before `t` are excluded (transient warm-up). Set once at
  /// scenario start; duplicate suppression is unaffected.
  void set_warmup(TimeNs t) { warmup_ = t; }
  TimeNs warmup() const { return warmup_; }
  /// True when `now` falls inside the measured interval.
  bool measuring(TimeNs now) const { return now >= warmup_; }

  SubflowCounters& subflow(int global_index);
  const SubflowCounters& subflow(int global_index) const;
  int subflow_count() const { return static_cast<int>(counters_.size()); }

  /// Records one end-to-end delivery latency for flow f.
  void record_delay(FlowId f, TimeNs delay);
  /// End-to-end delay statistics of flow f (seconds).
  const RunningStat& delay(FlowId f) const;

  /// Counts one packet of flow f suppressed at the source because the flow
  /// was suspended (destination unreachable under the current fault mask).
  /// Counted regardless of warm-up: suspension is a fault effect, not noise.
  void count_suspended(FlowId f);
  /// Packets of flow f suppressed while suspended.
  std::int64_t suspended(FlowId f) const;

  /// Observer invoked on every deduplicated end-to-end delivery of flow f
  /// (warm-up included) — the hook recovery-time measurement and delivery
  /// tracing hang off. `delay` is the packet's end-to-end latency.
  using DeliveryListener = std::function<void(FlowId, TimeNs, TimeNs delay)>;
  void set_delivery_listener(DeliveryListener fn) { on_delivery_ = std::move(fn); }
  /// Called by the node stack at the destination; fires the listener.
  void notify_end_to_end(FlowId f, TimeNs now, TimeNs delay);

  /// Delivered packets on the j-th hop of flow f ("r_{i.j} · T").
  std::int64_t delivered(FlowId f, int hop) const;

  /// End-to-end delivered packets of flow f (= delivery count of its last
  /// hop, "r̂_i · T").
  std::int64_t end_to_end(FlowId f) const;

  /// Σ_i end_to_end(i) — the measured total effective throughput × T.
  std::int64_t total_end_to_end() const;

  /// The paper's "lost packets": in-network losses — packets that consumed
  /// upstream airtime but never reached the destination,
  /// Σ_i (delivered(i, hop 1) − delivered(i, last hop)). (Table II/III's
  /// counts satisfy this identity exactly.) Source-side queue drops are
  /// excluded: they never used the channel.
  std::int64_t total_lost() const;

  /// Paper's loss ratio: total lost / total end-to-end delivered
  /// (0 when nothing was delivered).
  double loss_ratio() const;

 private:
  const FlowSet* flows_;
  std::vector<SubflowCounters> counters_;
  std::vector<RunningStat> delay_;
  std::vector<std::int64_t> suspended_;
  DeliveryListener on_delivery_;
  TimeNs warmup_ = 0;
};

}  // namespace e2efa
