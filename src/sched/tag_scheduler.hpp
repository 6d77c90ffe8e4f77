// The paper's second-phase scheduler (Sec. IV-C).
//
// Per node: one bounded queue per locally-originating subflow j with
// allocated share c^j; node share c = Σ_j c^j. Each head-of-line packet k
// of subflow j carries three tags (virtual time in µs of channel airtime):
//
//   start tag           S = v(t) when the packet reaches its queue head,
//   internal finish tag I = max(S, I_prev^j) + L/c^j — selects the next
//                           packet to send (I_prev^j is the lane's previous
//                           internal finish tag; the max() continuation is
//                           the standard SFQ rule that keeps service of
//                           backlogged lanes proportional to c^j — without
//                           it, lanes with close shares degenerate to 1:1
//                           alternation),
//   external finish tag E = S + L/c    — advances the node virtual clock v
//                                        after a successful transmission.
//
// The node also keeps a table of the most recently overheard service tags
// of one-hop-neighbor subflows (piggybacked on RTS/CTS/DATA/ACK). The
// sender-side backoff component is Q = α·Σ_m (S − r_m); the receiver
// estimates R = α·Σ_{m≠i} (r_i − r_m) and returns it in the ACK. The MAC
// draws its contention backoff from [0, CW_min + max(Q, R, 0)].
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "sched/tx_queue.hpp"

namespace e2efa {

class CheckContext;

class TagScheduler : public TxQueue {
 public:
  struct SubflowConfig {
    std::int32_t subflow = -1;  ///< Global subflow id.
    double share = 0.0;         ///< Allocated share c^j in units of B (> 0).
  };

  /// Share of a lane whose flow is inactive (departed, suspended or moved
  /// to another route): it carries no new traffic, and a tiny positive
  /// value keeps the share > 0 invariant. A node whose lanes all sit at
  /// this floor drains its stranded packets without advancing its virtual
  /// clock — each one would otherwise cost L/kInactiveShare of virtual
  /// time and leave the node hopelessly ahead of its neighbors once one of
  /// its routes comes back.
  static constexpr double kInactiveShare = 1e-6;

  /// Tag units are µs of airtime at the channel rate B = kChannelBps;
  /// `alpha` is the paper's short-term fairness strictness knob;
  /// `tag_horizon` ages neighbor-table entries (a flow-churn extension:
  /// tags not refreshed within the horizon no longer enter Q/R, so departed
  /// flows stop throttling survivors).
  TagScheduler(std::vector<SubflowConfig> subflows, int per_queue_capacity, double alpha,
               TimeNs tag_horizon = 2 * kSecond);

  // --- TxQueue ---
  bool enqueue(Packet p, TimeNs now) override;
  bool has_packet() const override;
  const Packet& head() const override;
  Packet pop_success(TimeNs now) override;
  Packet pop_drop(TimeNs now) override;
  int backlog() const override;

  // --- Hooks the MAC uses to drive the tag machinery (Sec. IV-C). The
  // time-taking ones age out stale neighbor entries, so departed flows do
  // not throttle survivors. ---
  /// Start tag S of the current head packet (virtual-time µs).
  double head_tag() const;
  /// Global subflow id of the current head packet.
  std::int32_t head_subflow() const;
  /// Records an overheard (subflow, tag) pair into the local table.
  void observe_tag(std::int32_t subflow, double tag, TimeNs now);
  /// Sender-side extra backoff Q = α·Σ_m (S − r_m) in slots (may be < 0),
  /// over the non-stale table entries.
  double q_slots(TimeNs now) const;
  /// Receiver-side estimate R = α·Σ_{m≠i} (r_i − r_m) for the subflow whose
  /// DATA was just received; carried back in the ACK.
  double r_slots_for(std::int32_t data_subflow, TimeNs now) const;
  /// Sender stores the R delivered by an ACK for the given subflow.
  void store_ack_r(std::int32_t subflow, double r);
  /// Last stored R for the current head's subflow (0 if none).
  double head_last_r() const;

  /// Updates the allocated share of one lane (phase-1 re-allocation after
  /// flow churn). Node share is recomputed and the lane's head tags are
  /// re-derived from the current virtual clock. share must be > 0.
  void update_share(std::int32_t subflow, double share);

  /// Current allocated share c^j of one lane (asserts if the subflow has no
  /// lane here). Lets the in-band control plane skip no-op RATE updates and
  /// tests read back what was applied.
  double share_of(std::int32_t subflow) const;

  /// Installs the trace sink for tag/vclock events at this node. The
  /// scheduler's TxQueue interface carries `now` on every mutating call, so
  /// emissions reuse the caller's timestamp (tracked in trace_now_); for the
  /// runner's out-of-band update_share calls, note_time() refreshes it.
  void set_trace(TraceSink* trace, std::int16_t node) {
    trace_ = trace;
    trace_node_ = node;
  }
  /// Refreshes the emission timestamp before calls that carry no `now`
  /// (runner epoch-boundary update_share).
  void note_time(TimeNs now) { trace_now_ = now; }

  /// Installs the invariant-check observer (lane depth, tag monotonicity,
  /// virtual-clock monotonicity oracles). Not owned; never mutates state.
  void set_check(CheckContext* check, std::int32_t node) {
    check_ = check;
    check_node_ = node;
  }

  /// Node share c = Σ_j c^j.
  double node_share() const { return node_share_; }
  /// Current virtual clock v (µs).
  double virtual_clock() const { return vclock_; }
  /// Number of (neighbor-subflow, tag) entries in the local table.
  int tag_table_size() const { return static_cast<int>(tag_table_.size()); }

 private:
  struct Lane {
    SubflowConfig cfg;
    std::deque<Packet> q;
    // Tags of the head packet (valid when !q.empty()).
    double start_tag = 0.0;
    double internal_finish = 0.0;
    double external_finish = 0.0;
    // Internal finish tag of the lane's previously served packet (SFQ
    // continuation for backlogged proportional service).
    double last_internal_finish = 0.0;
    double last_r = 0.0;  ///< R from the lane's last ACK (0 before any).
  };

  /// Virtual transmission time of a packet: payload airtime at B, in µs.
  double packet_vtime(const Packet& p) const;
  void assign_head_tags(Lane& lane);
  void set_vclock(double v);  ///< vclock_ = v, tracing the change.
  void select_head() const;
  /// Index of `subflow`'s lane in lanes_, or -1 when this node does not
  /// originate it.
  int lane_index(std::int32_t subflow) const;
  Lane& lane_of(std::int32_t subflow);
  Packet pop_selected();

  struct TableEntry {
    double tag = 0.0;
    TimeNs updated = 0;
  };
  bool fresh(const TableEntry& e, TimeNs now) const {
    return now - e.updated <= tag_horizon_;
  }

  std::vector<Lane> lanes_;  ///< A handful per node: found by linear scan.
  int capacity_;
  double alpha_;
  TimeNs tag_horizon_;
  double node_share_ = 0.0;
  double vclock_ = 0.0;
  mutable int selected_ = -1;  ///< Lane chosen for the current head; -1 = none.
  std::unordered_map<std::int32_t, TableEntry> tag_table_;  ///< neighbor subflow -> r_m
  /// Join synchronization: after an idle gap longer than the tag horizon,
  /// the virtual clock fast-forwards to the largest recently heard tag so a
  /// (re)joining node does not start with an enormous apparent lag — and
  /// for one further horizon (the *grace window*) it keeps adopting larger
  /// overheard tags, which bootstraps joiners whose tables were empty at
  /// their first enqueue. Incumbents never resync: their tag lag *is* the
  /// fairness signal (and negative lag is floored in the backoff anyway,
  /// so adopting a larger clock never removes a legitimate advantage).
  TimeNs last_busy_ = kInvalidTime;
  TimeNs sync_grace_until_ = kInvalidTime;
  static constexpr TimeNs kInvalidTime = -1;
  TraceSink* trace_ = nullptr;
  std::int16_t trace_node_ = -1;
  TimeNs trace_now_ = 0;  ///< Timestamp of the innermost mutating call.
  CheckContext* check_ = nullptr;
  std::int32_t check_node_ = -1;
};

}  // namespace e2efa
