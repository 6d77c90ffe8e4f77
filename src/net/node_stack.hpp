// Per-node protocol stack: transmit queue(s) + backoff policy + DCF MAC,
// plus the forwarding plane (deliver / relay / count).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "flow/flow.hpp"
#include "mac/dcf_mac.hpp"
#include "sched/tx_queue.hpp"
#include "traffic/stats.hpp"

namespace e2efa {

class NodeStack : public MacCallbacks {
 public:
  NodeStack(Simulator& sim, Channel& channel, NodeId self, const FlowSet& flows,
            TrafficStats& stats, const MacConfig& mac_cfg,
            std::unique_ptr<TxQueue> queue, std::unique_ptr<BackoffPolicy> backoff,
            Rng mac_rng, TagScheduler* tags);

  /// Entry point for locally generated (source) packets; stamps the first
  /// hop and enqueues. Forwarded packets arrive via on_packet_delivered.
  void inject_from_source(Packet p, FlowId flow);

  // --- MacCallbacks ---
  void on_packet_delivered(const Packet& p) override;
  void on_packet_sent(const Packet& p) override;
  void on_packet_dropped(const Packet& p) override;

  const DcfMac& mac() const { return *mac_; }
  /// Mutable MAC access for wiring the in-band control plane (listener,
  /// piggyback source, send_ctrl).
  DcfMac& mac() { return *mac_; }
  NodeId self() const { return self_; }
  int backlog() const { return queue_->backlog(); }

  /// Installs the trace sink for this node's queue events and forwards it
  /// to the MAC. Null (default) = disabled.
  void set_trace(TraceSink* trace) {
    trace_ = trace;
    mac_->set_trace(trace);
  }

  /// Installs the invariant-check observer (conservation ledger) and
  /// forwards it to the MAC (backoff oracle). Null (default) = disabled.
  void set_check(CheckContext* check) {
    check_ = check;
    mac_->set_check(check);
  }

  /// Observer for link-layer delivery failure: invoked whenever the MAC
  /// exhausts its retry limit and drops a packet at this node — the
  /// upstream signal ("link to next hop is not delivering") that route
  /// repair and fault accounting key off. Fires regardless of warm-up.
  using LinkFailureListener = std::function<void(const Packet&, TimeNs)>;
  void set_link_failure_listener(LinkFailureListener fn) {
    on_link_failure_ = std::move(fn);
  }

  /// Transport-layer sink hook (AckPlane): invoked for every uid-unique
  /// last-hop delivery; returns true when the *sequence* is fresh (first
  /// arrival at the sink). End-to-end stats count only fresh deliveries, so
  /// a retransmitted copy is acked but never double-counted. Null
  /// (default): every uid-unique delivery is fresh (open-loop CBR).
  using TransportSink = std::function<bool(const Packet&, TimeNs)>;
  void set_transport_sink(TransportSink fn) { transport_sink_ = std::move(fn); }

 private:
  void enqueue_and_notify(Packet p);

  Simulator& sim_;
  NodeId self_;
  const FlowSet& flows_;
  TrafficStats& stats_;
  std::unique_ptr<TxQueue> queue_;
  std::unique_ptr<BackoffPolicy> backoff_;
  std::unique_ptr<DcfMac> mac_;
  /// Duplicate suppression: uid of the last packet delivered per incoming
  /// subflow. MAC-level duplicates (lost ACK, sender retried) are always
  /// consecutive copies of the *same* packet, so remembering one uid
  /// suffices — and unlike a sequence watermark it lets a transport
  /// retransmission (same seq, fresh uid) pass through the relay chain.
  std::unordered_map<std::int32_t, std::uint64_t> last_uid_;
  LinkFailureListener on_link_failure_;
  TransportSink transport_sink_;
  TraceSink* trace_ = nullptr;
  CheckContext* check_ = nullptr;
};

}  // namespace e2efa
