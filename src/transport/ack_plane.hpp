// Sink-side ACK generation and hop-by-hop return routing for the elastic
// transport — the stack's first end-to-end feedback path.
//
// Data packets only ever flow source → sink; nothing in the MAC or the
// routing plane carries anything back. The AckPlane closes the loop with
// the existing control-frame machinery: the sink emits a kTransAck CtrlMsg
// (cumulative ack + echoed probe sequence) as a broadcast control frame
// addressed hop-by-hop to the previous node on the flow's path, each relay
// re-emits it one hop further upstream, and the source's MAC hands it to
// the flow's TransportSource. Control frames are fire-and-forget (no MAC
// ACK), so individual ACKs can vanish — cumulative acking makes any later
// ACK carry the same information, exactly like the HELLO/RATE plane heals
// by re-advertisement.
//
// Delayed ACKs bound the overhead: every second in-order delivery acks
// immediately, a straggler acks after kDelayedAckS; out-of-order and
// duplicate deliveries always ack immediately, because they *are* the
// duplicate-ACK loss signal and must not be delayed.
//
// Tracing: every emission owns a kTransAckTx span parented on the record
// that caused it (the sink's on the delivery chain, each relay's on the
// upstream emission), and the source's kTransAckRx span is handed to the
// TransportSource so the sends it clocks out parent onto the ACK — the
// "spans parented per ACK clock" causal chain.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "check/check.hpp"
#include "mac/dcf_mac.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "transport/transport.hpp"

namespace e2efa {

class AckPlane {
 public:
  AckPlane(Simulator& sim, TraceSink* trace, CheckContext* check)
      : sim_(sim), trace_(trace), check_(check) {}

  /// Registers the MAC the plane may emit control frames from (every node
  /// on a registered flow's path).
  void register_mac(NodeId n, DcfMac* mac) { macs_[n] = mac; }

  /// Registers one elastic flow: its node path (source first) and the
  /// source to deliver arriving ACKs to.
  void add_flow(std::int32_t flow, std::vector<NodeId> path,
                TransportSource* source);

  /// NodeStack sink hook: a data packet completed its last hop. Returns
  /// true when the sequence is fresh (first arrival at the sink) — the
  /// stack counts end-to-end stats only for fresh deliveries. Emits /
  /// schedules the cumulative ACK as a side effect.
  bool on_final_delivery(const Packet& p, TimeNs now);

  /// MAC transport-listener entry: node `self` cleanly received a control
  /// frame carrying a kTransAck payload. Relays or delivers it.
  void on_ctrl_frame(NodeId self, const Frame& f);

  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t acks_relayed() const { return acks_relayed_; }
  std::uint64_t acks_delivered() const { return acks_delivered_; }

 private:
  struct FlowState {
    std::vector<NodeId> path;
    TransportSource* source = nullptr;
    std::int64_t cumack = -1;
    std::set<std::int64_t> ooo;  ///< Delivered above the cumack hole.
    int pending = 0;             ///< In-order deliveries not yet acked.
    std::int64_t last_echo = -1;
    Simulator::EventId delack = Simulator::kInvalidEvent;
  };

  void emit_ack(FlowState& s, std::int32_t flow, std::int64_t echo, TimeNs now);
  DcfMac* mac_of(NodeId n) const {
    auto it = macs_.find(n);
    return it == macs_.end() ? nullptr : it->second;
  }

  Simulator& sim_;
  TraceSink* trace_;
  CheckContext* check_;
  std::unordered_map<NodeId, DcfMac*> macs_;
  std::unordered_map<std::int32_t, FlowState> flows_;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t acks_relayed_ = 0;
  std::uint64_t acks_delivered_ = 0;
};

}  // namespace e2efa
