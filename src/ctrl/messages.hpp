// Allocation-control messages (the in-band form of Sec. IV-B's phase 1).
//
// Four message kinds carry the distributed algorithm's state over the
// simulated MAC instead of an out-of-band oracle:
//
//   HELLO       broadcast, periodic: the sender's Own(v) — the active
//               subflows it overhears — with a sequence number so receivers
//               can replace stale tables wholesale.
//   HELLO_DELTA piggybacked on RTS/CTS: a small additive table delta (or an
//               empty liveness beacon). Receivers merge it only when its
//               sequence number matches the full table they already hold.
//   CONSTRAINT  directed upstream along a flow: the accumulated clique set
//               ⋃ local cliques over the flow's transmitting nodes from
//               this hop downstream. The source's accumulation therefore
//               converges to the union over the whole path.
//   RATE        directed downstream along a flow: the source's solved share;
//               every transmitting hop applies it to its TagScheduler lane
//               and forwards it on.
//   ADMIT_REQ   directed downstream along a *candidate* flow's path before
//               it starts: each transmitting hop evaluates the local
//               clique-bound admission check (src/ctrl/admission.hpp) over
//               its current knowledge, ANDs its verdict into the message,
//               and forwards it. Hardened mode only.
//   ADMIT_RSP   the final hop's verdict returned upstream hop-by-hop to the
//               candidate's source. Hardened mode only.
//
// All messages are fire-and-forget (kCtrl broadcast frames carry no ACK);
// robustness comes from periodic re-advertisement — plus, in hardened mode
// (the AllocAgent's hardened flag, set under faults/churn/mobility), bounded
// retransmission with exponential backoff for the directed kinds, with
// forwarding overheard from the next hop standing in for an ack.
//
// Directed flow-state messages additionally carry a *generation* stamp
// (CtrlMsg::gen): every activity toggle of a flow bumps its generation, and
// hardened receivers drop CONSTRAINT/RATE stamped with a stale generation —
// a RATE composed before the flow departed can never resurrect its lanes.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/flow.hpp"
#include "topology/topology.hpp"

namespace e2efa {

struct CtrlMsg {
  enum class Kind : std::uint8_t {
    kHello = 0,
    kHelloDelta = 1,
    kConstraint = 2,
    kRate = 3,
    kAdmitReq = 4,
    kAdmitRsp = 5,
    /// Transport-layer cumulative ACK (src/transport/ack_plane.hpp):
    /// directed upstream hop-by-hop along an elastic flow's path from sink
    /// to source. Never enters the allocation plane — the MAC dispatches it
    /// to its transport listener instead of the AllocAgent.
    kTransAck = 6,
  };

  Kind kind = Kind::kHello;
  NodeId origin = kInvalidNode;  ///< Node that composed the message.
  NodeId to = kInvalidNode;      ///< Directed target; kInvalidNode = broadcast.
  std::uint32_t seq = 0;         ///< Origin-local sequence per message stream.
  FlowId flow = -1;              ///< kConstraint/kRate/kAdmit*: subject flow.
  /// Epoch generation of `flow` when the message was composed (bumped on
  /// every activity toggle). Hardened receivers drop mismatches.
  std::uint16_t gen = 0;
  /// kHello: the full Own set; kHelloDelta: ids added since `seq` began;
  /// kAdmitReq: the candidate's subflow ids (its path travels with it).
  std::vector<int> subflows;
  /// kConstraint: accumulated cliques (ascending global subflow ids each).
  std::vector<std::vector<int>> cliques;
  double rate = 0.0;  ///< kRate: allocated share in units of B.
  /// kAdmitReq/kAdmitRsp: AND of the verdicts of the hops visited so far.
  bool admit_ok = true;
  /// kTransAck: highest in-order data sequence delivered at the sink.
  std::int64_t cumack = -1;
  /// kTransAck: data sequence whose arrival triggered this ACK (the
  /// source's RTT / delivery-rate probe).
  std::int64_t echo_seq = -1;
  /// Causal span id of the kCtrlSend trace record that emitted this message
  /// (0 when tracing is off/filtered). Observability only: it rides the
  /// simulated message so the receiver's kCtrlRecv record can point at the
  /// send that caused it, and is *not* part of the modeled wire size.
  std::uint32_t span = 0;

  /// Modeled wire size in bytes (drives airtime and the overhead metric):
  /// a 12-byte header (kind, origin, to, seq, flow, generation, verdict
  /// bit), 2 bytes per subflow id, 1 + 2·|members| per clique, 8 bytes for
  /// a rate, 12 bytes for a transport ack (cumack + echo).
  int wire_bytes() const;
};

const char* to_string(CtrlMsg::Kind k);

}  // namespace e2efa
