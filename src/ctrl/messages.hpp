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
//               and forwards it. Flow arrivals (start_s > 0) only.
//   ADMIT_RSP   the final hop's verdict returned upstream hop-by-hop to the
//               candidate's source. Flow arrivals only.
//
// All messages are fire-and-forget (kCtrl broadcast frames carry no ACK);
// robustness comes from periodic re-advertisement — plus, in hardened mode
// (the AllocAgent's hardened flag, set under faults/churn/mobility), bounded
// retransmission with exponential backoff for the directed kinds, with
// forwarding overheard from the next hop standing in for an ack.
//
// Directed flow-state messages additionally carry a *generation* stamp
// (CtrlMsg::gen): every activity toggle of a flow bumps its generation, and
// receivers drop CONSTRAINT/RATE stamped with a stale generation — a RATE
// composed before the flow departed can never resurrect its lanes.
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
  /// every activity toggle). CONSTRAINT/RATE receivers drop mismatches.
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

/// Traffic and solve counters of one AllocAgent (RunResult::ctrl sums them
/// over every node). Send counters are queued-send side: the MAC's
/// stats().ctrl_sent counts actual transmissions.
struct CtrlAgentStats {
  std::uint64_t hello_sent = 0;       ///< Queued HELLO broadcasts.
  std::uint64_t constraint_sent = 0;  ///< Queued CONSTRAINT messages.
  std::uint64_t rate_sent = 0;        ///< Queued RATE messages.
  std::uint64_t msgs_received = 0;    ///< Decoded control payloads.
  std::uint64_t solves = 0;           ///< Source-local LP solves.
  std::uint64_t ctrl_bytes = 0;       ///< Wire bytes of queued dedicated frames
                                      ///< (piggybacks not included).
  // Hardened-mode counters (all zero unless the agents run hardened — i.e.
  // unless the scenario has faults, churn, or mobility).
  std::uint64_t admit_req_sent = 0;  ///< Queued ADMIT_REQ messages.
  std::uint64_t admit_rsp_sent = 0;  ///< Queued ADMIT_RSP messages.
  std::uint64_t retransmits = 0;     ///< CONSTRAINT/RATE/ADMIT_REQ resends (no ack).
  std::uint64_t seq_gaps = 0;        ///< HELLO sequence gaps detected.
  std::uint64_t stale_dropped = 0;   ///< Msgs dropped for a stale epoch gen.
  std::uint64_t forced_solves = 0;   ///< Degraded solves (quiescence never
                                     ///< reached within the 2 s staleness bound).

  CtrlAgentStats& operator+=(const CtrlAgentStats& o) {
    hello_sent += o.hello_sent;
    constraint_sent += o.constraint_sent;
    rate_sent += o.rate_sent;
    msgs_received += o.msgs_received;
    solves += o.solves;
    ctrl_bytes += o.ctrl_bytes;
    admit_req_sent += o.admit_req_sent;
    admit_rsp_sent += o.admit_rsp_sent;
    retransmits += o.retransmits;
    seq_gaps += o.seq_gaps;
    stale_dropped += o.stale_dropped;
    forced_solves += o.forced_solves;
    return *this;
  }
  bool operator==(const CtrlAgentStats&) const = default;
};

}  // namespace e2efa
