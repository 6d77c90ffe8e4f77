#include "transport/ack_plane.hpp"

#include "ctrl/messages.hpp"
#include "util/assert.hpp"

namespace e2efa {

namespace {
/// Sink-side delayed ACKs: every 2nd in-order packet acks immediately, a
/// straggler acks after this timer; out-of-order and duplicate data always
/// ack immediately (the dupack clock must not be delayed).
constexpr double kDelayedAckS = 0.01;
}  // namespace

void AckPlane::add_flow(std::int32_t flow, std::vector<NodeId> path,
                        TransportSource* source) {
  E2EFA_ASSERT(path.size() >= 2);
  E2EFA_ASSERT(source != nullptr);
  FlowState s;
  s.path = std::move(path);
  s.source = source;
  flows_.emplace(flow, std::move(s));
}

bool AckPlane::on_final_delivery(const Packet& p, TimeNs now) {
  auto it = flows_.find(p.flow);
  if (it == flows_.end()) return true;  // not an elastic flow
  FlowState& s = it->second;
  if (p.seq <= s.cumack || s.ooo.count(p.seq) != 0) {
    // Duplicate data (a spurious retransmission): re-ack immediately so
    // the source's ledger converges.
    emit_ack(s, p.flow, p.seq, now);
    return false;
  }
  if (p.seq == s.cumack + 1) {
    ++s.cumack;
    while (!s.ooo.empty() && *s.ooo.begin() == s.cumack + 1) {
      s.ooo.erase(s.ooo.begin());
      ++s.cumack;
    }
    ++s.pending;
    s.last_echo = p.seq;
    if (s.pending >= 2) {
      emit_ack(s, p.flow, p.seq, now);
    } else if (s.delack == Simulator::kInvalidEvent) {
      const std::int32_t flow = p.flow;
      s.delack = sim_.schedule_in(from_seconds(kDelayedAckS),
                                  [this, flow] {
                                    auto fit = flows_.find(flow);
                                    if (fit == flows_.end()) return;
                                    FlowState& fs = fit->second;
                                    fs.delack = Simulator::kInvalidEvent;
                                    if (fs.pending > 0)
                                      emit_ack(fs, flow, fs.last_echo, sim_.now());
                                  });
    }
  } else {
    // A hole opened: ack immediately with the unchanged cumack — this is
    // the duplicate-ACK clock fast retransmit depends on.
    s.ooo.insert(p.seq);
    emit_ack(s, p.flow, p.seq, now);
  }
  return true;
}

void AckPlane::emit_ack(FlowState& s, std::int32_t flow, std::int64_t echo,
                        TimeNs now) {
  s.pending = 0;
  if (s.delack != Simulator::kInvalidEvent) {
    sim_.cancel(s.delack);
    s.delack = Simulator::kInvalidEvent;
  }
  const NodeId sink = s.path.back();
  auto msg = std::make_shared<CtrlMsg>();
  msg->kind = CtrlMsg::Kind::kTransAck;
  msg->origin = sink;
  msg->to = s.path[s.path.size() - 2];
  msg->flow = flow;
  msg->cumack = s.cumack;
  msg->echo_seq = echo;
  if (trace_ != nullptr && trace_->enabled(TraceEvent::kTransAckTx)) {
    msg->span = trace_->new_span();
    trace_->record(
        now, TraceEvent::kTransAckTx, static_cast<std::int16_t>(sink), flow,
        msg->to, static_cast<double>(s.cumack), static_cast<double>(echo),
        msg->span, 0);
  }
  if (check_ != nullptr) check_->on_transport_cumack(sink, flow, s.cumack, now);
  if (DcfMac* mac = mac_of(sink); mac != nullptr) {
    mac->send_ctrl(msg, msg->wire_bytes());
    ++acks_sent_;
  }
}

void AckPlane::on_ctrl_frame(NodeId self, const Frame& f) {
  const CtrlMsg& m = *f.ctrl;
  if (m.kind != CtrlMsg::Kind::kTransAck) return;
  if (m.to != self) return;  // overheard, addressed to another hop
  auto it = flows_.find(m.flow);
  if (it == flows_.end()) return;
  FlowState& s = it->second;
  std::size_t pos = s.path.size();
  for (std::size_t i = 0; i < s.path.size(); ++i)
    if (s.path[i] == self) {
      pos = i;
      break;
    }
  if (pos == s.path.size()) return;  // not on this flow's path
  const TimeNs now = sim_.now();
  if (pos == 0) {
    // Reached the source: hand the ACK clock to the controller.
    std::uint32_t span = 0;
    if (trace_ != nullptr && trace_->enabled(TraceEvent::kTransAckRx)) {
      span = trace_->new_span();
      trace_->record(
          now, TraceEvent::kTransAckRx, static_cast<std::int16_t>(self),
          m.flow, m.origin, static_cast<double>(m.cumack),
          static_cast<double>(m.echo_seq), span, m.span);
    }
    ++acks_delivered_;
    s.source->on_ack(m.cumack, m.echo_seq, now, span);
    return;
  }
  // Relay one hop further upstream.
  auto fwd = std::make_shared<CtrlMsg>(m);
  fwd->to = s.path[pos - 1];
  fwd->span = 0;
  if (trace_ != nullptr && trace_->enabled(TraceEvent::kTransAckTx)) {
    fwd->span = trace_->new_span();
    trace_->record(
        now, TraceEvent::kTransAckTx, static_cast<std::int16_t>(self), m.flow,
        fwd->to, static_cast<double>(m.cumack),
        static_cast<double>(m.echo_seq), fwd->span, m.span);
  }
  if (DcfMac* mac = mac_of(self); mac != nullptr) {
    mac->send_ctrl(fwd, fwd->wire_bytes());
    ++acks_relayed_;
  }
}

}  // namespace e2efa
