#include "phy/channel.hpp"

#include "check/check.hpp"
#include "ctrl/messages.hpp"
#include "util/assert.hpp"

namespace e2efa {

Channel::Channel(Simulator& sim, const Topology& topo) : sim_(sim), topo_(topo) {
  nodes_.resize(static_cast<std::size_t>(topo.node_count()));
}

void Channel::attach(NodeId n, PhyListener* listener) {
  E2EFA_ASSERT(listener != nullptr);
  E2EFA_ASSERT_MSG(state(n).listener == nullptr, "node already attached");
  state(n).listener = listener;
}

Channel::NodeState& Channel::state(NodeId n) {
  E2EFA_ASSERT(n >= 0 && n < static_cast<NodeId>(nodes_.size()));
  return nodes_[static_cast<std::size_t>(n)];
}

const Channel::NodeState& Channel::state(NodeId n) const {
  E2EFA_ASSERT(n >= 0 && n < static_cast<NodeId>(nodes_.size()));
  return nodes_[static_cast<std::size_t>(n)];
}

bool Channel::transmitting(NodeId n) const { return state(n).tx_end > sim_.now(); }

bool Channel::medium_busy(NodeId n) const {
  const NodeState& s = state(n);
  return s.interferers > 0 || transmitting(n);
}

bool Channel::idle_during(NodeId n, TimeNs from) const {
  const NodeState& s = state(n);
  const TimeNs now = sim_.now();
  if (s.busy) {
    // Busy right now: idle over [from, now) only if the busy period began
    // exactly at `now` (same-instant transmission — intentional collision
    // semantics) and nothing else intruded earlier.
    return s.busy_since >= now && s.last_busy_end <= from;
  }
  return s.last_busy_end <= from;
}

void Channel::update_busy(NodeId n) {
  NodeState& s = state(n);
  const bool now_busy = s.interferers > 0 || transmitting(n);
  if (now_busy == s.busy) return;
  s.busy = now_busy;
  if (now_busy) {
    s.busy_since = sim_.now();
    if (s.listener) s.listener->on_medium_busy();
  } else {
    s.last_busy_end = sim_.now();
    if (s.listener) s.listener->on_medium_idle();
  }
}

std::uint32_t Channel::acquire_tx_slot() {
  if (tx_free_ != kNilTxSlot) {
    const std::uint32_t slot = tx_free_;
    tx_free_ = tx_pool_[slot].next_free;
    return slot;
  }
  tx_pool_.emplace_back();
  return static_cast<std::uint32_t>(tx_pool_.size() - 1);
}

void Channel::release_tx_slot(std::uint32_t slot) {
  tx_pool_[slot].next_free = tx_free_;
  tx_free_ = slot;
}

TimeNs Channel::transmit(NodeId sender, Frame frame) {
  E2EFA_ASSERT_MSG(!transmitting(sender), "node is already transmitting");
  E2EFA_ASSERT(frame.bytes > 0);
  frame.tx = sender;
  const TimeNs now = sim_.now();
  const TimeNs duration = frame_duration(frame.bytes);
  const TimeNs end = now + duration;
  const std::uint64_t tx_id = next_tx_id_++;

  // A crashed sender's radio deposits no energy anywhere: the frame occupies
  // the node's own transmitter (so its MAC state machine runs as usual and
  // the backlog drains through retry-limit drops) but is invisible on air.
  const bool silent = faults_ != nullptr && !faults_->node_up(sender);
  if (silent) {
    bump(stats_.frames_faulted);
    bump(stats_.faulted_dead);
  } else {
    bump(stats_.frames_transmitted);
    bump(stats_.airtime_ns, static_cast<std::uint64_t>(duration));
  }
  // The transmission's causal span: rx/collision/fault records at
  // end-of-frame chain to it, and for control frames it chains onward to
  // the kCtrlSend record riding the message.
  std::uint32_t tx_span = 0;
  if (trace_ != nullptr && trace_->enabled(TraceEvent::kFrameTx)) {
    tx_span = trace_->new_span();
    trace_->record(
        now, TraceEvent::kFrameTx, static_cast<std::int16_t>(sender),
        static_cast<std::int32_t>(frame.type), frame.rx,
        static_cast<double>(frame.bytes), silent ? 1.0 : 0.0, tx_span,
        frame.ctrl != nullptr ? frame.ctrl->span : 0);
  }
  // Crashed senders still follow the MAC protocol; the oracle sees them too.
  if (check_ != nullptr) check_->on_frame_transmit(frame, now);

  // Half-duplex: transmitting kills any reception in progress at the sender.
  {
    NodeState& s = state(sender);
    if (s.decoding) s.decode_corrupted = true;
    s.tx_end = end;
    update_busy(sender);
  }

  if (!silent) {
    for (NodeId r : topo_.interference_neighbors(sender)) {
      NodeState& s = state(r);
      bool decodable = topo_.has_link(sender, r);
      if (decodable && faults_ != nullptr &&
          (!faults_->node_up(r) || !faults_->link_up(sender, r))) {
        // Dead receiver or downed link: the frame is energy without frame
        // sync — it can interfere but never starts a decode.
        decodable = false;
        bump(stats_.frames_faulted);
        bump(stats_.faulted_dead);
        if (trace_ != nullptr)
          trace_->record(now, TraceEvent::kFrameFaulted,
                         static_cast<std::int16_t>(r), 0, sender,
                         0.0, 0.0, 0, tx_span);
      }
      if (s.interferers == 0 && !transmitting(r) && !s.decoding && decodable) {
        s.decoding = true;
        s.decode_corrupted = false;
        s.decode_tx_id = tx_id;
      } else if (s.decoding) {
        s.decode_corrupted = true;  // overlap ruins the in-progress decode
      }
      ++s.interferers;
      update_busy(r);
    }
  }

  // One end-of-frame event for the whole transmission; it visits the sender
  // and then the neighbors in the same order the per-neighbor events fired.
  const std::uint32_t slot = acquire_tx_slot();
  Transmission& t = tx_pool_[slot];
  t.frame = std::move(frame);
  t.end = end;
  t.tx_id = tx_id;
  t.silent = silent;
  t.span = tx_span;
  sim_.schedule_at(end, [this, slot] { finish_transmission(slot); });
  return end;
}

void Channel::finish_transmission(std::uint32_t slot) {
  Profiler::Scope prof(profiler_, Profiler::Phase::kPhy);
  // Move the record out before any listener runs: a listener could (in
  // principle) transmit, growing the pool and invalidating references.
  const Frame frame = std::move(tx_pool_[slot].frame);
  const std::uint64_t tx_id = tx_pool_[slot].tx_id;
  const TimeNs end = tx_pool_[slot].end;
  const bool silent = tx_pool_[slot].silent;
  const std::uint32_t tx_span = tx_pool_[slot].span;
  release_tx_slot(slot);
  const NodeId sender = frame.tx;

  update_busy(sender);
  if (silent) return;  // no energy was deposited; nothing to undo
  for (NodeId r : topo_.interference_neighbors(sender)) {
    NodeState& s = state(r);
    --s.interferers;
    E2EFA_ASSERT(s.interferers >= 0);
    if (s.decoding && s.decode_tx_id == tx_id) {
      const bool ok = !s.decode_corrupted && !transmitting(r);
      s.decoding = false;
      // Faults may have landed mid-frame (the receiver crashed or the link
      // went down while the frame was in flight), and clean receptions on
      // lossy links are subject to a per-frame error draw.
      if (ok && faults_ != nullptr) {
        if (!faults_->node_up(r) || !faults_->link_up(sender, r)) {
          bump(stats_.frames_faulted);
          bump(stats_.faulted_dead);
          if (trace_ != nullptr)
            trace_->record(end, TraceEvent::kFrameFaulted,
                           static_cast<std::int16_t>(r), 0,
                           sender, 0.0, 0.0, 0, tx_span);
          update_busy(r);
          continue;  // deaf: the crashed/cut receiver sees nothing at all
        }
        if (faults_->lossy(sender, r) && faults_->draw_loss(sender, r)) {
          // Channel-error checksum failure: the receiver reacts exactly as
          // to a collision (EIFS), but the loss is accounted separately.
          bump(stats_.frames_faulted);
          bump(stats_.faulted_loss);
          if (trace_ != nullptr)
            trace_->record(end, TraceEvent::kFrameFaulted,
                           static_cast<std::int16_t>(r), 1,
                           sender, 0.0, 0.0, 0, tx_span);
          if (s.listener) s.listener->on_frame_corrupted(end);
          update_busy(r);
          continue;
        }
      }
      if (ok) {
        bump(stats_.frames_delivered);
        if (trace_ != nullptr)
          trace_->record(
              end, TraceEvent::kFrameRx, static_cast<std::int16_t>(r),
              static_cast<std::int32_t>(frame.type), sender,
              static_cast<double>(frame.bytes), 0.0, 0, tx_span);
        if (check_ != nullptr) check_->on_frame_receive(r, frame, end);
        if (s.listener) s.listener->on_frame_received(frame);
      } else {
        bump(stats_.frames_corrupted);
        bump(stats_.bytes_corrupted, static_cast<std::uint64_t>(frame.bytes));
        if (trace_ != nullptr)
          trace_->record(end, TraceEvent::kFrameCollision,
                         static_cast<std::int16_t>(r), -1,
                         sender, static_cast<double>(frame.bytes),
                         0.0, 0, tx_span);
        if (s.listener) s.listener->on_frame_corrupted(end);
      }
    }
    update_busy(r);
  }
}

}  // namespace e2efa
