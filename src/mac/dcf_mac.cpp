#include "mac/dcf_mac.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "ctrl/messages.hpp"
#include "util/assert.hpp"

namespace e2efa {

DcfMac::DcfMac(Simulator& sim, Channel& channel, NodeId self, const MacConfig& cfg,
               TxQueue& queue, BackoffPolicy& backoff, MacCallbacks& callbacks, Rng rng,
               TagScheduler* tags)
    : sim_(sim),
      channel_(channel),
      self_(self),
      cfg_(cfg),
      queue_(queue),
      backoff_(backoff),
      callbacks_(callbacks),
      rng_(rng),
      tags_(tags) {
  channel_.attach(self_, this);
}

TimeNs DcfMac::data_bytes(const Packet& p) const {
  return kDataHeaderBytes + p.payload_bytes;
}

void DcfMac::attach_tag(Frame& f) const {
  if (tags_ == nullptr || !queue_.has_packet()) return;
  f.service_tag = tags_->head_tag();
  f.tag_subflow = tags_->head_subflow();
  f.has_service_tag = true;
}

void DcfMac::attach_piggyback(Frame& f) {
  if (piggyback_ == nullptr) return;
  int extra = 0;
  std::shared_ptr<const CtrlMsg> payload = piggyback_->piggyback_payload(&extra);
  if (payload == nullptr) return;
  E2EFA_ASSERT_MSG(extra > 0 && extra <= kCtrlPiggybackMax,
                   "piggyback payload exceeds the budgeted allowance");
  f.ctrl = std::move(payload);
  f.bytes += extra;
}

// ---------------------------------------------------------------- access

void DcfMac::notify_queue_nonempty() {
  if (state_ == State::kIdle && queue_.has_packet()) start_access(/*redraw=*/true);
}

void DcfMac::send_ctrl(std::shared_ptr<const CtrlMsg> msg, int bytes) {
  E2EFA_ASSERT(msg != nullptr && bytes > 0);
  ctrl_q_.push_back(CtrlEntry{std::move(msg), bytes});
  if (state_ == State::kIdle) start_access(/*redraw=*/true);
}

void DcfMac::start_access(bool redraw) {
  const bool have_data = queue_.has_packet();
  if (!have_data && ctrl_q_.empty()) {
    state_ = State::kIdle;
    return;
  }
  state_ = State::kContend;
  if (redraw || !backoff_drawn_) {
    if (have_data) {
      backoff_remaining_ = backoff_.draw_slots(rng_, retries_, sim_.now());
      // The Q/R arguments walk the tag table — gate on the category, not
      // just the sink, so a filtered trace costs nothing here.
      if (trace_ != nullptr && trace_->enabled(TraceEvent::kBackoffDraw))
        trace_->record(
            sim_.now(), TraceEvent::kBackoffDraw,
            static_cast<std::int16_t>(self_), backoff_remaining_, retries_,
            tags_ != nullptr ? tags_->q_slots(sim_.now()) : 0.0,
            tags_ != nullptr ? tags_->head_last_r() : 0.0);
      if (check_ != nullptr) {
        const double lag =
            tags_ != nullptr
                ? std::max({tags_->q_slots(sim_.now()), tags_->head_last_r(), 0.0})
                : 0.0;
        check_->on_backoff_draw(self_, backoff_remaining_, retries_, lag,
                                /*ctrl_only=*/false, sim_.now());
      }
    } else {
      // Control-only backlog: the BackoffPolicy reads the scheduler head
      // (empty here), so draw uniformly from the MAC's own stream instead.
      backoff_remaining_ =
          1 + static_cast<int>(rng_.uniform_u64(static_cast<std::uint64_t>(kCtrlCw) + 1));
      if (check_ != nullptr)
        check_->on_backoff_draw(self_, backoff_remaining_, retries_, 0.0,
                                /*ctrl_only=*/true, sim_.now());
    }
    backoff_drawn_ = true;
  }
  step_is_first_ = true;
  arm_step();
}

bool DcfMac::virtual_busy() const {
  return nav_until_ > sim_.now() || eifs_until_ > sim_.now();
}

void DcfMac::cancel_step() {
  if (step_event_ != Simulator::kInvalidEvent) {
    sim_.cancel(step_event_);
    step_event_ = Simulator::kInvalidEvent;
  }
}

void DcfMac::arm_step() {
  if (state_ != State::kContend || step_event_ != Simulator::kInvalidEvent) return;
  // Physical carrier busy: resume via on_medium_idle.
  if (channel_.medium_busy(self_)) {
    step_is_first_ = true;
    return;
  }
  const TimeNs start = std::max({sim_.now(), nav_until_, eifs_until_});
  if (start > sim_.now()) step_is_first_ = true;
  const TimeNs required = step_is_first_ ? kDifs + kSlot : kSlot;
  step_time_ = start + required;
  step_event_ = sim_.schedule_at(step_time_, [this] { on_step(); });
}

void DcfMac::on_step() {
  step_event_ = Simulator::kInvalidEvent;
  if (state_ != State::kContend) return;
  const TimeNs required = step_is_first_ ? kDifs + kSlot : kSlot;
  const TimeNs from = sim_.now() - required;
  const bool clean = channel_.idle_during(self_, from) && nav_until_ <= from &&
                     eifs_until_ <= from;
  if (!clean) {
    step_is_first_ = true;
    arm_step();
    return;
  }
  step_is_first_ = false;
  if (--backoff_remaining_ <= 0) {
    if (!ctrl_q_.empty()) {
      send_ctrl_frame();  // tiny and rare: control wins over the data queue
    } else if (cfg_.use_rts_cts) {
      send_rts();
    } else {
      send_data();  // basic access: straight to DATA after backoff
    }
  } else {
    arm_step();
  }
}

void DcfMac::on_medium_busy() {
  // Keep a step that fires at this very instant: a transmission starting in
  // the same slot boundary must not suppress ours (both collide, as in real
  // slotted CSMA). Later steps are stale; drop them.
  if (step_event_ != Simulator::kInvalidEvent && step_time_ > sim_.now()) {
    cancel_step();
    step_is_first_ = true;
  }
}

void DcfMac::on_medium_idle() {
  if (state_ == State::kContend) {
    step_is_first_ = true;
    arm_step();
  }
}

void DcfMac::on_frame_corrupted(TimeNs) {
  // EIFS: give the (possibly damaged) exchange room to finish its ACK.
  eifs_until_ = std::max(eifs_until_, sim_.now() + kSifs + dur(kAckBytes) + kDifs);
}

// ---------------------------------------------------------------- sender

void DcfMac::send_rts() {
  E2EFA_ASSERT(queue_.has_packet());
  const Packet& p = queue_.head();
  Frame f;
  f.type = FrameType::kRts;
  f.rx = p.dst;
  f.bytes = kRtsBytes;
  f.nav = kSifs + dur(kCtsBytes) + kSifs + dur(static_cast<int>(data_bytes(p))) +
          kSifs + dur(kAckBytes);
  attach_tag(f);
  attach_piggyback(f);
  const TimeNs end = channel_.transmit(self_, f);
  ++stats_.rts_sent;
  state_ = State::kWaitCts;
  // With a piggyback source installed the responder's CTS may be longer
  // than the base size; widen the wait by the bounded allowance.
  const int cts_budget = kCtsBytes + (piggyback_ != nullptr ? kCtrlPiggybackMax : 0);
  const TimeNs deadline = end + kSifs + dur(cts_budget) + 2 * kSlot;
  timeout_event_ = sim_.schedule_at(deadline, [this] { on_timeout(); });
}

void DcfMac::on_cts(const Frame&) {
  sim_.cancel(timeout_event_);
  timeout_event_ = Simulator::kInvalidEvent;
  state_ = State::kSendData;
  sim_.schedule_in(kSifs, [this] { send_data(); });
}

void DcfMac::send_data() {
  E2EFA_ASSERT(queue_.has_packet());
  const Packet& p = queue_.head();
  Frame f;
  f.type = FrameType::kData;
  f.rx = p.dst;
  f.bytes = static_cast<int>(data_bytes(p));
  f.nav = kSifs + dur(kAckBytes);
  f.packet = p;
  attach_tag(f);
  const TimeNs end = channel_.transmit(self_, f);
  ++stats_.data_sent;
  state_ = State::kWaitAck;
  const TimeNs deadline = end + kSifs + dur(kAckBytes) + 2 * kSlot;
  timeout_event_ = sim_.schedule_at(deadline, [this] { on_timeout(); });
}

void DcfMac::on_ack(const Frame& f) {
  sim_.cancel(timeout_event_);
  timeout_event_ = Simulator::kInvalidEvent;
  const Packet p = queue_.pop_success(sim_.now());
  if (tags_ != nullptr) tags_->store_ack_r(p.subflow, f.ack_backoff_r);
  callbacks_.on_packet_sent(p);
  finish_attempt(/*success=*/true);
}

void DcfMac::on_timeout() {
  timeout_event_ = Simulator::kInvalidEvent;
  ++stats_.timeouts;
  ++retries_;
  if (trace_ != nullptr)
    trace_->record(sim_.now(), TraceEvent::kMacRetry,
                   static_cast<std::int16_t>(self_), retries_, -1);
  if (retries_ > kRetryLimit) {
    const Packet p = queue_.pop_drop(sim_.now());
    ++stats_.retry_drops;
    if (trace_ != nullptr)
      trace_->record(sim_.now(), TraceEvent::kMacDrop,
                     static_cast<std::int16_t>(self_), p.subflow,
                     retries_);
    callbacks_.on_packet_dropped(p);
    finish_attempt(/*success=*/true);  // fresh packet, fresh attempt
    return;
  }
  finish_attempt(/*success=*/false);
}

void DcfMac::finish_attempt(bool success) {
  if (success) retries_ = 0;
  backoff_drawn_ = false;
  if (has_work()) {
    start_access(/*redraw=*/true);
  } else {
    state_ = State::kIdle;
  }
}

// ---------------------------------------------------------- control plane

void DcfMac::send_ctrl_frame() {
  E2EFA_ASSERT(!ctrl_q_.empty());
  CtrlEntry e = std::move(ctrl_q_.front());
  ctrl_q_.pop_front();
  Frame f;
  f.type = FrameType::kCtrl;
  f.rx = kInvalidNode;  // broadcast: every link neighbor decodes it
  f.bytes = e.bytes;
  f.nav = 0;
  f.ctrl = std::move(e.msg);
  const TimeNs end = channel_.transmit(self_, f);
  ++stats_.ctrl_sent;
  state_ = State::kTxCtrl;
  backoff_drawn_ = false;
  sim_.schedule_at(end, [this] {
    if (state_ != State::kTxCtrl) return;
    state_ = State::kIdle;
    if (has_work()) start_access(/*redraw=*/true);
  });
}

// -------------------------------------------------------------- receiver

void DcfMac::on_rts(const Frame& f) {
  const bool can_respond = (state_ == State::kIdle || state_ == State::kContend) &&
                           nav_until_ <= sim_.now() && !channel_.transmitting(self_);
  if (!can_respond) return;
  cancel_step();
  state_ = State::kRxExchange;
  rx_peer_ = f.tx;
  rx_has_tag_ = f.has_service_tag;
  rx_tag_ = f.service_tag;
  rx_tag_subflow_ = f.tag_subflow;
  rx_nav_remaining_ = f.nav;

  sim_.schedule_in(kSifs, [this] {
    if (state_ != State::kRxExchange) return;
    Frame cts;
    cts.type = FrameType::kCts;
    cts.rx = rx_peer_;
    cts.bytes = kCtsBytes;
    cts.nav = rx_nav_remaining_ - kSifs - dur(kCtsBytes);
    if (rx_has_tag_) {
      cts.service_tag = rx_tag_;
      cts.tag_subflow = rx_tag_subflow_;
      cts.has_service_tag = true;
    }
    attach_piggyback(cts);
    const TimeNs end = channel_.transmit(self_, cts);
    ++stats_.cts_sent;
    // If the DATA never materializes, abandon the exchange.
    const TimeNs deadline = end + cts.nav + kSlot;
    timeout_event_ = sim_.schedule_at(deadline, [this] {
      timeout_event_ = Simulator::kInvalidEvent;
      end_rx_exchange();
    });
  });
}

void DcfMac::on_data(const Frame& f) {
  E2EFA_ASSERT(f.packet.has_value());
  const bool expected = state_ == State::kRxExchange && f.tx == rx_peer_;
  const bool opportunistic = (state_ == State::kIdle || state_ == State::kContend) &&
                             !channel_.transmitting(self_);
  if (!expected && !opportunistic) return;
  if (expected && timeout_event_ != Simulator::kInvalidEvent) {
    sim_.cancel(timeout_event_);
    timeout_event_ = Simulator::kInvalidEvent;
  }
  if (opportunistic) {
    cancel_step();
    state_ = State::kRxExchange;
    rx_peer_ = f.tx;
  }
  callbacks_.on_packet_delivered(*f.packet);

  Frame ack;
  ack.type = FrameType::kAck;
  ack.rx = f.tx;
  ack.bytes = kAckBytes;
  ack.nav = 0;
  if (f.has_service_tag) {
    ack.service_tag = f.service_tag;
    ack.tag_subflow = f.tag_subflow;
    ack.has_service_tag = true;
  }
  if (tags_ != nullptr) ack.ack_backoff_r = tags_->r_slots_for(f.packet->subflow, sim_.now());
  sim_.schedule_in(kSifs, [this, ack] {
    if (state_ != State::kRxExchange) return;
    const TimeNs end = channel_.transmit(self_, ack);
    ++stats_.ack_sent;
    sim_.schedule_at(end, [this] { end_rx_exchange(); });
  });
}

void DcfMac::end_rx_exchange() {
  if (state_ != State::kRxExchange) return;
  rx_peer_ = kInvalidNode;
  rx_has_tag_ = false;
  state_ = State::kIdle;
  if (has_work()) start_access(/*redraw=*/false);  // keep frozen counter
}

// ------------------------------------------------------------- dispatch

void DcfMac::on_frame_received(const Frame& f) {
  if (f.has_service_tag && tags_ != nullptr) tags_->observe_tag(f.tag_subflow, f.service_tag, sim_.now());

  // Control payloads ride on broadcast kCtrl frames and on overheard
  // RTS/CTS piggybacks alike — surface them before the unicast filter.
  // Transport ACKs go to their own listener; agents never see them.
  if (f.ctrl != nullptr) {
    if (f.ctrl->kind == CtrlMsg::Kind::kTransAck) {
      if (transport_listener_) transport_listener_(f);
    } else if (ctrl_listener_) {
      ctrl_listener_(f);
    }
  }
  if (f.type == FrameType::kCtrl) return;  // no NAV, no handshake role

  if (f.rx != self_) {
    // Overheard: virtual carrier sense.
    nav_until_ = std::max(nav_until_, sim_.now() + f.nav);
    return;
  }
  switch (f.type) {
    case FrameType::kRts:
      on_rts(f);
      break;
    case FrameType::kCts:
      if (state_ == State::kWaitCts && queue_.has_packet() && f.tx == queue_.head().dst)
        on_cts(f);
      break;
    case FrameType::kData:
      on_data(f);
      break;
    case FrameType::kAck:
      if (state_ == State::kWaitAck && queue_.has_packet() && f.tx == queue_.head().dst)
        on_ack(f);
      break;
    case FrameType::kCtrl:
      break;  // handled above
  }
}

}  // namespace e2efa
