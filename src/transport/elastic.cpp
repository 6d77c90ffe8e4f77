#include "transport/elastic.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace e2efa {

std::atomic<std::uint64_t> ElasticTransport::next_uid_{1};

namespace {
/// Elastic sources have no fixed interval, so the decorrelating start phase
/// draws from a fixed 5 ms window (one RNG draw, like CbrTransport's).
constexpr TimeNs kPhaseWindow = 5 * kMillisecond;
constexpr double kRtoInitialS = 1.0;  ///< RTO before the first RTT sample.
constexpr double kRtoMinS = 0.2;
constexpr double kRtoMaxS = 4.0;
}  // namespace

ElasticTransport::ElasticTransport(Simulator& sim, int payload_bytes,
                                   std::function<void(Packet)> emit,
                                   Rng& phase_rng, std::int32_t flow,
                                   NodeId source_node, TraceSink* trace,
                                   CheckContext* check)
    : sim_(sim),
      payload_bytes_(payload_bytes),
      emit_(std::move(emit)),
      flow_(flow),
      node_(source_node),
      trace_(trace),
      check_(check) {
  E2EFA_ASSERT(payload_bytes > 0);
  E2EFA_ASSERT(emit_ != nullptr);
  phase_draw_ = phase_rng.uniform_u64(static_cast<std::uint64_t>(kPhaseWindow));
  phase_ = static_cast<TimeNs>(phase_draw_);
}

void ElasticTransport::start(TimeNs until) {
  until_ = until;
  started_ = true;
  sim_.schedule_at(sim_.now() + phase_, [this] { pump(); });
}

TransportTelemetry ElasticTransport::telemetry() const {
  TransportTelemetry t;
  t.cwnd = cwnd();
  t.srtt_s = srtt_s_;
  t.delivery_rate_pps = delivery_rate_pps_;
  t.retransmits = retransmits_;
  t.timeouts = timeouts_;
  return t;
}

void ElasticTransport::pump() {
  if (!started_) return;
  const double pace = pacing_interval_s();
  if (pace < 0.0) {
    // Window-limited: release everything the window admits right now.
    while (sim_.now() < until_ && inflight() + 1.0 <= cwnd() + 1e-9)
      send_new(sim_.now());
    return;
  }
  // Paced: one packet per interval, the window acting as a hard cap. A
  // closed window simply leaves no timer armed — the next ACK re-pumps.
  if (pace_event_ != Simulator::kInvalidEvent) return;
  const TimeNs now = sim_.now();
  if (now >= until_) return;
  if (inflight() + 1.0 > cwnd() + 1e-9) return;
  pace_event_ = sim_.schedule_at(std::max(now, next_pace_), [this] {
    pace_event_ = Simulator::kInvalidEvent;
    on_pace();
  });
}

void ElasticTransport::on_pace() {
  const TimeNs now = sim_.now();
  if (now >= until_) return;
  if (inflight() + 1.0 <= cwnd() + 1e-9) {
    send_new(now);
    const double interval = std::max(pacing_interval_s(), kMinPacingIntervalS);
    next_pace_ = now + from_seconds(interval);
  }
  pump();
}

void ElasticTransport::send_new(TimeNs now) {
  const std::int64_t seq = next_seq_++;
  SendRecord rec;
  rec.sent = now;
  rec.created = now;
  rec.delivered_at_send = delivered_;
  outstanding_.emplace(seq, rec);
  if (check_ != nullptr)
    check_->on_transport_send(node_, flow_, seq, /*retransmit=*/false, cwnd(),
                              now);
  if (trace_ != nullptr && trace_->enabled(TraceEvent::kTransSend))
    trace_->record(
        now, TraceEvent::kTransSend, static_cast<std::int16_t>(node_), flow_, 0,
        static_cast<double>(seq), cwnd(), 0, last_ack_span_);
  Packet p;
  p.uid = next_uid_.fetch_add(1, std::memory_order_relaxed);
  p.seq = seq;
  p.payload_bytes = payload_bytes_;
  p.created = now;
  emit_(p);
  if (rto_event_ == Simulator::kInvalidEvent) arm_rto(now);
}

void ElasticTransport::retransmit(std::int64_t seq, bool timeout, TimeNs now) {
  if (now >= until_) return;  // run ending: let the simulation drain
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;
  ++retransmits_;
  it->second.retransmitted = true;
  it->second.sent = now;
  it->second.delivered_at_send = delivered_;
  if (check_ != nullptr)
    check_->on_transport_send(node_, flow_, seq, /*retransmit=*/true, cwnd(),
                              now);
  if (trace_ != nullptr && trace_->enabled(TraceEvent::kTransRetransmit))
    trace_->record(
        now, TraceEvent::kTransRetransmit, static_cast<std::int16_t>(node_),
        flow_, timeout ? 1 : 0, static_cast<double>(seq), cwnd(), 0,
        last_ack_span_);
  Packet p;
  p.uid = next_uid_.fetch_add(1, std::memory_order_relaxed);
  p.seq = seq;
  p.payload_bytes = payload_bytes_;
  p.created = it->second.created;
  emit_(p);
  if (rto_event_ == Simulator::kInvalidEvent) arm_rto(now);
}

void ElasticTransport::on_ack(std::int64_t cumack, std::int64_t echo_seq,
                              TimeNs now, std::uint32_t cause_span) {
  if (!started_) return;
  last_ack_span_ = cause_span;
  if (cumack > cumack_) {
    const std::int64_t newly = cumack - cumack_;
    std::optional<SendRecord> echo;  // copy: the erase below invalidates it
    if (auto it = outstanding_.find(echo_seq); it != outstanding_.end())
      echo = it->second;
    double rtt_s = -1.0;
    delivered_ += newly;
    if (echo && !echo->retransmitted && now > echo->sent) {
      // Karn: only never-retransmitted echoes yield RTT / rate samples.
      rtt_s = to_seconds(now - echo->sent);
      if (!has_srtt_) {
        srtt_s_ = rtt_s;
        rttvar_s_ = rtt_s / 2.0;
        has_srtt_ = true;
      } else {
        rttvar_s_ = 0.75 * rttvar_s_ + 0.25 * std::abs(srtt_s_ - rtt_s);
        srtt_s_ = 0.875 * srtt_s_ + 0.125 * rtt_s;
      }
      delivery_rate_pps_ = static_cast<double>(delivered_ - echo->delivered_at_send) / rtt_s;
    }
    // Any forward progress clears the exponential backoff (not just a
    // Karn-valid sample: ACKs here ride lossy fire-and-forget control
    // frames, and a backoff that only a pristine RTT probe can clear
    // escalates to rto_max and starves the flow for seconds).
    rto_backoff_ = 0;
    outstanding_.erase(outstanding_.begin(), outstanding_.upper_bound(cumack));
    cumack_ = cumack;
    dupacks_ = 0;
    if (check_ != nullptr) check_->on_transport_ack(node_, flow_, cumack, now);
    on_newly_acked(newly, echo, rtt_s, now);
    arm_rto(now);
  } else if (cumack == cumack_) {
    ++dupacks_;
    if (check_ != nullptr) check_->on_transport_ack(node_, flow_, cumack, now);
    if (dupacks_ % kDupackThreshold == 0) {
      // Every further kDupackThreshold dupacks re-signals the same hole — the
      // fast retransmit itself may have been lost.
      on_dupack_loss(now);
      retransmit(cumack_ + 1, /*timeout=*/false, now);
    }
  }
  // cumack < cumack_: a reordered stale ACK; cumulative state ignores it.
  trace_cwnd(now);
  pump();
}

void ElasticTransport::arm_rto(TimeNs now) {
  if (rto_event_ != Simulator::kInvalidEvent) {
    sim_.cancel(rto_event_);
    rto_event_ = Simulator::kInvalidEvent;
  }
  if (outstanding_.empty()) return;
  rto_event_ = sim_.schedule_at(now + from_seconds(current_rto_s()), [this] {
    rto_event_ = Simulator::kInvalidEvent;
    on_rto_fire();
  });
}

double ElasticTransport::current_rto_s() const {
  double base = has_srtt_ ? srtt_s_ + 4.0 * rttvar_s_ : kRtoInitialS;
  base = std::clamp(base, kRtoMinS, kRtoMaxS);
  const double scaled =
      base * static_cast<double>(std::uint64_t{1} << std::min(rto_backoff_, 16));
  return std::min(scaled, kRtoMaxS);
}

void ElasticTransport::on_rto_fire() {
  const TimeNs now = sim_.now();
  if (outstanding_.empty() || now >= until_) return;
  ++timeouts_;
  if (trace_ != nullptr && trace_->enabled(TraceEvent::kTransTimeout))
    trace_->record(
        now, TraceEvent::kTransTimeout, static_cast<std::int16_t>(node_), flow_,
        rto_backoff_, current_rto_s(), srtt_s_);
  if (rto_backoff_ < 16) ++rto_backoff_;
  dupacks_ = 0;
  if (check_ != nullptr) check_->on_transport_timeout(node_, flow_, now);
  on_rto_event(now);
  retransmit(outstanding_.begin()->first, /*timeout=*/true, now);
  arm_rto(now);
  trace_cwnd(now);
  pump();
}

void ElasticTransport::trace_cwnd(TimeNs now) {
  if (trace_ == nullptr || !trace_->enabled(TraceEvent::kTransCwnd)) return;
  const double w = cwnd();
  if (last_traced_cwnd_ >= 0.0 && std::floor(w) == std::floor(last_traced_cwnd_))
    return;
  last_traced_cwnd_ = w;
  trace_->record(now, TraceEvent::kTransCwnd,
                 static_cast<std::int16_t>(node_), flow_,
                 0, w, srtt_s_);
}

}  // namespace e2efa
