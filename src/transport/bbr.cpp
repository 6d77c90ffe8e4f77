#include "transport/bbr.hpp"

#include <algorithm>

namespace e2efa {

namespace {
constexpr double kProbeGains[8] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
constexpr double kMinRttPrior = 0.2;    ///< Before the first RTT sample.
constexpr int kFullBwRounds = 3;        ///< Flat rounds ⇒ pipe is full.
constexpr double kStartupGain = 2.885;  ///< 2/ln 2: doubles delivery per RTT.
constexpr double kCwndGain = 2.0;       ///< Inflight cap = gain · BDP.
constexpr double kBwWindowS = 2.0;      ///< Windowed-max delivery-rate horizon.
constexpr double kRttWindowS = 10.0;    ///< Windowed-min RTT horizon.
constexpr double kInitBwPps = 50.0;     ///< Bottleneck-rate prior before samples.
}  // namespace

double BbrTransport::btl_bw_pps() const {
  return bw_max_.empty() ? kInitBwPps : bw_max_.front().v;
}

double BbrTransport::min_rtt_s() const {
  return rtt_min_.empty() ? kMinRttPrior : rtt_min_.front().v;
}

double BbrTransport::cwnd() const {
  const double cap = kCwndGain * bdp_pkts();
  return std::clamp(cap, 4.0, kMaxCwndPkts);
}

double BbrTransport::pacing_gain() const {
  switch (state_) {
    case State::kStartup: return kStartupGain;
    case State::kDrain: return 1.0 / kStartupGain;
    case State::kProbeBw: return kProbeGains[cycle_idx_];
  }
  return 1.0;
}

double BbrTransport::pacing_interval_s() const {
  const double rate = pacing_gain() * btl_bw_pps();
  if (rate <= 0.0) return kMinPacingIntervalS;
  return std::max(1.0 / rate, kMinPacingIntervalS);
}

void BbrTransport::on_newly_acked(std::int64_t /*newly*/,
                                  const std::optional<SendRecord>& /*echo*/,
                                  double rtt_s, TimeNs now) {
  if (rtt_s >= 0.0) {
    // Min filter: drop dominated entries from the back, expired from the
    // front. The matching delivery-rate sample is the base's latest.
    const TimeNs rtt_horizon = now - from_seconds(kRttWindowS);
    while (!rtt_min_.empty() && rtt_min_.back().v >= rtt_s) rtt_min_.pop_back();
    rtt_min_.push_back({rtt_s, now});
    while (rtt_min_.front().t < rtt_horizon) rtt_min_.pop_front();

    const double bw = last_delivery_rate_pps();
    const TimeNs bw_horizon = now - from_seconds(kBwWindowS);
    while (!bw_max_.empty() && bw_max_.back().v <= bw) bw_max_.pop_back();
    bw_max_.push_back({bw, now});
    while (bw_max_.front().t < bw_horizon) bw_max_.pop_front();
  }
  advance_state(now);
}

void BbrTransport::advance_state(TimeNs now) {
  // Round boundary: everything in flight at the last boundary is now acked.
  const bool round_end = cumack() >= round_end_seq_;
  if (round_end) round_end_seq_ = max_sent() + 1;

  switch (state_) {
    case State::kStartup:
      if (round_end) {
        if (btl_bw_pps() >= full_bw_pps_ * 1.25 || full_bw_pps_ == 0.0) {
          full_bw_pps_ = btl_bw_pps();
          full_bw_rounds_ = 0;
        } else if (++full_bw_rounds_ >= kFullBwRounds) {
          state_ = State::kDrain;
        }
      }
      break;
    case State::kDrain:
      if (inflight() <= bdp_pkts()) {
        state_ = State::kProbeBw;
        // Randomized entry phase (construction draw), skipping the 0.75
        // drain phase like BBRv1.
        const int v = static_cast<int>(phase_draw() % 7);
        cycle_idx_ = v < 1 ? 0 : v + 1;
        cycle_start_ = now;
      }
      break;
    case State::kProbeBw:
      if (now - cycle_start_ >= from_seconds(min_rtt_s())) {
        cycle_idx_ = (cycle_idx_ + 1) % 8;
        cycle_start_ = now;
      }
      break;
  }
}

}  // namespace e2efa
