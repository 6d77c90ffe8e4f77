// AIMD (Reno-style) congestion control on the elastic base.
//
// Slow start doubles the window per RTT until ssthresh, then congestion
// avoidance adds one packet per window per RTT. A triple duplicate ACK
// halves the window (fast retransmit lives in the base class) — at most
// once per window of data, NewReno-style: further dupack signals inside the
// same recovery window repair the hole without halving again. A
// retransmission timeout collapses the window to one packet and re-enters
// slow start. The source is window-limited (no pacing): packets go out the
// moment the window opens, clocked by returning ACKs.
#pragma once

#include "transport/elastic.hpp"

namespace e2efa {

class AimdTransport final : public ElasticTransport {
 public:
  using ElasticTransport::ElasticTransport;

 protected:
  double cwnd() const override { return cwnd_; }
  void on_newly_acked(std::int64_t newly, const std::optional<SendRecord>& echo,
                      double rtt_s, TimeNs now) override;
  void on_dupack_loss(TimeNs now) override;
  void on_rto_event(TimeNs now) override;

 private:
  static constexpr double kInitialCwnd = 2.0;

  double cwnd_ = kInitialCwnd;
  double ssthresh_ = kMaxCwndPkts;
  bool in_recovery_ = false;
  std::int64_t recover_seq_ = -1;  ///< Highest seq sent when recovery began.
};

}  // namespace e2efa
