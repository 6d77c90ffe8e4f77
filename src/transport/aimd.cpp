#include "transport/aimd.hpp"

#include <algorithm>

namespace e2efa {

void AimdTransport::on_newly_acked(std::int64_t newly,
                                   const std::optional<SendRecord>& /*echo*/,
                                   double /*rtt_s*/, TimeNs /*now*/) {
  if (in_recovery_) {
    // Partial ACKs during recovery keep the clock running but do not grow
    // the window; recovery ends once the loss window is fully acked.
    if (cumack() > recover_seq_) in_recovery_ = false;
    return;
  }
  const double n = static_cast<double>(newly);
  if (cwnd_ < ssthresh_)
    cwnd_ = std::min(cwnd_ + n, kMaxCwndPkts);  // slow start
  else
    cwnd_ = std::min(cwnd_ + n / cwnd_, kMaxCwndPkts);
}

void AimdTransport::on_dupack_loss(TimeNs /*now*/) {
  if (in_recovery_) return;  // one multiplicative decrease per window
  in_recovery_ = true;
  recover_seq_ = max_sent();
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = ssthresh_;
}

void AimdTransport::on_rto_event(TimeNs /*now*/) {
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  // Collapse to 2, not Reno's 1: with the ACK path riding fire-and-forget
  // control frames, a single in-flight packet makes every lost ACK a full
  // RTO stall; two keep an ACK clock ticking at quadratically lower odds
  // of silence.
  cwnd_ = 2.0;
  in_recovery_ = false;
}

}  // namespace e2efa
