// Shared machinery for the closed-loop (elastic) transport sources.
//
// ElasticTransport owns everything AIMD and BBR have in common — the
// sequence space, the outstanding-packet ledger with per-send delivery
// snapshots (the delivery-rate sample of BBR's model), cumulative-ACK
// processing with duplicate-ACK counting, RFC 6298 RTT estimation with
// Karn's algorithm, fast retransmit, and the RTO timer with exponential
// backoff — and delegates the congestion-control *policy* to virtuals:
//
//   cwnd()               how many packets may be in flight
//   pacing_interval_s()  < 0: window-limited (send whenever the window
//                        opens — AIMD); >= 0: one packet per interval,
//                        window acting as a cap (BBR)
//   on_newly_acked()     the ACK-clock tick (additive increase / model update)
//   on_dupack_loss()     fast-retransmit signal (multiplicative decrease)
//   on_rto_event()       retransmission timeout (window collapse)
//
// Determinism contract: construction draws exactly one u64 from the shared
// master RNG (like CbrTransport's phase draw), all later behavior is driven by
// simulator events only, and packet uids come from a dedicated atomic
// counter so BatchRunner workers stay race-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "check/check.hpp"
#include "obs/trace.hpp"
#include "transport/transport.hpp"

namespace e2efa {

// Constants the elastic controllers share (values follow RFC 6298 and the
// BBRv1 draft, scaled to the simulated 2 Mbps channel); the rest live in
// the file that reads them.

/// Hard cap on any window. Deliberately just below the 50-packet node
/// queues: a window that can overflow its own source queue turns every
/// slow-start round into a mass drop + RTO episode, inflates RTT past
/// the RTO floor, starves the competing flows' ACK clocks, and locks
/// the system into a winner-take-all relaxation oscillation the fair
/// MAC cannot undo (measured at caps >= 64). Too small is as bad: the
/// paper topologies' contested paths run at ~0.3 s RTT under load, and
/// a 32-packet window caps a flow at ~100 pkt/s — below some r̂_i, so
/// long flows go window-limited and undershoot their share.
inline constexpr double kMaxCwndPkts = 48;
/// Pacing-rate ceiling: the shortest interval between paced sends.
inline constexpr double kMinPacingIntervalS = 0.0005;

class ElasticTransport : public TransportSource {
 public:
  /// `flow` keys the trace records and oracle state (the runner passes the
  /// flow id whose packets this source generates); `source_node` labels
  /// them. `trace` / `check` may be null.
  ElasticTransport(Simulator& sim, int payload_bytes,
                   std::function<void(Packet)> emit, Rng& phase_rng,
                   std::int32_t flow, NodeId source_node, TraceSink* trace,
                   CheckContext* check);

  void start(TimeNs until) override;
  void on_ack(std::int64_t cumack, std::int64_t echo_seq, TimeNs now,
              std::uint32_t cause_span) override;
  std::int64_t generated() const override { return next_seq_; }
  TransportTelemetry telemetry() const override;

 protected:
  /// Ledger entry for one in-flight sequence. `delivered_at_send` snapshots
  /// the cumulative delivered count when the (re)send left, so the ACK that
  /// echoes this sequence yields the delivery-rate sample
  /// (delivered_now − delivered_at_send) / (now − sent).
  struct SendRecord {
    TimeNs sent = 0;
    TimeNs created = 0;  ///< First transmission (end-to-end delay base).
    std::int64_t delivered_at_send = 0;
    bool retransmitted = false;  ///< Karn: no RTT sample from this seq.
  };

  // --- policy hooks ----------------------------------------------------
  virtual double cwnd() const = 0;
  /// `newly` sequences were cumulatively acked; `echo` is the ledger entry
  /// of the echoed probe (nullopt when it was already acked), `rtt_s` the
  /// Karn-filtered RTT sample (< 0 when none).
  virtual void on_newly_acked(std::int64_t newly,
                              const std::optional<SendRecord>& echo,
                              double rtt_s, TimeNs now) = 0;
  virtual void on_dupack_loss(TimeNs now) = 0;
  virtual void on_rto_event(TimeNs now) = 0;
  virtual double pacing_interval_s() const { return -1.0; }

  // --- state the policies read -----------------------------------------
  std::int64_t cumack() const { return cumack_; }
  std::int64_t max_sent() const { return next_seq_ - 1; }
  std::int64_t delivered() const { return delivered_; }
  double inflight() const { return static_cast<double>(outstanding_.size()); }
  /// Most recent delivery-rate sample (pkts/s; 0 before the first).
  double last_delivery_rate_pps() const { return delivery_rate_pps_; }
  /// Raw phase draw (also seeds BBR's initial gain-cycle offset).
  std::uint64_t phase_draw() const { return phase_draw_; }

  /// Opens the window / pacing pipeline; policies may call it after state
  /// changes that could release sends.
  void pump();

 private:
  void send_new(TimeNs now);
  void retransmit(std::int64_t seq, bool timeout, TimeNs now);
  void on_pace();
  void arm_rto(TimeNs now);
  void on_rto_fire();
  double current_rto_s() const;
  void trace_cwnd(TimeNs now);

  Simulator& sim_;
  int payload_bytes_;
  std::function<void(Packet)> emit_;
  std::int32_t flow_;
  NodeId node_;
  TraceSink* trace_;
  CheckContext* check_;

  std::uint64_t phase_draw_ = 0;
  TimeNs phase_ = 0;
  TimeNs until_ = 0;
  bool started_ = false;

  std::int64_t next_seq_ = 0;
  std::int64_t cumack_ = -1;
  std::int64_t delivered_ = 0;
  int dupacks_ = 0;
  std::map<std::int64_t, SendRecord> outstanding_;
  std::uint32_t last_ack_span_ = 0;  ///< Parent for the next sends.

  bool has_srtt_ = false;
  double srtt_s_ = 0.0;
  double rttvar_s_ = 0.0;
  double delivery_rate_pps_ = 0.0;
  int rto_backoff_ = 0;
  Simulator::EventId rto_event_ = Simulator::kInvalidEvent;

  Simulator::EventId pace_event_ = Simulator::kInvalidEvent;
  TimeNs next_pace_ = 0;

  std::int64_t retransmits_ = 0;
  std::int64_t timeouts_ = 0;
  double last_traced_cwnd_ = -1.0;

  /// Separate uid stream from CbrTransport's: both only feed tracing and
  /// duplicate *identity* (uid equality), never ordering decisions.
  static std::atomic<std::uint64_t> next_uid_;
};

}  // namespace e2efa
