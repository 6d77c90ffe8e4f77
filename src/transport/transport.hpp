// Elastic transport layer: closed-loop sources atop the fair MAC.
//
// The paper's evaluation is CBR-only — every source is greedy at a fixed
// packet rate and the 2PA shares r̂_i are never probed by a congestion
// controller. This subsystem adds the first end-to-end feedback path in the
// stack: per-flow cumulative ACKs generated at the sink travel back to the
// source over the simulated MAC (the route machinery in reverse; see
// ack_plane.hpp), and a TransportSource reacts to that ACK clock.
//
// Three implementations share the interface:
//   kCbr   the existing open-loop constant-bit-rate source, adapted behind
//          the interface (CbrTransport wraps CbrSource; byte-identical
//          trajectories — no ACK plane is even constructed for CBR runs).
//   kAimd  a Reno-style controller: slow start, additive increase,
//          multiplicative decrease on triple-dupack loss, RTO with
//          exponential backoff (src/transport/aimd.hpp).
//   kBbr   a BBR-style model-based controller: windowed-max delivery rate
//          and windowed-min RTT drive a pacing-gain cycle and an inflight
//          cap (src/transport/bbr.hpp).
//
// Determinism: every source draws exactly one u64 from the shared master
// RNG at construction (the same draw CbrSource makes for its phase), so
// switching transport kinds never shifts the RNG stream consumed by MACs
// and the control plane.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "phy/packet.hpp"
#include "sim/simulator.hpp"
#include "traffic/cbr_source.hpp"
#include "util/rng.hpp"

namespace e2efa {

/// Which congestion controller drives each flow's source.
enum class TransportKind : std::uint8_t { kCbr = 0, kAimd = 1, kBbr = 2 };

const char* to_string(TransportKind k);
/// Parses "cbr" | "aimd" | "bbr"; nullopt on anything else.
std::optional<TransportKind> parse_transport_kind(const std::string& s);

/// Tunables shared by the elastic controllers (defaults follow RFC 6298 and
/// the BBRv1 draft, scaled to the simulated 2 Mbps channel).
struct TransportConfig {
  TransportKind kind = TransportKind::kCbr;
  // --- shared retransmission machinery (elastic.hpp) ---
  double rto_initial_s = 1.0;  ///< RTO before the first RTT sample.
  double rto_min_s = 0.2;
  double rto_max_s = 4.0;
  int dupack_threshold = 3;    ///< Dupacks before a fast retransmit.
  /// Hard cap on any window. Deliberately just below the 50-packet node
  /// queues: a window that can overflow its own source queue turns every
  /// slow-start round into a mass drop + RTO episode, inflates RTT past
  /// the RTO floor, starves the competing flows' ACK clocks, and locks
  /// the system into a winner-take-all relaxation oscillation the fair
  /// MAC cannot undo (measured at caps >= 64). Too small is as bad: the
  /// paper topologies' contested paths run at ~0.3 s RTT under load, and
  /// a 32-packet window caps a flow at ~100 pkt/s — below some r̂_i, so
  /// long flows go window-limited and undershoot their share.
  double max_cwnd_pkts = 48;
  double initial_cwnd = 2.0;
  /// Sink-side delayed ACKs: every 2nd in-order packet acks immediately,
  /// a straggler acks after this timer; out-of-order and duplicate data
  /// always ack immediately (the dupack clock must not be delayed).
  double delayed_ack_s = 0.01;
  // --- BBR (bbr.hpp) ---
  double bbr_startup_gain = 2.885;  ///< 2/ln 2: doubles delivery per RTT.
  double bbr_cwnd_gain = 2.0;       ///< Inflight cap = gain · BDP.
  double bbr_bw_window_s = 2.0;     ///< Windowed-max delivery-rate horizon.
  double bbr_rtt_window_s = 10.0;   ///< Windowed-min RTT horizon.
  double bbr_init_bw_pps = 50.0;    ///< Bottleneck-rate prior before samples.
  double bbr_min_pacing_interval_s = 0.0005;  ///< Pacing-rate ceiling.
};

/// Per-flow controller state exported for metrics columns and the trace
/// tool's transport summary. CBR reports zeros.
struct TransportTelemetry {
  double cwnd = 0.0;
  double srtt_s = 0.0;
  double delivery_rate_pps = 0.0;
  std::int64_t retransmits = 0;
  std::int64_t timeouts = 0;

  bool operator==(const TransportTelemetry&) const = default;
};

/// One flow's traffic source. The runner owns one per flow and drives it
/// exactly like it drove CbrSource: `emit` receives each generated packet
/// with seq/uid/created prefilled, the runner's lambda stamps routing and
/// injects into the source NodeStack.
class TransportSource {
 public:
  virtual ~TransportSource() = default;

  /// Starts generation; packets are produced until `until`.
  virtual void start(TimeNs until) = 0;

  /// A cumulative ACK reached the source (AckPlane). `cumack` is the
  /// highest in-order sequence delivered at the sink, `echo_seq` the data
  /// sequence whose arrival triggered the ACK (the RTT / delivery-rate
  /// probe), `cause_span` the kTransAckRx trace span for causal parenting
  /// (0 when tracing is off). Never called for CBR.
  virtual void on_ack(std::int64_t cumack, std::int64_t echo_seq, TimeNs now,
                      std::uint32_t cause_span) = 0;

  /// Sequences generated so far (the next fresh sequence number).
  virtual std::int64_t generated() const = 0;

  virtual TransportTelemetry telemetry() const = 0;
};

/// The open-loop CBR source behind the transport interface. Pure
/// composition: construction, RNG draws, and the event schedule are exactly
/// CbrSource's, so existing goldens stay byte-identical.
class CbrTransport final : public TransportSource {
 public:
  CbrTransport(Simulator& sim, double packets_per_second, int payload_bytes,
               std::function<void(Packet)> emit, Rng& phase_rng)
      : cbr_(sim, packets_per_second, payload_bytes, std::move(emit), phase_rng) {}

  void start(TimeNs until) override { cbr_.start(until); }
  void on_ack(std::int64_t, std::int64_t, TimeNs, std::uint32_t) override {}
  std::int64_t generated() const override { return cbr_.generated(); }
  TransportTelemetry telemetry() const override { return {}; }

 private:
  CbrSource cbr_;
};

}  // namespace e2efa
