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
//   kCbr   the paper's open-loop constant-bit-rate source (CbrTransport;
//          no ACK plane is even constructed for CBR runs).
//   kAimd  a Reno-style controller: slow start, additive increase,
//          multiplicative decrease on triple-dupack loss, RTO with
//          exponential backoff (src/transport/aimd.hpp).
//   kBbr   a BBR-style model-based controller: windowed-max delivery rate
//          and windowed-min RTT drive a pacing-gain cycle and an inflight
//          cap (src/transport/bbr.hpp).
//
// Determinism: every source draws exactly one u64 from the shared master
// RNG at construction (CbrTransport's draw is its start phase), so
// switching transport kinds never shifts the RNG stream consumed by MACs
// and the control plane.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "phy/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace e2efa {

/// Which congestion controller drives each flow's source.
enum class TransportKind : std::uint8_t { kCbr = 0, kAimd = 1, kBbr = 2 };

const char* to_string(TransportKind k);
/// Parses "cbr" | "aimd" | "bbr"; nullopt on anything else.
std::optional<TransportKind> parse_transport_kind(const std::string& s);

/// Dupacks before a fast retransmit. The transport oracle (src/check)
/// holds sources to the same evidence bar.
inline constexpr int kDupackThreshold = 3;

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

/// One flow's traffic source. The runner owns one per flow: `emit`
/// receives each generated packet with seq/uid/created prefilled, the
/// runner's lambda stamps routing and injects into the source NodeStack.
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

/// The open-loop constant-bit-rate source (the paper's workload: 200
/// packets per second of 512 bytes at every flow source, greedy relative to
/// the allocated shares). A random phase offset (< one interval) drawn at
/// construction decorrelates simultaneous sources.
class CbrTransport final : public TransportSource {
 public:
  CbrTransport(Simulator& sim, double packets_per_second, int payload_bytes,
               std::function<void(Packet)> emit, Rng& phase_rng);

  void start(TimeNs until) override;
  void on_ack(std::int64_t, std::int64_t, TimeNs, std::uint32_t) override {}
  std::int64_t generated() const override { return seq_; }
  TransportTelemetry telemetry() const override { return {}; }

 private:
  void tick();

  Simulator& sim_;
  TimeNs interval_;
  int payload_bytes_;
  std::function<void(Packet)> emit_;
  TimeNs phase_ = 0;
  TimeNs until_ = 0;
  std::int64_t seq_ = 0;
  /// Atomic so concurrent BatchRunner workers stay race-free; the uid feeds
  /// tracing only, so cross-run numbering does not affect results.
  static std::atomic<std::uint64_t> next_uid_;
};

}  // namespace e2efa
