// Periodic metrics time series.
//
// Components keep their counters as plain struct fields incremented on the
// hot path. When metrics are enabled, the runner reads those fields
// directly on a fixed period into a MetricsTimeSeries: per-flow end-to-end
// deliveries, a share-normalized Jain fairness index, queue-depth percentiles,
// the MAC retry rate, and channel airtime utilization. Sampling happens at
// deterministic simulation times from in-simulation state only, so the
// series is identical across reruns and BatchRunner thread counts. It is
// the only periodic per-flow sampler: short-term fairness studies read
// their windows from it.
// Its window definition (score_window, window_epoch) is also the trace
// analysis's, so `trace-tool convergence` rebuilds its Jain series exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2efa {

/// One periodic sample. All values are window deltas or instantaneous
/// gauges, never cumulative, so each row is meaningful on its own.
struct MetricsSample {
  double t_s = 0.0;  ///< Window end time, seconds.
  /// End-to-end deliveries per logical flow in the window (t_s − period,
  /// t_s]; nothing counts before the run's warm-up ends.
  std::vector<std::int64_t> flow_delivered;
  double jain = 1.0;  ///< Jain over share-normalized windowed rates.
  double queue_depth_p50 = 0.0;
  double queue_depth_p95 = 0.0;
  double queue_depth_max = 0.0;
  double mac_retry_rate = 0.0;        ///< timeouts / DATA attempts, window.
  /// Σ frame airtime / window length. Sums over *all* transmissions, so
  /// spatial reuse (concurrent cliques) pushes it above 1.
  double channel_utilization = 0.0;
  /// In-band control plane (2PA-Dctrl only; 0 for every other protocol):
  /// control wire bytes queued by the AllocAgents this window, and the
  /// cumulative control-bytes / data-bytes overhead ratio at window end.
  double ctrl_bytes = 0.0;
  double ctrl_overhead = 0.0;
  /// Loss-hardened control-plane health, this window (0 when hardening is
  /// off): timer-driven CONSTRAINT/RATE/ADMIT retransmissions and receiver
  /// sequence gaps (messages the origin sent that this window never saw).
  double ctrl_retransmits = 0.0;
  double ctrl_seq_gaps = 0.0;
  /// Elastic transport gauges, one entry per logical flow at window end
  /// (empty for open-loop CBR runs, which keeps their JSONL byte-stable):
  /// congestion window (packets), smoothed RTT (seconds; 0 before the first
  /// sample), and the latest per-ACK delivery-rate sample (packets/s).
  std::vector<double> flow_cwnd;
  std::vector<double> flow_srtt_s;
  std::vector<double> flow_delivery_pps;

  bool operator==(const MetricsSample&) const = default;
};

struct MetricsTimeSeries {
  double period_s = 0.0;
  /// Per-epoch re-convergence times, seconds (in-band protocol, multi-epoch
  /// runs only; -1 marks an epoch that never converged). Copied from
  /// RunResult::reconv_s so the JSONL artifact is self-contained.
  std::vector<double> reconv_s;
  std::vector<MetricsSample> samples;

  bool operator==(const MetricsTimeSeries&) const = default;
};

/// One window's end-to-end deliveries, scored. Window k of period P covers
/// [k·P, (k+1)·P) in integer nanoseconds, P = from_seconds(period_s).
struct WindowScore {
  std::vector<double> share;  ///< Per flow: delivered bits / (period_s · channel_bps).
  /// Jain over share / target where the target is positive; over the raw
  /// rates (delivered / period_s) when no flow has one (802.11).
  double jain = 1.0;
};
/// Scores a window against the targets (units of B) of its window_epoch.
WindowScore score_window(const std::vector<std::int64_t>& delivered, double period_s,
                         double payload_bytes, double channel_bps,
                         const std::vector<double>& targets);
/// Index of the last of the ascending epoch starts at or before t_s (1e-12 s
/// tolerance; 0 when none is): the epoch in force at t_s.
std::size_t epoch_at(const std::vector<double>& starts, double t_s);
/// The epoch scoring the window that ends at end_s: the one at its midpoint.
std::size_t window_epoch(const std::vector<double>& starts, double end_s, double period_s);

/// Writes the series as JSONL (one header line, one line per sample, %.17g
/// doubles: byte-deterministic for identical inputs). Each sample's
/// deliveries print as `flow_goodput_pps`, delivered / period_s. Returns
/// false and fills *error if the file cannot be created.
bool write_metrics_jsonl(const MetricsTimeSeries& ts, const std::string& path,
                         std::string* error);

}  // namespace e2efa
