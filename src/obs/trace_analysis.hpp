// Offline analysis over a recorded trace: windowed per-flow rates, Jain
// fairness trajectories, and per-epoch convergence times.
//
// Everything here is computed purely from trace records (kRunMeta for the
// channel parameters, kLpResolve/kFlowTarget for the Phase-1 targets per
// epoch, kDelivery for end-to-end completions), so trace_tool can reproduce
// the runner's fairness metrics from a file alone.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace e2efa {

struct ConvergenceReport {
  double window_s = 0.0;
  int flow_count = 0;
  double channel_bps = 0.0;
  double payload_bytes = 0.0;

  /// Window end times; window w covers [w*window_s, (w+1)*window_s).
  std::vector<double> window_end_s;
  /// Measured end-to-end share of B per window per flow (bits delivered in
  /// the window divided by window_s * channel_bps).
  std::vector<std::vector<double>> window_share;
  /// Jain's index per window over share-normalized rates (flows with a zero
  /// target — suspended or inactive — are excluded from that window).
  std::vector<double> jain;

  /// One entry per LP (re-)solve, in time order.
  struct Epoch {
    int index = 0;
    double start_s = 0.0;
    int lp_status = 0;
    std::vector<double> target_share;  ///< Per logical flow, units of B.
  };
  std::vector<Epoch> epochs;

  /// Convergence of each epoch: the end time of the first window fully
  /// inside the epoch where every flow's *normalized* rate (measured share
  /// over target share) is within eps (relative) of the cross-flow mean
  /// normalized rate — i.e. the allocation's proportions match the Phase-1
  /// targets. (Absolute shares sit well below the nominal targets because
  /// of RTS/CTS + header overhead, which scales all flows down uniformly.)
  /// `converged == false` means no such window.
  struct EpochConvergence {
    int epoch = 0;
    double epoch_start_s = 0.0;
    double converged_s = 0.0;
    double time_to_converge_s = 0.0;
    bool converged = false;
  };
  std::vector<EpochConvergence> convergence;

  /// Steady-state Jain estimate for an epoch: the mean over the last half
  /// of the windows fully inside it (0 when the epoch has no windows).
  double steady_jain(int epoch) const;
  /// Windows (indices into `jain`) fully inside the given epoch.
  std::vector<std::size_t> epoch_windows(int epoch) const;
};

/// Builds the report from trace records. Requires a kRunMeta record; the
/// Lp category must have been recorded for targets/convergence (without it
/// the report still carries raw windowed shares and an unnormalized Jain).
/// `eps` is the relative tolerance for "within epsilon of r-hat".
ConvergenceReport analyze_convergence(const std::vector<TraceRecord>& records,
                                      double window_s, double eps);

/// Human-readable per-flow timeline rows for trace_tool (delivery counts and
/// milestone records for one flow, or all flows when flow < 0).
std::string format_flow_timeline(const std::vector<TraceRecord>& records,
                                 int flow, std::size_t limit);

/// Per-event-type counts, as "name count" lines sorted by event id, plus a
/// control-plane health section (retransmits by message kind, sequence
/// gaps, per-epoch re-convergence samples) when ctrl records are present.
std::string format_trace_summary(const std::vector<TraceRecord>& records);

/// Causal span graph rebuilt from (span, parent) ids alone. A record that
/// carries a nonzero `span` *owns* that span; any record whose `parent`
/// names a span (whether or not it owns one itself) is that span's child.
/// Spans are allocated in emission order, so a parent always precedes its
/// children and the graph is acyclic by construction.
struct SpanGraph {
  /// span id -> index (into the source records) of the record owning it.
  std::map<std::uint32_t, std::size_t> owner;
  /// span id -> indices of records caused by it, in time order.
  std::map<std::uint32_t, std::vector<std::size_t>> children;
  /// Indices of root records: they own a span whose parent is 0 or unknown
  /// (e.g. filtered out), in time order.
  std::vector<std::size_t> roots;
};
SpanGraph build_span_graph(const std::vector<TraceRecord>& records);

/// Causal-chain report (`trace-tool follow`): every root-to-leaf causal
/// tree that touches logical flow `flow` (all chains when flow < 0),
/// rendered as an indented tree with one described record per line.
/// `limit` caps the number of chains printed (0 = no cap).
std::string format_follow(const std::vector<TraceRecord>& records, int flow,
                          std::size_t limit);

/// Chrome-trace / Perfetto JSON export (`trace-tool chrome`): one track per
/// node (plus a run-global track), frame transmissions as duration slices,
/// everything else as instants, and causal span edges as flow arrows.
std::string format_chrome_trace(const std::vector<TraceRecord>& records);

}  // namespace e2efa
