// End-to-end scenario runner: phase 1 (allocation) + phase 2 (packet-level
// simulation) for one of the eight protocols below — the paper's 802.11,
// two-tier, 2PA-C and 2PA-D, plus variants and extensions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "lp/simplex.hpp"
#include "net/scenarios.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "phy/channel.hpp"
#include "traffic/stats.hpp"
#include "transport/transport.hpp"

namespace e2efa {

enum class Protocol {
  k80211,            ///< Plain IEEE 802.11 DCF, single FIFO per node.
  kTwoTier,          ///< Two-tier [1]: per-subflow LP shares + tag scheduler.
  kTwoTierBalanced,  ///< Two-tier variant: per-subflow *max-min* shares —
                     ///< models the near-equal services [1]'s scheduler
                     ///< actually measured in the paper's Table II.
  k2paCentralized,   ///< 2PA, phase 1 solved centrally (Sec. IV-A).
  k2paDistributed,   ///< 2PA, phase 1 solved distributedly (Sec. IV-B).
  kMaxMin,           ///< Flow-level weighted max-min (footnote-3 extension).
  k2paStaticCw,      ///< Ablation: 2PA phase-1 shares + intra-node weighted
                     ///< queueing, but a static 1/node-share contention
                     ///< window instead of the tag/backoff feedback loop.
  k2paDistributedCtrl,  ///< 2PA, phase 1 run *in-band* by per-node AllocAgents
                        ///< over real control frames (src/ctrl): no oracle
                        ///< pushes shares; the network converges on its own,
                        ///< and re-converges after faults the same way.
};

const char* to_string(Protocol p);

/// Per-run settings. The channel rate, the 802.11 timing, CW_max and the
/// retry limit are the fixed constants in phy/frame.hpp (kChannelBps, …).
struct SimConfig {
  int payload_bytes = 512;      ///< Paper: 512-byte packets.
  double cbr_pps = 200.0;       ///< Paper: 200 packets/s per flow.
  double sim_seconds = 1000.0;  ///< Paper: T = 1000 s.
  int queue_capacity = 50;      ///< Per transmit queue (ns-2 default).
  int cw_min = 31;              ///< Paper: CW_min = 31.
  double alpha = 1e-4;          ///< Paper: α = 0.0001.
  std::uint64_t seed = 1;
  /// Measurements start after this transient (simulated seconds); the run
  /// lasts warmup + sim_seconds in total.
  double warmup_seconds = 0.0;
  /// When > 0, sample per-flow end-to-end deliveries every this many
  /// simulated seconds (fills RunResult::window_end_to_end) — used to study
  /// short-term fairness (the α knob's purpose).
  double sample_interval_seconds = 0.0;
  /// False switches the MAC to basic access (no RTS/CTS): hidden terminals
  /// then collide on whole DATA frames. The paper always uses RTS/CTS.
  bool use_rts_cts = true;
  /// Structured-event trace sink (src/obs/trace.hpp). Null (default)
  /// disables tracing entirely — components pay one pointer test per
  /// would-be event and the trajectory is bit-identical to a run without
  /// the sink. Not owned; not thread-safe: leave null when the same config
  /// fans out across BatchRunner threads.
  TraceSink* trace = nullptr;
  /// When > 0, sample the components' counters every this many simulated
  /// seconds into RunResult::metrics (windowed goodput, share-normalized
  /// Jain index, queue-depth percentiles, MAC retry rate, channel
  /// utilization). 0 (default) disables the sampler entirely.
  double metrics_period_seconds = 0.0;
  /// Invariant-check observer (src/check/check.hpp). Null (default)
  /// disables all oracles; like the trace sink, an installed observer never
  /// mutates sim state or draws randomness, so checked runs are
  /// bit-identical to unchecked ones. Not owned; not thread-safe across
  /// BatchRunner threads. The runner calls begin_run and finalize itself.
  CheckContext* check = nullptr;
  /// Self-profiler (src/obs/profiler.hpp). Null (default) disables phase
  /// accounting; an armed profiler only reads the wall clock and atomic
  /// counters, so the trajectory stays bit-identical. Not owned. Unlike
  /// the trace/check observers it IS thread-safe: one profiler may be
  /// shared across a BatchRunner fan-out and aggregates over all runs.
  Profiler* profile = nullptr;
  /// Unused: a run is single-threaded end to end (phase 1 and the packet
  /// simulation). Kept only because perfbench/perf.cpp still assigns it;
  /// delete it together with that assignment.
  int sim_threads = 1;
};

struct RunResult {
  Protocol protocol = Protocol::k80211;
  double sim_seconds = 0.0;

  // Measured (packets over the whole run).
  std::vector<std::int64_t> delivered_per_subflow;  ///< r_{i.j} · T
  std::vector<std::int64_t> end_to_end_per_flow;    ///< r̂_i · T
  std::int64_t total_end_to_end = 0;                ///< Σ r̂_i · T
  /// In-network losses (the paper's "lost packets"; see TrafficStats).
  std::int64_t lost_packets = 0;
  /// Diagnostics: all drop-tail and retry-limit drops, incl. source-side.
  std::int64_t dropped_queue = 0;
  std::int64_t dropped_mac = 0;
  double loss_ratio = 0.0;  ///< lost / total end-to-end (paper's metric).

  // Phase-1 targets (empty for plain 802.11).
  bool has_target = false;
  std::vector<double> target_subflow_share;
  std::vector<double> target_flow_share;

  ChannelStats channel;

  /// Mean / maximum end-to-end delay per flow (seconds; 0 when the flow
  /// delivered nothing inside the measurement window).
  std::vector<double> mean_delay_s;
  std::vector<double> max_delay_s;

  /// Per-sample-window end-to-end deliveries: window_end_to_end[w][f] =
  /// packets flow f completed during window w. Empty unless
  /// SimConfig::sample_interval_seconds > 0.
  std::vector<std::vector<std::int64_t>> window_end_to_end;

  /// Multi-epoch runs (dynamic flow sets and/or fault plans): epoch start
  /// times (seconds) and the per-epoch re-computed flow shares (0 for flows
  /// inactive or suspended in that epoch). Indexed by *scenario* flow.
  std::vector<double> epoch_starts_s;
  std::vector<std::vector<double>> epoch_flow_share;

  /// Phase-1 solver status of every epoch's solve, in epoch order (empty
  /// for plain 802.11, which solves nothing; kOptimal for epochs with no
  /// active flows). A solve that comes back infeasible/unbounded — or whose
  /// basic-share floors had to be relaxed, for the centralized family —
  /// throws ContractViolation instead of completing the run, so surfaced
  /// entries are an audit trail of successful solves.
  std::vector<LpStatus> epoch_lp_status;

  // ---- Fault injection (populated when the scenario has a FaultPlan). ----
  /// Source packets suppressed per flow while the flow was suspended
  /// (destination unreachable on the surviving topology).
  std::vector<std::int64_t> suspended_per_flow;
  std::int64_t suspended_packets = 0;  ///< Σ suspended_per_flow.
  /// Link-layer delivery failures: MAC retry-limit drops over the whole run
  /// (warm-up included) — the upstream failure signal route repair keys off.
  std::int64_t link_failures = 0;
  /// Per-epoch end-to-end deliveries: epoch_end_to_end[e][f] = packets
  /// scenario-flow f completed during epoch e (measurement window only).
  /// Filled for multi-epoch runs; empty otherwise.
  std::vector<std::vector<std::int64_t>> epoch_end_to_end;
  /// One record per healed disruption: the flow was disrupted (rerouted or
  /// suspended) at fault_s and completed its first post-repair delivery on
  /// the then-current route at recovered_s.
  struct Recovery {
    FlowId flow = -1;
    double fault_s = 0.0;
    double recovered_s = 0.0;
    bool operator==(const Recovery&) const = default;
  };
  std::vector<Recovery> recoveries;

  /// Periodic metrics samples (empty unless
  /// SimConfig::metrics_period_seconds > 0). Sampled from simulation state
  /// at deterministic instants: identical across reruns and BatchRunner
  /// thread counts for a fixed seed.
  MetricsTimeSeries metrics;

  /// In-band control plane summary (k2paDistributedCtrl only; all-zero /
  /// empty otherwise). The counters aggregate every node's AllocAgent; the
  /// applied shares are what actually sits in the TagSchedulers when the
  /// run ends — i.e. the state the network converged to, as opposed to the
  /// oracle targets in target_subflow_share / epoch_flow_share.
  struct CtrlSummary {
    std::uint64_t hello_sent = 0;       ///< Queued HELLO broadcasts.
    std::uint64_t constraint_sent = 0;  ///< Queued CONSTRAINT messages.
    std::uint64_t rate_sent = 0;        ///< Queued RATE messages.
    std::uint64_t msgs_received = 0;    ///< Decoded control payloads.
    std::uint64_t solves = 0;           ///< Source-local LP solves.
    std::uint64_t ctrl_bytes = 0;       ///< Wire bytes of queued dedicated frames.
    std::uint64_t ctrl_frames = 0;      ///< kCtrl frames actually transmitted.
    // Hardened-mode counters (all zero unless the agents run hardened —
    // i.e. unless the scenario has faults, churn, or mobility).
    std::uint64_t admit_req_sent = 0;   ///< Queued ADMIT_REQ messages.
    std::uint64_t admit_rsp_sent = 0;   ///< Queued ADMIT_RSP messages.
    std::uint64_t retransmits = 0;      ///< CONSTRAINT/RATE resends (no ack).
    std::uint64_t seq_gaps = 0;         ///< HELLO sequence gaps detected.
    std::uint64_t stale_dropped = 0;    ///< Msgs dropped for a stale epoch gen.
    std::uint64_t forced_solves = 0;    ///< Degraded solves (quiescence never
                                        ///< reached within the 2 s staleness bound).
    std::vector<double> applied_subflow_share;  ///< Final lane shares (sim ids).
    bool operator==(const CtrlSummary&) const = default;
  };
  CtrlSummary ctrl;

  /// One record per admission-controlled flow arrival (activity window with
  /// start_s > 0 under an allocating protocol; plain 802.11 admits all).
  struct Admission {
    FlowId flow = -1;
    double at_s = 0.0;
    bool admitted = true;
    /// Typed rejection reason (AdmissionReason from src/ctrl/admission.hpp,
    /// stored as int to keep this header light): 0 = admitted,
    /// 1 = clique overload, 2 = in-band round timed out.
    int reason = 0;
    /// Worst clique load (sum of basic shares) the candidate would induce.
    double worst_load = 0.0;
    /// In-band ADMIT round verdict under 2pa-dctrl: 1 admitted, 0 rejected,
    /// -1 round timed out / not run (every other protocol).
    int inband = -1;
    bool operator==(const Admission&) const = default;
  };
  std::vector<Admission> admissions;

  /// Total simulator events processed by the run — a deterministic proxy
  /// for simulated work (bench A/B guards compare it across source models).
  std::uint64_t events_processed = 0;

  /// Elastic-transport summary (Scenario::transport != kCbr only; all-zero
  /// and empty otherwise). ACK-plane counters plus each flow's final
  /// controller telemetry, indexed by scenario flow.
  struct TransportSummary {
    std::uint64_t acks_sent = 0;       ///< Cumulative ACKs queued at sinks.
    std::uint64_t acks_relayed = 0;    ///< Hop-by-hop ACK forwards.
    std::uint64_t acks_delivered = 0;  ///< ACKs that reached their source.
    std::vector<TransportTelemetry> flows;
    bool operator==(const TransportSummary&) const = default;
  };
  TransportSummary transport;

  /// Per-epoch in-band re-convergence time (k2paDistributedCtrl multi-epoch
  /// runs only; empty otherwise): reconv_s[e] = seconds after epoch e's
  /// boundary until every active lane's applied share is within 10% + 0.02
  /// of the epoch oracle target, or a negative value when the epoch ended
  /// before the shares converged.
  std::vector<double> reconv_s;

  /// Whole-result equality, bitwise on every double. This is the
  /// determinism contract in one operator: same scenario + same seed must
  /// compare equal, also across BatchRunner job counts. The fuzzer's
  /// differentials and the parity tests rely on it.
  bool operator==(const RunResult&) const = default;

  /// Measured share of subflow s in units of B:
  /// delivered · payload_bits / (T · B).
  double measured_subflow_share(int s, std::int64_t bps, int payload_bytes) const;
};

/// Runs phase 1 + phase 2 on the scenario. Deterministic given cfg.seed —
/// including under fault injection: the same seed and FaultPlan reproduce
/// the identical RunResult bit for bit.
///
/// When the scenario carries a FaultPlan, the runner precomputes the
/// surviving topology of every fault epoch, re-routes each flow around dead
/// nodes/links (min-hop on the surviving graph; the provisioned route is
/// kept whenever it is still alive), suspends flows whose destination is
/// unreachable (resuming them on recovery), and re-solves phase 1 over the
/// epoch's reachable flow set, pushing the fresh shares into the live
/// schedulers at the epoch boundary.
///
/// When the scenario carries a FlowActivity schedule (sc.activity, one
/// entry per flow), flows come and go: the phase-1 allocation is recomputed
/// over the *active* flow set at every epoch boundary and pushed into the
/// running tag schedulers. RunResult::target_* reflect the first epoch;
/// epoch_* record the full history. Arrivals (start_s > 0) pass through
/// admission control under the allocating protocols: a flow whose
/// clique-bound check fails never sources packets and is reported in
/// RunResult::admissions with a typed reason. When the scenario carries
/// MobilitySpecs, each mobile node's random waypoint walk is compiled into
/// link events merged with the fault plan (src/net/mobility.hpp).
///
/// Throws ContractViolation for structurally invalid inputs: a flow with
/// src == dst or fewer than two path nodes, a fault plan referencing
/// unknown nodes / negative times / loss rates outside [0, 1], an activity
/// schedule whose size differs from the flow count, a mobility spec naming
/// an unknown node, or a phase-1 solve with infeasible basic shares
/// (over-constrained clique).
RunResult run_scenario(const Scenario& sc, Protocol proto, const SimConfig& cfg);

}  // namespace e2efa
