// End-to-end scenario runner: phase 1 (allocation) + phase 2 (packet-level
// simulation) for one of the eight protocols below — the paper's 802.11,
// two-tier, 2PA-C and 2PA-D, plus variants and extensions.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/refine.hpp"
#include "ctrl/messages.hpp"
#include "lp/simplex.hpp"
#include "net/scenarios.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "phy/channel.hpp"
#include "traffic/stats.hpp"
#include "transport/transport.hpp"

namespace e2efa {

/// Each protocol pairs one phase-1 solver with one phase-2 access rule: one
/// row of kProtocolTable below.
enum class Protocol {
  k80211,               ///< Plain IEEE 802.11 DCF.
  kTwoTier,             ///< Two-tier [1].
  kTwoTierBalanced,     ///< Two-tier with max-min shares: Table II's near-equal services.
  k2paCentralized,      ///< 2PA, phase 1 solved centrally (Sec. IV-A).
  k2paDistributed,      ///< 2PA, phase 1 solved distributedly (Sec. IV-B).
  kMaxMin,              ///< Flow-level weighted max-min (footnote-3 extension).
  k2paStaticCw,         ///< Ablation: 2PA without the tag/backoff feedback loop.
  k2paDistributedCtrl,  ///< 2PA-D run in-band by per-node agents (src/ctrl).
};

/// Phase 1 (src/alloc). The two LP solvers reject a solve whose basic-share
/// floors had to be relaxed, and only 2PA's promises every flow its floor.
/// All but the local LPs work over the global cliques and gate arrivals with
/// the centralized admission check; the local LPs use the distributed one.
enum class Phase1Solver {
  kNone,           ///< No shares, no admission gate.
  kTwoTierLp,      ///< two_tier_allocate.
  kTwoTierMaxMin,  ///< maxmin_allocate_subflows.
  k2paLp,          ///< centralized_allocate.
  kFlowMaxMin,     ///< maxmin_allocate.
  k2paLocalLps,    ///< distributed_allocate: one local LP per source.
};

/// Phase 2: each node's queue and backoff.
enum class AccessRule {
  kBebFifo,         ///< One FIFO, binary exponential backoff.
  kTagFeedback,     ///< TagScheduler lanes, TagBackoff (Sec. IV-C).
  kStaticScaledCw,  ///< TagScheduler lanes, a fixed 1/node-share window.
};

struct ProtocolInfo {
  Protocol protocol;
  const char* name;                           ///< Report name.
  std::array<std::string_view, 3> spellings;  ///< --protocol values; none = bench only.
  Phase1Solver phase1;
  bool in_band;  ///< Agents run phase 1 over the air; the runner's solve is their oracle.
  AccessRule access;
};

inline constexpr auto kProtocolTable = [] {
  using enum Protocol;
  using enum Phase1Solver;
  using enum AccessRule;
  return std::to_array<ProtocolInfo>({
      {k80211, "802.11", {"802.11", "80211", "dcf"}, kNone, false, kBebFifo},
      {kTwoTier, "two-tier", {"two-tier", "twotier"}, kTwoTierLp, false, kTagFeedback},
      {kTwoTierBalanced, "two-tier-mm", {"two-tier-mm", "twotier-mm"}, kTwoTierMaxMin, false,
       kTagFeedback},
      {k2paCentralized, "2PA-C", {"2pa-c", "2pa", "2PA-C"}, k2paLp, false, kTagFeedback},
      {k2paDistributed, "2PA-D", {"2pa-d", "2PA-D"}, k2paLocalLps, false, kTagFeedback},
      {kMaxMin, "maxmin", {"maxmin", "max-min"}, kFlowMaxMin, false, kTagFeedback},
      {k2paStaticCw, "2PA-staticCW", {}, k2paLp, false, kStaticScaledCw},
      {k2paDistributedCtrl, "2PA-Dctrl", {"2pa-dctrl", "2PA-Dctrl"}, k2paLocalLps, true,
       kTagFeedback},
  });
}();

static_assert(
    [] {
      for (std::size_t i = 0; i < kProtocolTable.size(); ++i)
        if (static_cast<std::size_t>(kProtocolTable[i].protocol) != i) return false;
      return true;
    }(),
    "kProtocolTable rows must follow Protocol order");

constexpr const ProtocolInfo& protocol_info(Protocol p) {
  return kProtocolTable[static_cast<std::size_t>(p)];
}
constexpr const char* to_string(Protocol p) { return protocol_info(p).name; }

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
  /// seconds into RunResult::metrics (per-flow end-to-end deliveries,
  /// share-normalized Jain index, queue-depth percentiles, MAC retry rate,
  /// channel utilization) — the windows that show short-term fairness (the
  /// α knob's purpose). 0 (default) disables the sampler entirely.
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
  /// Phase-1 fallbacks over the solves that set the rates: every epoch's
  /// solve, or under 2PA-Dctrl every AllocAgent's own local solves (the
  /// runner's solve is then only their oracle). All zero when nothing fell
  /// back.
  Phase1Fallbacks phase1_fallbacks;

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
  struct CtrlSummary : CtrlAgentStats {
    std::uint64_t ctrl_frames = 0;  ///< kCtrl frames actually transmitted.
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

  /// Measured share of subflow s in units of B = kChannelBps:
  /// delivered · payload_bits / (T · B).
  double measured_subflow_share(int s, int payload_bytes) const;
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
