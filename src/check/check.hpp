// Always-on-compilable invariant oracles for the whole stack.
//
// A CheckContext is an *independent observer*: components report what they
// did (frames transmitted and cleanly received, backoff draws, queue
// depths, tags served, packets moved between layers) and the context
// re-derives the protocol's invariants from its own parallel state — a NAV
// model built only from overheard frames, an RTS/CTS handshake ledger, SFQ
// tag watermarks, warmup-free conservation counters. Any disagreement is
// recorded as a CheckViolation instead of asserting, so a fuzzer can
// collect, shrink, and replay failing scenarios.
//
// Wiring follows the TraceSink idiom (src/obs/trace.hpp): SimConfig carries
// a `CheckContext* check` that defaults to null, every instrumented site
// pays one pointer test, and checks never mutate simulator state or draw
// randomness — a run with checks enabled produces the bit-identical
// RunResult and trajectory of a run without them.
//
// Invariants covered (every category is always on):
//   mac          NAV / virtual-carrier-sense consistency (no contention-
//                initiated frame while the checker's own NAV model says the
//                medium is reserved), no DATA without a prior RTS/CTS
//                handshake on that link, responder frames (CTS/ACK) only
//                SIFS after the frame they answer, backoff draws within
//                [0, CW(retries) + max(Q, R, 0)] (capped like TagBackoff).
//   conservation per-node packet conservation: accepted = sent + dropped +
//                still queued; per-hop: offered(hop h+1) = unique
//                deliveries(hop h); unique deliveries never exceed accepts.
//   sched        per-lane internal-finish-tag monotonicity between share
//                updates; per-node virtual-clock monotonicity.
//   queue        per-queue depth never exceeds the configured capacity.
//   alloc        phase-1 post-solve: clique feasibility Σ r̂ <= B and the
//                basic fairness floor r̂_i >= w_i·B / Σ_j w_j·v_j with
//                v_j = min(l_j, 3) (protocols that guarantee it).
//   admission    churn safety: an admitted arrival never carries a clique
//                load past feasibility, a rejection is never issued against
//                a feasible load (false reject), and no lane of a departed
//                (inactive) flow is ever re-raised above the idle floor by
//                a late RATE message (the no-stale-rate invariant).
//   transport    elastic-source sanity: the sink's cumulative ACK stream is
//                monotone per flow, inflight never exceeds the window at a
//                send, and a sequence is only ever retransmitted with loss
//                evidence in hand (a timeout, or a full dupack threshold
//                since the last retransmission).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/allocation.hpp"
#include "obs/trace.hpp"
#include "phy/frame.hpp"
#include "topology/topology.hpp"
#include "util/time.hpp"

namespace e2efa {

/// Clique-load ceiling the alloc oracle grants the *distributed* phase-1
/// family: each source solves its own local LP from partial knowledge, so
/// the combined shares can oversubscribe a clique (worst observed over
/// 3000 random weighted topologies: 1.46; the MAC's tag feedback absorbs
/// the excess at run time). Loads past this envelope mean the allocator
/// itself regressed.
inline constexpr double kDistributedCliqueEnvelope = 1.75;

struct CheckConfig {
  /// Violations beyond this are counted but not stored (memory bound under
  /// a genuinely broken invariant firing per packet).
  int max_violations = 32;
  /// Clique-load ceiling granted to the distributed phase-1 family
  /// (kDistributedCliqueEnvelope was calibrated on paper-sized
  /// topologies). City-scale sweeps see more sources tiling a clique with
  /// disjoint knowledge horizons, so their by-design slack is larger —
  /// the synthetic-scale fuzz mode widens this.
  double distributed_clique_envelope = kDistributedCliqueEnvelope;
  /// When >= 0, the queue-capacity oracle expects this capacity instead of
  /// the SimConfig's. Setting it to capacity − 1 is the fuzzer's deliberate
  /// "injected bug": a correct stack then trips the oracle, proving the
  /// whole find-shrink-replay pipeline end to end.
  int queue_capacity_override = -1;
};

struct CheckViolation {
  enum class Category {
    kMac,
    kConservation,
    kSched,
    kQueue,
    kAlloc,
    kAdmission,
    kTransport,
  };
  Category category = Category::kMac;
  double t_s = 0.0;            ///< Simulation time of the violation.
  NodeId node = kInvalidNode;  ///< Offending node (-1 when not node-local).
  std::string message;
};

const char* to_string(CheckViolation::Category c);

/// Everything the oracles need to know about the run, latched by the
/// runner before the simulation starts (begin_run).
struct CheckRunInfo {
  int node_count = 0;
  int cw_min = 31;
  bool use_rts_cts = true;
  /// k2paStaticCw widens the base window by 1/node-share (still <= kCwMax);
  /// the backoff oracle then only enforces the kCwMax envelope.
  bool scaled_cw = false;
  int queue_capacity = 50;
  /// Per-subflow forwarding metadata (sim subflow ids) for conservation.
  struct SubflowInfo {
    std::int32_t flow = -1;
    int hop = 0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    bool last_hop = false;
    std::int32_t prev_subflow = -1;  ///< Upstream subflow id (-1 at hop 0).
  };
  std::vector<SubflowInfo> subflows;
};

class CheckContext {
 public:
  explicit CheckContext(CheckConfig cfg = {});

  /// Latches run parameters and sizes the counters. Must be called before
  /// any hook fires; calling it again resets all oracle state (a context
  /// can be reused across runs, but violations accumulate until clear()).
  void begin_run(const CheckRunInfo& info);

  // --- PHY/MAC hooks (Channel + DcfMac) --------------------------------
  /// Every transmission start, including RF-silent ones from crashed nodes
  /// (their MAC still follows the protocol).
  void on_frame_transmit(const Frame& f, TimeNs now);
  /// Every clean reception delivered to node `rx_node`'s MAC.
  void on_frame_receive(NodeId rx_node, const Frame& f, TimeNs end);
  /// Every backoff draw: `slots` drawn with `retries` prior failures;
  /// `lag` = max(Q, R, 0) from the tag agent (0 without tags); `ctrl_only`
  /// marks the control-frame-backlog draw from [1, kCtrlCw + 1].
  void on_backoff_draw(NodeId n, int slots, int retries, double lag,
                       bool ctrl_only, TimeNs now);

  // --- Queue/scheduler hooks (TagScheduler + FifoQueue) ----------------
  /// Depth of one scheduler lane right after an accepted enqueue.
  void on_lane_enqueue(NodeId n, std::int32_t subflow, int depth, TimeNs now);
  /// Total FIFO depth right after an accepted enqueue.
  void on_fifo_enqueue(NodeId n, int depth, TimeNs now);
  /// A lane's head was popped for service with this internal finish tag.
  void on_lane_serve(NodeId n, std::int32_t subflow, double internal_finish,
                     TimeNs now);
  /// The lane's share changed: tags may legitimately restart lower.
  void on_share_update(NodeId n, std::int32_t subflow);
  /// The node's virtual clock moved from `prev` to `next`.
  void on_vclock(NodeId n, double prev, double next, TimeNs now);

  // --- Conservation hooks (NodeStack) ----------------------------------
  void on_offered(std::int32_t subflow);    ///< Packet offered to a queue.
  void on_accepted(std::int32_t subflow);   ///< ... and accepted.
  void on_rejected(std::int32_t subflow);   ///< ... or drop-tailed.
  void on_sent(std::int32_t subflow);       ///< ACK confirmed, head popped.
  void on_mac_dropped(std::int32_t subflow);  ///< Retry limit exhausted.
  void on_delivered(std::int32_t subflow);  ///< Unique in-order delivery.

  // --- Admission / churn hooks (runner + AllocAgent) -------------------
  /// The runner's authoritative admission decision for one arrival.
  /// Violations: admitted while worst_load exceeds feasibility (+eps), or
  /// rejected while the load was feasible (false reject).
  /// `distributed_gate` only labels the message (which evaluator decided).
  void on_admission(std::int32_t flow, bool admitted, double worst_load,
                    bool distributed_gate, TimeNs now);
  /// Epoch-boundary activity snapshot (sim flow ids). The runner calls this
  /// *before* the control plane reacts to the boundary, so any lane update
  /// the agents make is judged against the current population.
  void note_active_flows(const std::vector<char>& flow_active, TimeNs now);
  /// An AllocAgent applied `share` to node n's lane of `subflow`.
  /// Violation: the subflow's flow is inactive and the share is above the
  /// idle floor — a stale RATE resurrected a departed flow's lane.
  void on_rate_applied(NodeId n, std::int32_t subflow, double share, TimeNs now);

  // --- Transport hooks (ElasticTransport + AckPlane) -------------------
  /// A source put sequence `seq` on the wire. New sends must extend the
  /// sequence space and keep inflight <= cwnd (+1: the packet being sent);
  /// retransmissions must target an un-acked sequence *and* consume loss
  /// evidence — a pending timeout, or kDupackThreshold dupacks
  /// accumulated since the last evidence-consuming retransmission.
  void on_transport_send(NodeId n, std::int32_t flow, std::int64_t seq,
                         bool retransmit, double cwnd, TimeNs now);
  /// An ACK arrived back at the source (advancing or duplicate).
  void on_transport_ack(NodeId n, std::int32_t flow, std::int64_t cumack,
                        TimeNs now);
  /// The source's RTO fired (evidence for the retransmission that follows).
  void on_transport_timeout(NodeId n, std::int32_t flow, TimeNs now);
  /// The sink emitted a cumulative ACK. Violation: it moved backwards.
  void on_transport_cumack(NodeId n, std::int32_t flow, std::int64_t cumack,
                           TimeNs now);

  // --- Phase-1 post-solve hook (runner) --------------------------------
  /// `expect_floor` asserts the basic-fairness floor in addition to clique
  /// feasibility (protocols whose solve guarantees it). `strict_clique`
  /// demands max clique load <= 1 + eps (globally-solved allocations);
  /// false relaxes it to kDistributedCliqueEnvelope — the Sec. IV-B
  /// distributed solve works from per-source partial knowledge, and the
  /// independent local optima may mildly oversubscribe a clique by design.
  void check_allocation(const ContentionGraph& g, const Allocation& a,
                        bool expect_floor, bool strict_clique, double t_s);

  /// End of run: closes the conservation ledger against the final per-node
  /// backlogs (indexed by node id).
  void finalize(const std::vector<int>& backlog_per_node, TimeNs now);

  // --- Flight recorder -------------------------------------------------
  /// Arms the flight recorder: at the *first* violation, the sink's recent
  /// records (its ring contents — see TraceSink::set_ring) are snapshotted
  /// into flight_records(), preserving the window leading up to the
  /// failure. The sink is borrowed, not owned, and must outlive the run; a
  /// streaming sink cannot serve (TraceSink::recent_records).
  void arm_flight_recorder(const TraceSink* sink) { flight_sink_ = sink; }
  /// Records captured at the first violation (empty when none fired or the
  /// recorder was never armed). Dump with write_trace_file().
  const std::vector<TraceRecord>& flight_records() const {
    return flight_records_;
  }

  // --- Results ---------------------------------------------------------
  bool ok() const { return total_violations_ == 0; }
  std::int64_t total_violations() const { return total_violations_; }
  const std::vector<CheckViolation>& violations() const { return violations_; }
  /// Human-readable multi-line report ("" when clean).
  std::string report() const;
  /// Drops accumulated violations (begin_run already resets oracle state).
  void clear();

 private:
  void fail(CheckViolation::Category cat, NodeId node, TimeNs now,
            std::string message);
  int expected_capacity() const;
  /// Independent copy of the MAC's escalated-window rule (the oracle must
  /// not share code with the implementation it checks):
  /// min((cw_min + 1)·2^min(retries,16) − 1, kCwMax).
  int escalated_window(int cw_min, int retries) const;

  struct NodeMacState {
    TimeNs nav_until = 0;  ///< From overheard frames only (like the MAC).
    /// Timestamps of the last frame of each kind cleanly received from a
    /// peer and addressed to this node (handshake recency ledger).
    std::unordered_map<NodeId, TimeNs> rts_from;
    std::unordered_map<NodeId, TimeNs> cts_from;
    std::unordered_map<NodeId, TimeNs> data_from;
  };

  CheckConfig cfg_;
  CheckRunInfo info_;
  std::int64_t total_violations_ = 0;
  std::vector<CheckViolation> violations_;
  const TraceSink* flight_sink_ = nullptr;  ///< Not owned.
  std::vector<TraceRecord> flight_records_;

  std::vector<NodeMacState> mac_;

  // Scheduler oracle state, keyed by (node << 32) | subflow.
  std::unordered_map<std::uint64_t, double> lane_watermark_;
  std::vector<double> vclock_floor_;

  // Conservation counters (warmup-free, per sim subflow).
  std::vector<std::int64_t> offered_, accepted_, rejected_, sent_, mac_dropped_,
      delivered_;

  // Admission oracle state: current per-sim-flow activity (empty until the
  // runner's first note_active_flows — every flow then counts as active).
  std::vector<char> active_flow_;

  // Transport oracle state, keyed by flow id. The oracle re-derives the
  // source's ledger from the hook stream alone: its own outstanding set,
  // its own dupack/timeout evidence counters.
  struct TransportFlowState {
    std::int64_t max_sent = -1;
    std::int64_t src_cum = -1;   ///< Highest cumack seen back at the source.
    std::int64_t sink_cum = -1;  ///< Highest cumack the sink ever emitted.
    int dupacks = 0;             ///< Dupacks since the last evidence consume.
    int timeout_evidence = 0;    ///< Timeouts not yet consumed by a retx.
    std::set<std::int64_t> outstanding;
  };
  std::map<std::int32_t, TransportFlowState> transport_;
};

}  // namespace e2efa
