// Per-node in-band allocation agent: distributed phase 1 (Sec. IV-B) run
// as a real protocol inside the simulation.
//
// Each node's AllocAgent reproduces, over lossy broadcast control frames,
// exactly the knowledge pipeline the out-of-band oracle
// (`distributed_allocate`) computes in one shot:
//
//   1. Own(v): the active subflows with an endpoint in interference range —
//      known locally (the shared `overheard_subflow_sets` helper).
//   2. K(v) = Own(v) ∪ ⋃ Own(u): built from neighbors' periodic HELLOs and
//      RTS/CTS piggyback deltas instead of an oracle scan. Entries go stale
//      (and drop out of K) when a neighbor is unheard past a timeout — a
//      crashed neighbor's knowledge disappears the same way the oracle's
//      TopologyMask removes it.
//   3. Local cliques: maximal cliques of the contention graph restricted to
//      K(v) — same `maximal_cliques_in_subset` call the oracle makes.
//   4. Constraint accumulation: every transmitting hop of a flow keeps
//      acc = local cliques ∪ acc(next hop) and sends it upstream in
//      CONSTRAINT messages, so the source converges to the union over the
//      whole path.
//   5. Local LP: when knowledge and constraints have been quiescent for a
//      fixed window (kQuiesceS), the source calls the *same*
//      `solve_local_problem` the oracle uses, applies the share to its own
//      lane, and pushes a RATE message downstream; each hop applies and
//      forwards it.
//
// Everything is sequence-numbered and periodically re-advertised, so lost
// frames, flow churn, and node/link faults all heal through the same
// mechanism: state re-converges in-band, with no out-of-band epoch re-solve.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "alloc/distributed.hpp"
#include "ctrl/messages.hpp"
#include "mac/dcf_mac.hpp"
#include "obs/profiler.hpp"
#include "sched/tag_scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace e2efa {

class CheckContext;

class AllocAgent : public CtrlPiggyback {
 public:
  /// `graph` must be the contention graph of `flows` over `topo`; `sched`
  /// is this node's scheduler (null for nodes that originate no subflow —
  /// pure receivers still relay knowledge). The agent installs itself as
  /// the MAC's control listener and piggyback source in start().
  ///
  /// `hardened` selects the loss-hardened mode. Off, the control plane is
  /// the plain fire-and-forget protocol; on — the runner sets it for runs
  /// with faults, churn, or mobility — the agent additionally (a) arms
  /// retransmits of unacknowledged CONSTRAINT/RATE sends (overhearing the
  /// peer's forward acts as the ack), (b) forces a degraded solve when
  /// quiescence is never reached within kMaxStalenessS, and keeps
  /// last-known-good rates while every neighbor is timed out, and (c)
  /// counts HELLO sequence gaps. Everything else runs in both modes and
  /// only acts under dynamics: stale-generation drops (generations move
  /// only when the flow set does) and ADMIT rounds (the runner starts them
  /// only for flow arrivals).
  AllocAgent(Simulator& sim, DcfMac& mac, const Topology& topo, const FlowSet& flows,
             const ContentionGraph& graph, TagScheduler* sched, bool hardened,
             Rng rng, TraceSink* trace);

  /// Installs MAC hooks, applies locally-estimated bootstrap shares to this
  /// node's lanes, and schedules the first (phase-jittered) tick. Call once
  /// before the simulation runs.
  void start();

  /// Epoch-boundary notification from the runner: `subflow_active[s]` says
  /// whether global subflow s carries traffic now. Replaces the oracle's
  /// per-epoch re-solve: the agent re-derives Own(v), re-advertises, and the
  /// network re-converges in-band.
  void note_active_set(const std::vector<char>& subflow_active);

  const CtrlAgentStats& stats() const { return stats_; }
  /// Fallbacks of this node's own local solves.
  const Phase1Fallbacks& fallbacks() const { return fallbacks_; }

  /// Share currently applied to this node's lane of `subflow` (asserts if
  /// the lane is not local). Test/collection helper.
  double applied_share(std::int32_t subflow) const;

  /// Starts an in-band ADMIT round for flow `f` (self must be f's source).
  /// The request walks the candidate's transmitting nodes, each ANDing its
  /// local clique-bound verdict (the shared admission_local_worst_load
  /// kernel) into the message; the last hop's ADMIT_RSP returns the verdict
  /// hop-by-hop. Until it arrives the source resends the request with
  /// backoff, up to kRetxLimit times, then the round times out.
  void request_admission(FlowId f);

  /// Outcome of the ADMIT round started for `f`: 1 admitted, 0 rejected,
  /// -1 still pending / timed out / never requested.
  int inband_admission(FlowId f) const;

  /// Arms the invariant observer: every lane-share application is reported
  /// through CheckContext::on_rate_applied (no-stale-rate invariant). Pure
  /// observation — an armed agent's trajectory is bit-identical.
  void set_check(CheckContext* check) { check_ = check; }

  /// Arms the self-profiler: tick/message handling accrues to the ctrl
  /// phase and local LP solves to the solve phase. Pure observation.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }

  // --- CtrlPiggyback ---
  std::shared_ptr<const CtrlMsg> piggyback_payload(int* extra_bytes) override;

 private:
  struct NeighborTable {
    std::uint32_t seq = 0;
    std::vector<int> subflows;  ///< Ascending advertised Own set.
    TimeNs heard = 0;           ///< Last time *anything* from this origin decoded.
    bool have_hello = false;    ///< Deltas merge only after a full HELLO.
    /// Timed out of K(v). The table itself is kept (sequence baseline and
    /// advertised set survive) so a reappearing neighbor — mobility, healed
    /// link — re-enters the instant anything from it decodes again, instead
    /// of being dropped until its next full HELLO.
    bool stale = false;
    std::uint32_t gap_seq = 0;  ///< Last delta seq counted as a gap.
  };

  /// Retransmit state of one directed stream: a flow's CONSTRAINT stream
  /// upstream, its RATE stream downstream, or an ADMIT round's request.
  /// Armed (`await`) by a fresh send whose ack can be observed; every tick
  /// advances `timer`, and after `wait` ticks without the ack the stream is
  /// resent with the wait doubled (capped at kRefreshTicks), at most
  /// kRetxLimit times — after that the periodic kRefreshTicks cadence is
  /// the safety net (an ADMIT round times out instead).
  struct Retx {
    bool await = false;
    int retx = 0, wait = 1, timer = 0;
    std::uint32_t span = 0;  ///< Span of the last send (0 = none / tracing off).
  };

  /// Per managed flow (self is a transmitting node of an active flow).
  struct FlowCtrl {
    int hop = 0;
    NodeId upstream = kInvalidNode;    ///< Previous transmitter (invalid at source).
    NodeId downstream = kInvalidNode;  ///< Next transmitter (invalid at last hop).
    std::set<std::vector<int>> acc;    ///< local cliques ∪ downstream acc.
    std::vector<std::vector<int>> down_acc;
    TimeNs last_acc_change = 0;
    bool acc_sent = false;         ///< acc advertised upstream since last change.
    bool solve_dirty = true;       ///< Source: state changed since last solve.
    std::uint32_t rate_seq = 0;    ///< Source: last issued; elsewhere: last applied.
    double rate = 0.0;
    bool have_rate = false;
    int ticks_since_constraint = 0;
    int ticks_since_rate = 0;
    /// The CONSTRAINT stream (acked by overhearing the upstream hop send
    /// its own) and the RATE stream (acked by overhearing the downstream
    /// hop forward it).
    Retx ctr_tx, rate_tx;
    /// When solve_dirty last went true — or the last reconfigure(), which
    /// restarts it even for flows that are already dirty.
    TimeNs solve_dirty_since = 0;
    /// Span of the event that last dirtied the solve (the solve record
    /// chains to it; 0 when tracing is off/filtered).
    std::uint32_t cause_span = 0;
  };

  /// One in-band ADMIT round at the candidate's source: open while
  /// `req_tx.await` holds (the ADMIT_RSP is its ack).
  struct AdmitState {
    Retx req_tx;
    int verdict = -1;  ///< 1 admitted, 0 rejected, -1 open or timed out.
  };

  void tick();
  void on_ctrl(const Frame& f);
  void reconfigure(TimeNs now);  ///< Re-derives own_/managed flows from active_.
  void rebuild_own(TimeNs now);
  bool flow_active(FlowId f) const;
  void refresh_knowledge(TimeNs now);  ///< Rebuilds K(v) + local cliques if dirty.
  bool rebuild_acc(FlowCtrl& fc, TimeNs now);  ///< True if acc changed.
  /// One tick of a stream's retransmit timer, in this order: advance the
  /// timer, give up at kRetxLimit, skip while the MAC has no `room`. True
  /// when the stream is due for a resend now; cause_ then holds the
  /// kCtrlRetransmit span the resend chains to (the caller clears it).
  bool retransmit_due(Retx& r, bool room, CtrlMsg::Kind kind, FlowId f, TimeNs now);
  void send_hello();
  /// `fresh` is false for a retransmit, which keeps the stream's backoff.
  void send_constraint(FlowId f, FlowCtrl& fc, bool fresh = true);
  void send_rate(FlowId f, FlowCtrl& fc, bool fresh = true);
  /// Sends `m` as the next message of stream `tx`; `ackable` (a fresh send
  /// whose ack can be overheard) re-arms the stream in hardened mode.
  void send_stream(Retx& tx, std::shared_ptr<CtrlMsg> m, bool ackable);
  void maybe_solve(FlowId f, FlowCtrl& fc, TimeNs now);
  void set_lane(FlowId f, int hop, double share);
  /// A directed message about flow `f`, stamped with origin, `to`, `seq`,
  /// the flow and its current generation.
  std::shared_ptr<CtrlMsg> directed(CtrlMsg::Kind kind, FlowId f, NodeId to,
                                    std::uint32_t seq) const;
  /// Emits the kCtrlSend record (span = fresh id, parent = cause_), stamps
  /// the span onto the message, and hands it to the MAC. Returns the span.
  std::uint32_t send(std::shared_ptr<CtrlMsg> m);
  /// Sends an ADMIT_REQ (candidate `f`'s subflows attached) or ADMIT_RSP
  /// to the transmitter at hop `to_hop` of f's path, carrying verdict `ok`.
  /// Returns the send span.
  std::uint32_t send_admit(CtrlMsg::Kind kind, FlowId f, int to_hop, bool ok);
  void handle_admit(const CtrlMsg& m, TimeNs now);
  /// The receive filter shared by CONSTRAINT and RATE: drops a message
  /// composed before its flow's latest toggle (stale generation), takes
  /// overhearing the stream's peer forward it as the implicit ack, and
  /// returns the addressed flow — null when the message is stale, not
  /// addressed to self, or about a flow self does not manage.
  FlowCtrl* addressed_flow(const CtrlMsg& m);
  /// Counts a sequence gap: a HELLO (`full`) or HELLO_DELTA from `t`'s
  /// origin numbered past what the table expects (hardened mode).
  void count_gap(NeighborTable& t, const CtrlMsg& m, bool full, TimeNs now);
  bool local_admit_ok(FlowId f, TimeNs now);
  int candidate_hop(FlowId f) const;  ///< Self's hop on f's path, -1 if none.
  void rebuild_beacon();
  double local_basic_estimate(FlowId f) const;
  /// Emits the kCtrlRecv record (parent = the message's send span) and
  /// returns its fresh span id (0 when the ctrl category is off).
  std::uint32_t trace_recv(const Frame& f, TimeNs now) const;

  Simulator& sim_;
  DcfMac& mac_;
  const Topology& topo_;
  const FlowSet& flows_;
  const ContentionGraph& graph_;
  TagScheduler* sched_;
  bool hardened_;
  Rng rng_;
  TraceSink* trace_;
  NodeId self_;

  std::vector<char> active_;  ///< Per-global-subflow activity bitmap.
  std::vector<int> full_own_;  ///< Own(self) over all subflows (static).
  std::vector<int> own_;       ///< full_own_ ∩ active_, ascending.
  std::uint32_t own_seq_ = 0;

  std::map<NodeId, NeighborTable> tables_;
  bool knowledge_dirty_ = true;
  TimeNs last_knowledge_change_ = 0;
  std::vector<int> knowledge_;  ///< K(self), ascending.
  std::vector<std::vector<int>> local_cliques_;

  std::map<FlowId, FlowCtrl> flows_ctrl_;
  std::map<FlowId, AdmitState> admits_;  ///< Source-side ADMIT rounds.

  /// Per-flow epoch generation: bumped on every activity toggle the runner
  /// announces. Deterministically identical across agents (every agent sees
  /// the same note_active_set sequence), so a receiver can drop a
  /// CONSTRAINT/RATE composed before the flow's last arrival/departure.
  std::vector<std::uint16_t> flow_gen_;
  bool any_fresh_neighbor_ = true;  ///< False when every table is stale.

  std::shared_ptr<const CtrlMsg> beacon_;  ///< Cached piggyback payload.
  int beacon_bytes_ = 0;
  std::vector<int> pending_delta_;  ///< Own ids added at own_seq_.
  std::uint32_t ctrl_seq_ = 0;      ///< Sequence for CONSTRAINT streams.

  bool started_ = false;
  CtrlAgentStats stats_;
  Phase1Fallbacks fallbacks_;
  CheckContext* check_ = nullptr;
  Profiler* profiler_ = nullptr;

  /// Span of the event currently being handled — the kCtrlRecv span inside
  /// on_ctrl, a solve/retransmit/admit span around the sends it causes, 0
  /// otherwise. Every kCtrlSend/kCtrlRate record parents to it.
  std::uint32_t cause_ = 0;
  /// Span of the most recent kCtrlAdmit record (local_admit_ok), so the
  /// ADMIT_REQ the verdict triggers can chain to it.
  std::uint32_t admit_span_ = 0;
};

}  // namespace e2efa
