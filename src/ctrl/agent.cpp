#include "ctrl/agent.hpp"

#include <algorithm>

#include "alloc/knowledge.hpp"
#include "check/check.hpp"
#include "contention/cliques.hpp"
#include "ctrl/admission.hpp"
#include "util/assert.hpp"

namespace e2efa {

namespace {
/// HELLO cadence; also the agent's housekeeping tick. Each agent offsets
/// its first tick by a random phase within one period so HELLOs from
/// contending nodes do not synchronize.
constexpr double kHelloPeriodS = 0.25;
/// CONSTRAINT / RATE re-advertisement cadence, in ticks (loss healing).
constexpr int kRefreshTicks = 4;
/// Knowledge and constraints must be unchanged this long before a source
/// re-solves its local LP (debounces solve storms during convergence).
constexpr double kQuiesceS = 0.6;
/// A neighbor unheard for this long drops out of K(v) — the in-band
/// equivalent of the oracle's TopologyMask removing a crashed node.
constexpr double kNeighborTimeoutS = 1.0;
/// Max subflow ids in a piggybacked HELLO_DELTA (bounded so the payload
/// fits the MAC's kCtrlPiggybackMax airtime allowance).
constexpr int kPiggybackMaxIds = 8;
/// Skip optional sends while this many control frames are still queued.
constexpr int kMaxBacklog = 16;
/// Max CONSTRAINT/RATE/ADMIT_REQ retransmissions per send (hardened).
constexpr int kRetxLimit = 3;
/// A dirty solve still blocked by the quiescence gate after this long is
/// forced through with whatever state is on hand (hardened).
constexpr double kMaxStalenessS = 2.0;
}  // namespace

AllocAgent::AllocAgent(Simulator& sim, DcfMac& mac, const Topology& topo,
                       const FlowSet& flows, const ContentionGraph& graph,
                       TagScheduler* sched, bool hardened, Rng rng, TraceSink* trace)
    : sim_(sim),
      mac_(mac),
      topo_(topo),
      flows_(flows),
      graph_(graph),
      sched_(sched),
      hardened_(hardened),
      rng_(rng),
      trace_(trace),
      self_(mac.self()) {
  E2EFA_ASSERT(&graph_.flows() == &flows_);
  active_.assign(static_cast<std::size_t>(flows_.subflow_count()), 1);
  flow_gen_.assign(static_cast<std::size_t>(flows_.flow_count()), 0);
  full_own_ = overheard_subflow_sets(topo_, flows_)[static_cast<std::size_t>(self_)];
}

void AllocAgent::start() {
  E2EFA_ASSERT_MSG(!started_, "AllocAgent::start called twice");
  started_ = true;
  mac_.set_ctrl_listener([this](const Frame& f) { on_ctrl(f); });
  mac_.set_ctrl_piggyback(this);
  reconfigure(sim_.now());
  // Random phase within one period desynchronizes contending HELLOs.
  const TimeNs period = from_seconds(kHelloPeriodS);
  const TimeNs phase =
      1 + static_cast<TimeNs>(rng_.uniform_u64(static_cast<std::uint64_t>(period)));
  sim_.schedule_in(phase, [this] { tick(); });
}

void AllocAgent::note_active_set(const std::vector<char>& subflow_active) {
  E2EFA_ASSERT(subflow_active.size() == active_.size());
  // Every activity toggle advances the flow's epoch generation. All agents
  // see the same note_active_set sequence, so generations agree everywhere
  // without any messaging — a hardened receiver can therefore drop a
  // CONSTRAINT/RATE composed before the flow's latest arrival/departure.
  for (FlowId f = 0; f < flows_.flow_count(); ++f) {
    const auto s0 = static_cast<std::size_t>(flows_.subflow_index(f, 0));
    if (active_[s0] != subflow_active[s0])
      ++flow_gen_[static_cast<std::size_t>(f)];
  }
  active_ = subflow_active;
  if (!started_) return;  // start() derives everything from active_.
  reconfigure(sim_.now());
  if (mac_.ctrl_backlog() <= kMaxBacklog) send_hello();
}

bool AllocAgent::flow_active(FlowId f) const {
  return active_[static_cast<std::size_t>(flows_.subflow_index(f, 0))] != 0;
}

double AllocAgent::applied_share(std::int32_t subflow) const {
  E2EFA_ASSERT(sched_ != nullptr);
  return sched_->share_of(subflow);
}

// ------------------------------------------------------------ (re)derive

void AllocAgent::reconfigure(TimeNs now) {
  rebuild_own(now);

  // Managed flows: active flows where self is a transmitting node.
  std::map<FlowId, FlowCtrl> next;
  for (const Flow& fl : flows_.flows()) {
    if (!flow_active(fl.id)) continue;
    for (int h = 0; h < fl.length(); ++h) {
      if (fl.path[static_cast<std::size_t>(h)] != self_) continue;
      FlowCtrl fc;
      const auto it = flows_ctrl_.find(fl.id);
      if (it != flows_ctrl_.end()) fc = std::move(it->second);
      fc.hop = h;
      fc.upstream = h > 0 ? fl.path[static_cast<std::size_t>(h - 1)] : kInvalidNode;
      fc.downstream =
          h + 1 < fl.length() ? fl.path[static_cast<std::size_t>(h + 1)] : kInvalidNode;
      fc.acc_sent = false;  // re-advertise after any reconfiguration
      fc.solve_dirty = true;
      fc.solve_dirty_since = now;
      next.emplace(fl.id, std::move(fc));
      break;  // paths are simple: self appears at most once
    }
  }

  if (sched_ != nullptr) {
    // Lanes of flows that dropped out idle at the inactive floor; newly
    // managed lanes bootstrap from the local basic estimate until a RATE
    // (or an own solve) arrives.
    for (const auto& [f, fc] : flows_ctrl_)
      if (next.find(f) == next.end()) set_lane(f, fc.hop, TagScheduler::kInactiveShare);
    for (const auto& [f, fc] : next)
      if (flows_ctrl_.find(f) == flows_ctrl_.end())
        set_lane(f, fc.hop, local_basic_estimate(f));
  }
  flows_ctrl_ = std::move(next);
}

void AllocAgent::rebuild_own(TimeNs now) {
  std::vector<int> next;
  for (int s : full_own_)
    if (active_[static_cast<std::size_t>(s)]) next.push_back(s);
  if (next == own_ && own_seq_ != 0) return;
  // Piggyback delta: newly appearing ids (bounded — the periodic full HELLO
  // heals anything truncated here).
  pending_delta_.clear();
  for (int s : next)
    if (!std::binary_search(own_.begin(), own_.end(), s)) pending_delta_.push_back(s);
  if (static_cast<int>(pending_delta_.size()) > kPiggybackMaxIds)
    pending_delta_.resize(static_cast<std::size_t>(kPiggybackMaxIds));
  own_ = std::move(next);
  ++own_seq_;
  rebuild_beacon();
  knowledge_dirty_ = true;
  last_knowledge_change_ = now;
}

void AllocAgent::refresh_knowledge(TimeNs now) {
  // A neighbor unheard past the timeout takes its advertised Own set with
  // it — this is how a crashed relay leaves K(v) without any oracle help.
  // The table itself survives, marked stale: a reappearing node (mobility,
  // healed link) re-enters K(v) the moment anything from it decodes again,
  // with its sequence baseline intact so a matching-seq HELLO_DELTA merges
  // immediately instead of being ignored until the next full HELLO.
  const TimeNs timeout = from_seconds(kNeighborTimeoutS);
  any_fresh_neighbor_ = tables_.empty();
  for (auto& [u, t] : tables_) {
    if (!t.stale && now - t.heard > timeout) {
      t.stale = true;
      knowledge_dirty_ = true;
      last_knowledge_change_ = now;
    }
    if (!t.stale) any_fresh_neighbor_ = true;
  }
  if (!knowledge_dirty_) return;
  knowledge_dirty_ = false;

  std::set<int> k(own_.begin(), own_.end());
  for (const auto& [u, t] : tables_) {
    if (t.stale) continue;
    for (int s : t.subflows)
      if (s >= 0 && s < flows_.subflow_count() && active_[static_cast<std::size_t>(s)])
        k.insert(s);
  }
  std::vector<int> nk(k.begin(), k.end());
  if (nk == knowledge_) return;
  knowledge_ = std::move(nk);
  local_cliques_ = maximal_cliques_in_subset(graph_, knowledge_);
  for (auto& [f, fc] : flows_ctrl_) rebuild_acc(fc, now);
}

bool AllocAgent::rebuild_acc(FlowCtrl& fc, TimeNs now) {
  std::set<std::vector<int>> acc(local_cliques_.begin(), local_cliques_.end());
  for (const std::vector<int>& c : fc.down_acc) acc.insert(c);
  if (acc == fc.acc) return false;
  fc.acc = std::move(acc);
  fc.last_acc_change = now;
  fc.acc_sent = false;
  if (!fc.solve_dirty) fc.solve_dirty_since = now;
  fc.solve_dirty = true;
  // Causal chain: the solve this dirtying eventually triggers parents to
  // the event being handled right now (a CONSTRAINT receipt, usually).
  fc.cause_span = cause_;
  return true;
}

double AllocAgent::local_basic_estimate(FlowId f) const {
  std::set<FlowId> seen;
  for (int s : own_) seen.insert(flows_.subflow(s).flow);
  seen.insert(f);
  double denom = 0.0;
  for (FlowId j : seen)
    denom += flows_.flow(j).weight * virtual_length(flows_.flow(j).length());
  return flows_.flow(f).weight / denom;
}

// ------------------------------------------------------------------ tick

void AllocAgent::tick() {
  Profiler::Scope prof(profiler_, Profiler::Phase::kCtrl);
  const TimeNs now = sim_.now();
  refresh_knowledge(now);
  const bool room = mac_.ctrl_backlog() <= kMaxBacklog;
  if (room) send_hello();
  for (auto& [f, fc] : flows_ctrl_) {
    ++fc.ticks_since_constraint;
    ++fc.ticks_since_rate;
    if (fc.upstream != kInvalidNode && room &&
        (!fc.acc_sent || fc.ticks_since_constraint >= kRefreshTicks))
      send_constraint(f, fc);
    if (fc.upstream == kInvalidNode) {  // source duties
      maybe_solve(f, fc, now);
      if (fc.have_rate && fc.downstream != kInvalidNode && room &&
          fc.ticks_since_rate >= kRefreshTicks)
        send_rate(f, fc);
    }
    // Streams are armed only in hardened mode, so a lean run never resends.
    if (retransmit_due(fc.ctr_tx, room, CtrlMsg::Kind::kConstraint, f, now))
      send_constraint(f, fc, /*fresh=*/false);
    if (retransmit_due(fc.rate_tx, room, CtrlMsg::Kind::kRate, f, now))
      send_rate(f, fc, /*fresh=*/false);
    cause_ = 0;
  }
  for (auto& [f, st] : admits_)
    if (retransmit_due(st.req_tx, room, CtrlMsg::Kind::kAdmitReq, f, now))
      st.req_tx.span = send_admit(CtrlMsg::Kind::kAdmitReq, f, 1, true);
  cause_ = 0;
  sim_.schedule_in(from_seconds(kHelloPeriodS), [this] { tick(); });
}

bool AllocAgent::retransmit_due(Retx& r, bool room, CtrlMsg::Kind kind, FlowId f,
                                TimeNs now) {
  if (!r.await || ++r.timer < r.wait) return false;
  if (r.retx >= kRetxLimit) {
    r.await = false;  // give up (an ADMIT round times out)
    return false;
  }
  if (!room) return false;
  ++r.retx;
  r.timer = 0;
  r.wait = std::min(r.wait * 2, kRefreshTicks);
  ++stats_.retransmits;
  cause_ = 0;
  if (trace_ != nullptr && trace_->enabled(TraceEvent::kCtrlRetransmit)) {
    // Chained to the unacknowledged send; the resend chains to this record.
    cause_ = trace_->new_span();
    trace_->record(now, TraceEvent::kCtrlRetransmit,
                   static_cast<std::int16_t>(self_),
                   static_cast<std::int32_t>(kind), f,
                   static_cast<double>(r.retx),
                   static_cast<double>(r.wait), cause_, r.span);
  }
  return true;
}

void AllocAgent::maybe_solve(FlowId f, FlowCtrl& fc, TimeNs now) {
  if (!fc.solve_dirty) return;
  // Graceful degradation: when every neighbor has timed out (partition, or
  // the node walked away), a fresh solve would see an almost-empty K(v) and
  // grab far more than its converged share — keep the last-known-good rate
  // until somebody is heard again.
  if (hardened_ && fc.have_rate && !any_fresh_neighbor_) return;
  const TimeNs q = from_seconds(kQuiesceS);
  if (now - last_knowledge_change_ < q || now - fc.last_acc_change < q) {
    // Degraded solve: churn can keep knowledge from ever quiescing; after
    // kMaxStalenessS of blocked dirtiness, solve with what is on hand.
    if (!hardened_ ||
        now - fc.solve_dirty_since < from_seconds(kMaxStalenessS))
      return;
    ++stats_.forced_solves;
  }
  fc.solve_dirty = false;
  LocalProblem lp;
  {
    Profiler::Scope prof(profiler_, Profiler::Phase::kSolve);
    lp = solve_local_problem(flows_, f, {fc.acc.begin(), fc.acc.end()},
                             knowledge_);
  }
  ++stats_.solves;
  std::uint32_t solve_span = 0;
  if (trace_ != nullptr && trace_->enabled(TraceEvent::kCtrlSolve)) {
    solve_span = trace_->new_span();
    trace_->record(now, TraceEvent::kCtrlSolve,
                   static_cast<std::int16_t>(self_), f,
                   static_cast<std::int32_t>(lp.status),
                   lp.flow_share, static_cast<double>(fc.acc.size()),
                   solve_span, fc.cause_span);
  }
  if (!fc.have_rate || lp.flow_share != fc.rate) {
    fc.rate = lp.flow_share;
    fc.have_rate = true;
    ++fc.rate_seq;
    // The lane update and RATE push are consequences of this solve.
    const std::uint32_t saved_cause = cause_;
    cause_ = solve_span;
    if (fc.rate > 0.0) set_lane(f, fc.hop, fc.rate);
    if (fc.downstream != kInvalidNode && mac_.ctrl_backlog() <= kMaxBacklog)
      send_rate(f, fc);
    cause_ = saved_cause;
  }
}

void AllocAgent::set_lane(FlowId f, int hop, double share) {
  if (sched_ == nullptr) return;
  const std::int32_t sf = flows_.subflow_index(f, hop);
  if (sched_->share_of(sf) == share) return;
  sched_->note_time(sim_.now());
  sched_->update_share(sf, share);
  if (check_ != nullptr)
    check_->on_rate_applied(self_, sf, share, sim_.now());
  if (trace_ != nullptr)
    trace_->record(sim_.now(), TraceEvent::kCtrlRate,
                   static_cast<std::int16_t>(self_), sf, f, share,
                   0.0, 0, cause_);
}

// ------------------------------------------------------------------ send

std::shared_ptr<CtrlMsg> AllocAgent::directed(CtrlMsg::Kind kind, FlowId f, NodeId to,
                                              std::uint32_t seq) const {
  auto m = std::make_shared<CtrlMsg>();
  m->kind = kind;
  m->origin = self_;
  m->to = to;
  m->seq = seq;
  m->flow = f;
  m->gen = flow_gen_[static_cast<std::size_t>(f)];
  return m;
}

std::uint32_t AllocAgent::send(std::shared_ptr<CtrlMsg> m) {
  const int bytes = m->wire_bytes();
  stats_.ctrl_bytes += static_cast<std::uint64_t>(bytes);
  std::uint32_t span = 0;
  if (trace_ != nullptr && trace_->enabled(TraceEvent::kCtrlSend)) {
    span = trace_->new_span();
    m->span = span;
    trace_->record(sim_.now(), TraceEvent::kCtrlSend,
                   static_cast<std::int16_t>(self_),
                   static_cast<std::int32_t>(m->kind), m->to,
                   static_cast<double>(bytes), m->seq, span,
                   cause_);
  }
  mac_.send_ctrl(std::move(m), bytes);
  return span;
}

void AllocAgent::send_hello() {
  auto m = std::make_shared<CtrlMsg>();
  m->kind = CtrlMsg::Kind::kHello;
  m->origin = self_;
  m->seq = own_seq_;
  m->subflows = own_;
  ++stats_.hello_sent;
  send(std::move(m));
}

void AllocAgent::send_constraint(FlowId f, FlowCtrl& fc, bool fresh) {
  E2EFA_ASSERT(fc.upstream != kInvalidNode);
  auto m = directed(CtrlMsg::Kind::kConstraint, f, fc.upstream, ++ctrl_seq_);
  m->cliques.assign(fc.acc.begin(), fc.acc.end());
  fc.acc_sent = true;
  fc.ticks_since_constraint = 0;
  ++stats_.constraint_sent;
  // The ack is overhearing the upstream hop forward its own CONSTRAINT —
  // only possible when the upstream is not already the source.
  send_stream(fc.ctr_tx, std::move(m), fresh && fc.hop >= 2);
}

void AllocAgent::send_rate(FlowId f, FlowCtrl& fc, bool fresh) {
  E2EFA_ASSERT(fc.downstream != kInvalidNode && fc.have_rate);
  auto m = directed(CtrlMsg::Kind::kRate, f, fc.downstream, fc.rate_seq);
  m->rate = fc.rate;
  fc.ticks_since_rate = 0;
  ++stats_.rate_sent;
  // The ack is overhearing the downstream hop forward the RATE — only
  // possible when the downstream is not already the last transmitter.
  send_stream(fc.rate_tx, std::move(m), fresh && fc.hop + 2 < flows_.flow(f).length());
}

void AllocAgent::send_stream(Retx& tx, std::shared_ptr<CtrlMsg> m, bool ackable) {
  if (ackable && hardened_) tx = Retx{.await = true};
  tx.span = send(std::move(m));
}

// --------------------------------------------------------------- receive

void AllocAgent::on_ctrl(const Frame& fr) {
  E2EFA_ASSERT(fr.ctrl != nullptr);
  Profiler::Scope prof(profiler_, Profiler::Phase::kCtrl);
  const CtrlMsg& m = *fr.ctrl;
  if (m.origin == self_) return;
  const TimeNs now = sim_.now();
  ++stats_.msgs_received;
  // Everything this receipt triggers — forwards, lane updates, solve
  // dirtying — chains to the kCtrlRecv span until the handler returns.
  cause_ = trace_recv(fr, now);

  // Any decoded message is a liveness proof for its origin — including one
  // timed out as stale: it rejoins K(v) immediately, sequence baseline
  // intact (the staleness fix for mobile nodes that wander back).
  NeighborTable& t = tables_[m.origin];
  t.heard = now;
  if (t.stale) {
    t.stale = false;
    knowledge_dirty_ = true;
    last_knowledge_change_ = now;
  }

  switch (m.kind) {
    case CtrlMsg::Kind::kHello:
      count_gap(t, m, /*full=*/true, now);
      if (!t.have_hello || t.seq != m.seq || t.subflows != m.subflows) {
        if (t.subflows != m.subflows) {
          knowledge_dirty_ = true;
          last_knowledge_change_ = now;
        }
        t.subflows = m.subflows;
        t.seq = m.seq;
        t.have_hello = true;
      }
      break;

    case CtrlMsg::Kind::kHelloDelta:
      count_gap(t, m, /*full=*/false, now);
      // Additive merge, valid only against the matching full table.
      if (t.have_hello && t.seq == m.seq && !m.subflows.empty()) {
        bool changed = false;
        for (int s : m.subflows) {
          const auto it = std::lower_bound(t.subflows.begin(), t.subflows.end(), s);
          if (it == t.subflows.end() || *it != s) {
            t.subflows.insert(it, s);
            changed = true;
          }
        }
        if (changed) {
          knowledge_dirty_ = true;
          last_knowledge_change_ = now;
        }
      }
      break;

    case CtrlMsg::Kind::kConstraint: {
      FlowCtrl* const fc = addressed_flow(m);
      if (fc == nullptr || fc->down_acc == m.cliques) break;
      fc->down_acc = m.cliques;
      refresh_knowledge(now);  // local cliques must be current before the union
      if (rebuild_acc(*fc, now) && fc->upstream != kInvalidNode &&
          mac_.ctrl_backlog() <= kMaxBacklog)
        send_constraint(m.flow, *fc);  // propagate upstream without a tick of delay
      break;
    }

    case CtrlMsg::Kind::kRate: {
      FlowCtrl* const fc = addressed_flow(m);
      if (fc == nullptr) break;
      fc->rate_seq = m.seq;
      fc->rate = m.rate;
      fc->have_rate = true;
      if (m.rate > 0.0) set_lane(m.flow, fc->hop, m.rate);
      // Forward even unchanged refreshes: the hop after us may have missed
      // an earlier copy, and loss healing relies on this relay chain.
      if (fc->downstream != kInvalidNode && mac_.ctrl_backlog() <= kMaxBacklog)
        send_rate(m.flow, *fc);
      break;
    }

    case CtrlMsg::Kind::kAdmitReq:
    case CtrlMsg::Kind::kAdmitRsp:
      handle_admit(m, now);
      break;

    case CtrlMsg::Kind::kTransAck:
      break;  // dispatched to the AckPlane listener, never to agents
  }
  cause_ = 0;
}

void AllocAgent::count_gap(NeighborTable& t, const CtrlMsg& m, bool full, TimeNs now) {
  // A HELLO should carry the table's next generation, a HELLO_DELTA the
  // current one. Anything newer means we missed a whole advertisement
  // generation (for a delta: the full HELLO carrying it was lost). The
  // periodic re-advertisement heals the table; the counter records that
  // the gap happened.
  const std::uint32_t expected = t.seq + (full ? 1 : 0);
  if (!hardened_ || !t.have_hello || m.seq <= expected || t.gap_seq == m.seq) return;
  ++stats_.seq_gaps;
  t.gap_seq = m.seq;
  if (trace_ != nullptr)
    trace_->record(now, TraceEvent::kCtrlSeqGap,
                   static_cast<std::int16_t>(self_), m.origin,
                   static_cast<std::int32_t>(m.seq - expected),
                   static_cast<double>(expected),
                   static_cast<double>(m.seq), 0, cause_);
}

AllocAgent::FlowCtrl* AllocAgent::addressed_flow(const CtrlMsg& m) {
  if (m.flow >= 0 && m.flow < flows_.flow_count() &&
      m.gen != flow_gen_[static_cast<std::size_t>(m.flow)]) {
    // Composed before the flow's latest arrival/departure: dropping it is
    // the no-stale-rate guarantee (an old RATE can never resurrect lanes).
    ++stats_.stale_dropped;
    return nullptr;
  }
  const auto it = flows_ctrl_.find(m.flow);
  if (it == flows_ctrl_.end()) return nullptr;
  FlowCtrl& fc = it->second;
  // The implicit ack: the upstream hop advertising its own accumulation
  // acks the CONSTRAINT we sent it; the downstream hop forwarding the RATE
  // acks ours.
  if (m.kind == CtrlMsg::Kind::kConstraint) {
    if (m.origin == fc.upstream) fc.ctr_tx.await = false;
  } else if (m.origin == fc.downstream) {
    fc.rate_tx.await = false;
  }
  return m.to == self_ ? &fc : nullptr;
}

// ------------------------------------------------------------- admission

int AllocAgent::candidate_hop(FlowId f) const {
  const Flow& fl = flows_.flow(f);
  for (int h = 0; h < fl.length(); ++h)
    if (fl.path[static_cast<std::size_t>(h)] == self_) return h;
  return -1;
}

bool AllocAgent::local_admit_ok(FlowId f, TimeNs now) {
  refresh_knowledge(now);
  // Judge the candidate against what this node can currently see: K(v)
  // plus the candidate's own subflows (they travel with the ADMIT_REQ).
  std::vector<int> kv = knowledge_;
  const Flow& fl = flows_.flow(f);
  for (int h = 0; h < fl.length(); ++h) kv.push_back(flows_.subflow_index(f, h));
  std::sort(kv.begin(), kv.end());
  kv.erase(std::unique(kv.begin(), kv.end()), kv.end());
  const double load = admission_local_worst_load(flows_, graph_, kv, f);
  const bool ok = load <= 1.0 + kAdmissionEps;
  admit_span_ = 0;
  if (trace_ != nullptr && trace_->enabled(TraceEvent::kCtrlAdmit)) {
    admit_span_ = trace_->new_span();
    trace_->record(now, TraceEvent::kCtrlAdmit,
                   static_cast<std::int16_t>(self_), f,
                   ok ? 1 : 0, load, 0.0, admit_span_, cause_);
  }
  return ok;
}

void AllocAgent::request_admission(FlowId f) {
  E2EFA_ASSERT(flows_.flow(f).source() == self_);
  AdmitState& st = admits_[f];
  st = AdmitState{};
  const bool ok = local_admit_ok(f, sim_.now());
  if (!ok || flows_.flow(f).length() < 2) {
    // A local rejection decides the round; so does a single-transmitter
    // flow (the source's verdict is the whole path's).
    st.verdict = ok ? 1 : 0;
    return;
  }
  st.req_tx.await = true;
  // The request is a consequence of the local verdict just recorded.
  cause_ = admit_span_;
  st.req_tx.span = send_admit(CtrlMsg::Kind::kAdmitReq, f, 1, true);
  cause_ = 0;
}

int AllocAgent::inband_admission(FlowId f) const {
  const auto it = admits_.find(f);
  return it == admits_.end() ? -1 : it->second.verdict;
}

std::uint32_t AllocAgent::send_admit(CtrlMsg::Kind kind, FlowId f, int to_hop, bool ok) {
  const Flow& fl = flows_.flow(f);
  auto m = directed(kind, f, fl.path[static_cast<std::size_t>(to_hop)], ++ctrl_seq_);
  if (kind == CtrlMsg::Kind::kAdmitReq) {
    // The candidate's path travels with the request.
    for (int h = 0; h < fl.length(); ++h) m->subflows.push_back(flows_.subflow_index(f, h));
    ++stats_.admit_req_sent;
  } else {
    ++stats_.admit_rsp_sent;
  }
  m->admit_ok = ok;
  return send(std::move(m));
}

void AllocAgent::handle_admit(const CtrlMsg& m, TimeNs now) {
  if (m.to != self_) return;
  if (m.flow < 0 || m.flow >= flows_.flow_count()) return;
  const FlowId f = m.flow;
  const int h = candidate_hop(f);
  if (h < 0) return;  // not on the candidate's path (stale/corrupt target)

  if (m.kind == CtrlMsg::Kind::kAdmitReq) {
    bool ok = m.admit_ok;
    if (ok) {
      ok = local_admit_ok(f, now);
      // Chain the forward/response through the local verdict record (which
      // itself chains to the receipt).
      if (admit_span_ != 0) cause_ = admit_span_;
    }
    // More transmitters downstream: AND our verdict in and pass it on. The
    // last transmitter's verdict is final: return it upstream.
    if (h + 1 < flows_.flow(f).length())
      send_admit(CtrlMsg::Kind::kAdmitReq, f, h + 1, ok);
    else
      send_admit(CtrlMsg::Kind::kAdmitRsp, f, h - 1, ok);
    return;
  }

  // kAdmitRsp: relay it upstream; at the source it closes the round.
  if (h > 0) {
    send_admit(CtrlMsg::Kind::kAdmitRsp, f, h - 1, m.admit_ok);
    return;
  }
  const auto it = admits_.find(f);
  if (it != admits_.end() && it->second.req_tx.await) {
    it->second.req_tx.await = false;
    it->second.verdict = m.admit_ok ? 1 : 0;
  }
}

std::uint32_t AllocAgent::trace_recv(const Frame& fr, TimeNs now) const {
  if (trace_ == nullptr || !trace_->enabled(TraceEvent::kCtrlRecv)) return 0;
  const CtrlMsg& m = *fr.ctrl;
  const std::uint32_t span = trace_->new_span();
  trace_->record(now, TraceEvent::kCtrlRecv,
                 static_cast<std::int16_t>(self_),
                 static_cast<std::int32_t>(m.kind), m.origin,
                 static_cast<double>(m.wire_bytes()),
                 fr.type == FrameType::kCtrl ? 0.0 : 1.0, span,
                 m.span);
  return span;
}

// ------------------------------------------------------------- piggyback

std::shared_ptr<const CtrlMsg> AllocAgent::piggyback_payload(int* extra_bytes) {
  if (beacon_ == nullptr) rebuild_beacon();
  *extra_bytes += beacon_bytes_;
  return beacon_;
}

void AllocAgent::rebuild_beacon() {
  auto m = std::make_shared<CtrlMsg>();
  m->kind = CtrlMsg::Kind::kHelloDelta;
  m->origin = self_;
  m->seq = own_seq_;
  m->subflows = pending_delta_;
  beacon_bytes_ = m->wire_bytes();
  beacon_ = std::move(m);
}

}  // namespace e2efa
