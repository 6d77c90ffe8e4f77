#include "check/check.hpp"

#include <algorithm>
#include <cmath>

#include "contention/contention_graph.hpp"
#include "transport/transport.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace e2efa {

namespace {
// Slack for the floating-point phase-1 and admission checks.
constexpr double kAllocEps = 1e-6;
}  // namespace

const char* to_string(CheckViolation::Category c) {
  switch (c) {
    case CheckViolation::Category::kMac: return "mac";
    case CheckViolation::Category::kConservation: return "conservation";
    case CheckViolation::Category::kSched: return "sched";
    case CheckViolation::Category::kQueue: return "queue";
    case CheckViolation::Category::kAlloc: return "alloc";
    case CheckViolation::Category::kAdmission: return "admission";
    case CheckViolation::Category::kTransport: return "transport";
  }
  return "?";
}

CheckContext::CheckContext(CheckConfig cfg) : cfg_(cfg) {
  E2EFA_ASSERT(cfg_.max_violations >= 1);
}

void CheckContext::begin_run(const CheckRunInfo& info) {
  E2EFA_ASSERT(info.node_count >= 1);
  info_ = info;
  mac_.assign(static_cast<std::size_t>(info.node_count), NodeMacState{});
  lane_watermark_.clear();
  vclock_floor_.assign(static_cast<std::size_t>(info.node_count), 0.0);
  const std::size_t S = info_.subflows.size();
  offered_.assign(S, 0);
  accepted_.assign(S, 0);
  rejected_.assign(S, 0);
  sent_.assign(S, 0);
  mac_dropped_.assign(S, 0);
  delivered_.assign(S, 0);
  active_flow_.clear();
  transport_.clear();
}

// ------------------------------------------------------- admission oracle

namespace {
// Lanes of inactive flows idle at the runner's / control plane's 1e-6
// floor; anything above this ceiling on an inactive lane is a real rate.
constexpr double kIdleFloorCeiling = 2e-6;
}  // namespace

void CheckContext::on_admission(std::int32_t flow, bool admitted,
                                double worst_load, bool distributed_gate,
                                TimeNs now) {
  const char* gate = distributed_gate ? "distributed" : "centralized";
  if (admitted && worst_load > 1.0 + kAllocEps) {
    fail(CheckViolation::Category::kAdmission, kInvalidNode, now,
         "flow " + std::to_string(flow) + " admitted by the " + gate +
             " gate with infeasible clique load " + std::to_string(worst_load));
  } else if (!admitted && worst_load <= 1.0 + kAllocEps) {
    fail(CheckViolation::Category::kAdmission, kInvalidNode, now,
         "flow " + std::to_string(flow) + " rejected by the " + gate +
             " gate at feasible clique load " + std::to_string(worst_load));
  }
}

void CheckContext::note_active_flows(const std::vector<char>& flow_active,
                                     TimeNs now) {
  (void)now;
  active_flow_ = flow_active;
}

void CheckContext::on_rate_applied(NodeId n, std::int32_t subflow, double share,
                                   TimeNs now) {
  if (active_flow_.empty()) return;  // static run: every flow is active
  const auto s = static_cast<std::size_t>(subflow);
  if (s >= info_.subflows.size()) return;
  const std::int32_t flow = info_.subflows[s].flow;
  if (flow < 0 || static_cast<std::size_t>(flow) >= active_flow_.size()) return;
  if (!active_flow_[static_cast<std::size_t>(flow)] &&
      share > kIdleFloorCeiling) {
    fail(CheckViolation::Category::kAdmission, n, now,
         "stale rate " + std::to_string(share) + " applied to subflow " +
             std::to_string(subflow) + " of inactive flow " +
             std::to_string(flow));
  }
}

void CheckContext::fail(CheckViolation::Category cat, NodeId node, TimeNs now,
                        std::string message) {
  ++total_violations_;
  // Flight recorder: latch the armed sink's recent records at the *first*
  // violation, while the ring still shows the window leading up to it.
  if (total_violations_ == 1 && flight_sink_ != nullptr)
    flight_records_ = flight_sink_->recent_records();
  if (static_cast<int>(violations_.size()) < cfg_.max_violations)
    violations_.push_back({cat, to_seconds(now), node, std::move(message)});
}

int CheckContext::expected_capacity() const {
  return cfg_.queue_capacity_override >= 0 ? cfg_.queue_capacity_override
                                           : info_.queue_capacity;
}

int CheckContext::escalated_window(int cw_min, int retries) const {
  const int k = std::min(retries, 16);
  const long long w = (static_cast<long long>(cw_min) + 1) * (1LL << k) - 1;
  return static_cast<int>(std::min<long long>(w, kCwMax));
}

// ------------------------------------------------------------- PHY / MAC

void CheckContext::on_frame_transmit(const Frame& f, TimeNs now) {
  E2EFA_ASSERT(f.tx >= 0 && f.tx < info_.node_count);
  NodeMacState& s = mac_[static_cast<std::size_t>(f.tx)];

  // Recency window for responder frames: the MAC schedules CTS, DATA, and
  // ACK exactly one SIFS after the frame they answer.
  const TimeNs answer_window = kSifs + kSlot;
  auto answered = [&](const std::unordered_map<NodeId, TimeNs>& from) {
    const auto it = from.find(f.rx);
    return it != from.end() && now - it->second <= answer_window;
  };

  // Contention-initiated frames must respect the virtual carrier sense this
  // context derived from its own overheard-frame model. (The MAC's rule is
  // strictly stronger: NAV expired a full DIFS+slot before transmitting.)
  const bool contention_initiated =
      f.type == FrameType::kRts || f.type == FrameType::kCtrl ||
      (f.type == FrameType::kData && !info_.use_rts_cts);
  if (contention_initiated && s.nav_until > now)
    fail(CheckViolation::Category::kMac, f.tx, now,
         strformat("%s transmitted %.3f us before the NAV reservation expires",
                   f.type == FrameType::kRts    ? "RTS"
                   : f.type == FrameType::kCtrl ? "CTRL"
                                                : "DATA",
                   static_cast<double>(s.nav_until - now) * 1e-3));

  switch (f.type) {
    case FrameType::kRts:
      if (!info_.use_rts_cts)
        fail(CheckViolation::Category::kMac, f.tx, now,
             "RTS transmitted in basic-access mode");
      break;
    case FrameType::kCts:
      if (!info_.use_rts_cts)
        fail(CheckViolation::Category::kMac, f.tx, now,
             "CTS transmitted in basic-access mode");
      else if (!answered(s.rts_from))
        fail(CheckViolation::Category::kMac, f.tx, now,
             strformat("CTS to node %d without an RTS from it within SIFS",
                       f.rx));
      break;
    case FrameType::kData:
      if (info_.use_rts_cts && !answered(s.cts_from))
        fail(CheckViolation::Category::kMac, f.tx, now,
             strformat("DATA to node %d without a prior RTS/CTS handshake "
                       "on that link",
                       f.rx));
      break;
    case FrameType::kAck:
      if (!answered(s.data_from))
        fail(CheckViolation::Category::kMac, f.tx, now,
             strformat("ACK to node %d without a DATA from it within SIFS",
                       f.rx));
      break;
    case FrameType::kCtrl:
      break;  // broadcast, no handshake role
  }
}

void CheckContext::on_frame_receive(NodeId rx_node, const Frame& f, TimeNs end) {
  E2EFA_ASSERT(rx_node >= 0 && rx_node < info_.node_count);
  NodeMacState& s = mac_[static_cast<std::size_t>(rx_node)];
  if (f.type == FrameType::kCtrl) return;  // no NAV, no handshake role
  if (f.rx != rx_node) {
    // Overheard: mirror the MAC's virtual-carrier-sense update.
    s.nav_until = std::max(s.nav_until, end + f.nav);
    return;
  }
  switch (f.type) {
    case FrameType::kRts: s.rts_from[f.tx] = end; break;
    case FrameType::kCts: s.cts_from[f.tx] = end; break;
    case FrameType::kData: s.data_from[f.tx] = end; break;
    default: break;
  }
}

void CheckContext::on_backoff_draw(NodeId n, int slots, int retries, double lag,
                                   bool ctrl_only, TimeNs now) {
  if (ctrl_only) {
    if (slots < 1 || slots > kCtrlCw + 1)
      fail(CheckViolation::Category::kMac, n, now,
           strformat("control backoff draw %d outside [1, %d]", slots, kCtrlCw + 1));
    return;
  }
  // The scaled-CW ablation widens the base window by 1/node-share; only the
  // kCwMax envelope is oracle-checkable there. Everything else draws from
  // [0, CW(retries) + max(Q, R, 0)], capped like TagBackoff.
  const double base =
      info_.scaled_cw ? static_cast<double>(kCwMax)
                      : static_cast<double>(escalated_window(info_.cw_min, retries));
  const long long max_slots =
      std::llround(std::min(base + std::max(lag, 0.0), 16383.0));
  if (slots < 0 || slots > max_slots)
    fail(CheckViolation::Category::kMac, n, now,
         strformat("backoff draw %d outside [0, %lld] (retries %d, lag %.2f)",
                   slots, max_slots, retries, lag));
}

// ------------------------------------------------------ queue / scheduler

void CheckContext::on_lane_enqueue(NodeId n, std::int32_t subflow, int depth,
                                   TimeNs now) {
  if (depth > expected_capacity())
    fail(CheckViolation::Category::kQueue, n, now,
         strformat("subflow %d lane depth %d exceeds capacity %d", subflow,
                   depth, expected_capacity()));
}

void CheckContext::on_fifo_enqueue(NodeId n, int depth, TimeNs now) {
  if (depth > expected_capacity())
    fail(CheckViolation::Category::kQueue, n, now,
         strformat("FIFO depth %d exceeds capacity %d", depth,
                   expected_capacity()));
}

void CheckContext::on_lane_serve(NodeId n, std::int32_t subflow,
                                 double internal_finish, TimeNs now) {
  const std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(n))
                             << 32) |
                            static_cast<std::uint32_t>(subflow);
  const auto it = lane_watermark_.find(key);
  if (it != lane_watermark_.end() && internal_finish < it->second - 1e-9)
    fail(CheckViolation::Category::kSched, n, now,
         strformat("subflow %d served with internal finish tag %.6f below "
                   "the previous %.6f (no share update in between)",
                   subflow, internal_finish, it->second));
  lane_watermark_[key] = internal_finish;
}

void CheckContext::on_share_update(NodeId n, std::int32_t subflow) {
  // A share change legitimately re-derives tags from the current virtual
  // clock (they may drop); restart the monotonicity watermark.
  const std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(n))
                             << 32) |
                            static_cast<std::uint32_t>(subflow);
  lane_watermark_.erase(key);
}

void CheckContext::on_vclock(NodeId n, double prev, double next, TimeNs now) {
  if (next < prev - 1e-9)
    fail(CheckViolation::Category::kSched, n, now,
         strformat("virtual clock moved backwards: %.6f -> %.6f", prev, next));
  double& floor = vclock_floor_[static_cast<std::size_t>(n)];
  if (next < floor - 1e-9)
    fail(CheckViolation::Category::kSched, n, now,
         strformat("virtual clock %.6f below the node's watermark %.6f", next,
                   floor));
  floor = std::max(floor, next);
}

// ---------------------------------------------------------- conservation

void CheckContext::on_offered(std::int32_t subflow) {
  ++offered_[static_cast<std::size_t>(subflow)];
}
void CheckContext::on_accepted(std::int32_t subflow) {
  ++accepted_[static_cast<std::size_t>(subflow)];
}
void CheckContext::on_rejected(std::int32_t subflow) {
  ++rejected_[static_cast<std::size_t>(subflow)];
}
void CheckContext::on_sent(std::int32_t subflow) {
  ++sent_[static_cast<std::size_t>(subflow)];
}
void CheckContext::on_mac_dropped(std::int32_t subflow) {
  ++mac_dropped_[static_cast<std::size_t>(subflow)];
}
void CheckContext::on_delivered(std::int32_t subflow) {
  ++delivered_[static_cast<std::size_t>(subflow)];
}

void CheckContext::finalize(const std::vector<int>& backlog_per_node, TimeNs now) {
  E2EFA_ASSERT(static_cast<int>(backlog_per_node.size()) == info_.node_count);
  const std::size_t S = info_.subflows.size();

  // Per-subflow ledger: every offer is either accepted or drop-tailed, a
  // forwarded offer exists for exactly every unique upstream delivery, and
  // unique deliveries never exceed accepts (each accepted packet can be
  // delivered in order at most once).
  for (std::size_t s = 0; s < S; ++s) {
    const CheckRunInfo::SubflowInfo& m = info_.subflows[s];
    const std::int32_t id = static_cast<std::int32_t>(s);
    if (offered_[s] != accepted_[s] + rejected_[s])
      fail(CheckViolation::Category::kConservation, m.src, now,
           strformat("subflow %d: offered %lld != accepted %lld + rejected %lld",
                     id, static_cast<long long>(offered_[s]),
                     static_cast<long long>(accepted_[s]),
                     static_cast<long long>(rejected_[s])));
    if (m.prev_subflow >= 0) {
      const std::int64_t up = delivered_[static_cast<std::size_t>(m.prev_subflow)];
      if (offered_[s] != up)
        fail(CheckViolation::Category::kConservation, m.src, now,
             strformat("subflow %d: offered %lld != upstream subflow %d "
                       "deliveries %lld",
                       id, static_cast<long long>(offered_[s]), m.prev_subflow,
                       static_cast<long long>(up)));
    }
    if (delivered_[s] > accepted_[s])
      fail(CheckViolation::Category::kConservation, m.dst, now,
           strformat("subflow %d: %lld unique deliveries exceed %lld accepts",
                     id, static_cast<long long>(delivered_[s]),
                     static_cast<long long>(accepted_[s])));
  }

  // Per-node conservation: everything a node's queues accepted either left
  // via an ACK-confirmed pop, was dropped at the retry limit, or is still
  // buffered when the run ends.
  std::vector<std::int64_t> in(static_cast<std::size_t>(info_.node_count), 0);
  std::vector<std::int64_t> gone(static_cast<std::size_t>(info_.node_count), 0);
  for (std::size_t s = 0; s < S; ++s) {
    const std::size_t n = static_cast<std::size_t>(info_.subflows[s].src);
    in[n] += accepted_[s];
    gone[n] += sent_[s] + mac_dropped_[s];
  }
  for (int n = 0; n < info_.node_count; ++n) {
    const std::int64_t queued = backlog_per_node[static_cast<std::size_t>(n)];
    if (in[static_cast<std::size_t>(n)] != gone[static_cast<std::size_t>(n)] + queued)
      fail(CheckViolation::Category::kConservation, n, now,
           strformat("node %d: accepted %lld != sent+dropped %lld + queued %lld",
                     n, static_cast<long long>(in[static_cast<std::size_t>(n)]),
                     static_cast<long long>(gone[static_cast<std::size_t>(n)]),
                     static_cast<long long>(queued)));
  }
}

// ------------------------------------------------------------- transport

void CheckContext::on_transport_send(NodeId n, std::int32_t flow,
                                     std::int64_t seq, bool retransmit,
                                     double cwnd, TimeNs now) {
  TransportFlowState& s = transport_[flow];
  if (!retransmit) {
    if (seq <= s.max_sent)
      fail(CheckViolation::Category::kTransport, n, now,
           strformat("flow %d: new send seq %lld does not extend the sequence "
                     "space (max sent %lld)",
                     flow, static_cast<long long>(seq),
                     static_cast<long long>(s.max_sent)));
    s.max_sent = std::max(s.max_sent, seq);
    s.outstanding.insert(seq);
    // The oracle re-derives inflight from its own ledger; the packet just
    // sent is already in it, so the bound is cwnd itself (floor semantics:
    // a fractional window admits its floor + the send filling it).
    if (static_cast<double>(s.outstanding.size()) > cwnd + 1e-6)
      fail(CheckViolation::Category::kTransport, n, now,
           strformat("flow %d: %zu packets in flight exceed cwnd %.3f",
                     flow, s.outstanding.size(), cwnd));
    return;
  }
  if (seq <= s.src_cum || s.outstanding.count(seq) == 0) {
    fail(CheckViolation::Category::kTransport, n, now,
         strformat("flow %d: retransmit of seq %lld which is not outstanding "
                   "(cumack %lld)",
                   flow, static_cast<long long>(seq),
                   static_cast<long long>(s.src_cum)));
    return;
  }
  // Loss evidence: a pending timeout, or a full dupack threshold since the
  // last evidence-consuming retransmission.
  if (s.timeout_evidence > 0) {
    --s.timeout_evidence;
  } else if (s.dupacks >= kDupackThreshold) {
    s.dupacks = 0;
  } else {
    fail(CheckViolation::Category::kTransport, n, now,
         strformat("flow %d: seq %lld retransmitted without loss evidence "
                   "(%d dupacks, no timeout)",
                   flow, static_cast<long long>(seq), s.dupacks));
  }
}

void CheckContext::on_transport_ack(NodeId n, std::int32_t flow,
                                    std::int64_t cumack, TimeNs now) {
  (void)n;
  (void)now;
  TransportFlowState& s = transport_[flow];
  if (cumack > s.src_cum) {
    s.src_cum = cumack;
    s.dupacks = 0;
    s.outstanding.erase(s.outstanding.begin(),
                        s.outstanding.upper_bound(cumack));
  } else if (cumack == s.src_cum) {
    ++s.dupacks;
  }
}

void CheckContext::on_transport_timeout(NodeId n, std::int32_t flow,
                                        TimeNs now) {
  (void)n;
  (void)now;
  ++transport_[flow].timeout_evidence;
}

void CheckContext::on_transport_cumack(NodeId n, std::int32_t flow,
                                       std::int64_t cumack, TimeNs now) {
  TransportFlowState& s = transport_[flow];
  if (cumack < s.sink_cum)
    fail(CheckViolation::Category::kTransport, n, now,
         strformat("flow %d: sink cumulative ack moved backwards: %lld -> %lld",
                   flow, static_cast<long long>(s.sink_cum),
                   static_cast<long long>(cumack)));
  s.sink_cum = std::max(s.sink_cum, cumack);
}

// --------------------------------------------------------------- phase 1

void CheckContext::check_allocation(const ContentionGraph& g, const Allocation& a,
                                    bool expect_floor, bool strict_clique,
                                    double t_s) {
  const TimeNs t = from_seconds(t_s);
  // Globally-solved allocations must fit every clique exactly. The
  // distributed family (Sec. IV-B) solves one local LP per source with
  // partial knowledge, and the per-source optima need not agree — mild
  // clique oversubscription is by design, and the MAC absorbs it (tags
  // throttle proportionally). Empirically the worst load over 3000 random
  // weighted topologies is 1.46, so anything past the envelope below is a
  // genuine allocator regression, not local-knowledge slack.
  const double cap =
      strict_clique ? 1.0 + kAllocEps : cfg_.distributed_clique_envelope;
  const double load = max_clique_load(g, a.subflow_share);
  if (load > cap)
    fail(CheckViolation::Category::kAlloc, kInvalidNode, t,
         strformat("clique capacity violated: max clique load %.9f > %g",
                   load, cap));
  if (!expect_floor) return;
  if (!satisfies_basic_fairness(g, a.flow_share, kAllocEps)) {
    // Name the worst offender for the report.
    const std::vector<double> floor = basic_shares(g);
    double worst = 0.0;
    FlowId worst_flow = -1;
    for (FlowId f = 0; f < g.flows().flow_count(); ++f) {
      const double deficit = floor[static_cast<std::size_t>(f)] -
                             a.flow_share[static_cast<std::size_t>(f)];
      if (deficit > worst) {
        worst = deficit;
        worst_flow = f;
      }
    }
    fail(CheckViolation::Category::kAlloc, kInvalidNode, t,
         strformat("basic fairness floor violated: flow %d is %.9f below its "
                   "basic share",
                   worst_flow, worst));
  }
}

// ---------------------------------------------------------------- report

std::string CheckContext::report() const {
  if (ok()) return "";
  std::string out = strformat("%lld invariant violation(s):\n",
                              static_cast<long long>(total_violations_));
  for (const CheckViolation& v : violations_) {
    out += strformat("  [%s] t=%.6fs", to_string(v.category), v.t_s);
    if (v.node >= 0) out += strformat(" node %d", v.node);
    out += ": " + v.message + "\n";
  }
  if (total_violations_ > static_cast<std::int64_t>(violations_.size()))
    out += strformat("  ... and %lld more (recording capped at %d)\n",
                     static_cast<long long>(total_violations_) -
                         static_cast<long long>(violations_.size()),
                     cfg_.max_violations);
  return out;
}

void CheckContext::clear() {
  total_violations_ = 0;
  violations_.clear();
  flight_records_.clear();
}

}  // namespace e2efa
