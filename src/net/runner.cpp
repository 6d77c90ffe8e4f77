#include "net/runner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "alloc/centralized.hpp"
#include "alloc/distributed.hpp"
#include "check/check.hpp"
#include "alloc/maxmin.hpp"
#include "alloc/two_tier.hpp"
#include "contention/clique_store.hpp"
#include "contention/contention_graph.hpp"
#include "ctrl/admission.hpp"
#include "net/mobility.hpp"
#include "net/node_stack.hpp"
#include "route/routing.hpp"
#include "sched/fifo_queue.hpp"
#include "sched/tag_scheduler.hpp"
#include "sim/simulator.hpp"
#include "traffic/cbr_source.hpp"
#include "transport/ack_plane.hpp"
#include "transport/aimd.hpp"
#include "transport/bbr.hpp"
#include "util/assert.hpp"

namespace e2efa {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::k80211: return "802.11";
    case Protocol::kTwoTier: return "two-tier";
    case Protocol::kTwoTierBalanced: return "two-tier-mm";
    case Protocol::k2paCentralized: return "2PA-C";
    case Protocol::k2paDistributed: return "2PA-D";
    case Protocol::kMaxMin: return "maxmin";
    case Protocol::k2paStaticCw: return "2PA-staticCW";
    case Protocol::k2paDistributedCtrl: return "2PA-Dctrl";
  }
  return "?";
}

double RunResult::measured_subflow_share(int s, std::int64_t bps, int payload_bytes) const {
  E2EFA_ASSERT(s >= 0 && s < static_cast<int>(delivered_per_subflow.size()));
  const double bits =
      static_cast<double>(delivered_per_subflow[static_cast<std::size_t>(s)]) * 8.0 *
      payload_bytes;
  return bits / (sim_seconds * static_cast<double>(bps));
}

namespace {

/// Share given to lanes of flows that are currently inactive (they carry no
/// traffic; a tiny positive value keeps the scheduler's invariants).
constexpr double kInactiveShare = 1e-6;

/// Phase-1 dispatch over an arbitrary flow set. Sets *has_target false for
/// plain 802.11 (no allocation). For the centralized family a solve whose
/// basic-share floors had to be relaxed (min_relaxation < 1: the clique
/// rows cannot carry every flow's basic share) reports kInfeasible — the
/// distributed form keeps its by-design local relaxations.
LpStatus compute_allocation(Protocol proto, const Topology& topo, const FlowSet& flows,
                            const TopologyMask* mask, Allocation* out,
                            bool* has_target,
                            const std::vector<std::vector<int>>* cliques = nullptr) {
  *has_target = false;
  if (proto == Protocol::k80211) return LpStatus::kOptimal;
  ContentionGraph graph(topo, flows);
  switch (proto) {
    case Protocol::kTwoTier: {
      const TwoTierResult r = two_tier_allocate(graph, cliques);
      if (r.status != LpStatus::kOptimal) return r.status;
      if (r.min_relaxation < 1.0 - 1e-9) return LpStatus::kInfeasible;
      *out = r.allocation;
      *has_target = true;
      return LpStatus::kOptimal;
    }
    case Protocol::kTwoTierBalanced:
      *out = maxmin_allocate_subflows(graph, {}, cliques).allocation;
      *has_target = true;
      return LpStatus::kOptimal;
    case Protocol::kMaxMin:
      *out = maxmin_allocate(graph, {}, cliques).allocation;
      *has_target = true;
      return LpStatus::kOptimal;
    case Protocol::k2paCentralized:
    case Protocol::k2paStaticCw: {
      const CentralizedResult r = centralized_allocate(graph, cliques);
      if (r.status != LpStatus::kOptimal) return r.status;
      if (r.min_relaxation < 1.0 - 1e-9) return LpStatus::kInfeasible;
      *out = r.allocation;
      *has_target = true;
      return LpStatus::kOptimal;
    }
    case Protocol::k2paDistributed:
      *out = distributed_allocate(topo, flows, graph).allocation;
      *has_target = true;
      return LpStatus::kOptimal;
    case Protocol::k2paDistributedCtrl:
      // The oracle the in-band agents are measured against: identical
      // distributed algorithm, with the neighbor exchange restricted to the
      // epoch's surviving topology (a dead neighbor's HELLOs go unheard).
      *out = distributed_allocate(topo, flows, graph, mask).allocation;
      *has_target = true;
      return LpStatus::kOptimal;
    case Protocol::k80211:
      break;
  }
  return LpStatus::kOptimal;
}

/// Global-index allocation for one epoch: flows inactive in the epoch get
/// share 0 (lanes get kInactiveShare). Indices are over the *sim* flow set
/// (provisioned flows plus repair-route variants).
struct EpochAllocation {
  double start_s = 0.0;
  bool has_target = false;
  LpStatus status = LpStatus::kOptimal;
  std::vector<double> flow_share;     ///< Sim flow ids; 0 when inactive.
  std::vector<double> subflow_share;  ///< Sim subflow ids; kInactiveShare
                                      ///< when inactive.
};

EpochAllocation allocate_epoch(Protocol proto, const Topology& topo,
                               const FlowSet& all_flows,
                               const std::vector<FlowId>& active, double start_s,
                               const TopologyMask* mask, CheckContext* check,
                               CliqueStore* store, Profiler* profile) {
  EpochAllocation out;
  out.start_s = start_s;
  out.flow_share.assign(static_cast<std::size_t>(all_flows.flow_count()), 0.0);
  out.subflow_share.assign(static_cast<std::size_t>(all_flows.subflow_count()),
                           kInactiveShare);
  if (active.empty() || proto == Protocol::k80211) return out;

  std::vector<Flow> specs;
  specs.reserve(active.size());
  for (FlowId f : active) specs.push_back(all_flows.flow(f));
  FlowSet sub(topo, specs);

  // Incremental clique path (centralized family): the store maintains the
  // maximal cliques of the *sim* contention graph restricted to the
  // epoch's active subflows, so an epoch boundary re-derives only the
  // cliques around the flows that toggled. The epoch's subgraph is
  // vertex-for-vertex the graph over `sub` (contention is pure geometry of
  // the unchanged endpoints), so relabeling the snapshot into sub ids and
  // re-canonicalizing yields exactly what from-scratch enumeration on
  // `sub` would — downstream LP rows are bit-identical.
  std::vector<std::vector<int>> epoch_cliques;
  const std::vector<std::vector<int>>* cliques = nullptr;
  if (store != nullptr) {
    Profiler::Scope prof(profile, Profiler::Phase::kClique);
    std::vector<char> want(static_cast<std::size_t>(all_flows.subflow_count()), 0);
    std::vector<int> sub_id(static_cast<std::size_t>(all_flows.subflow_count()), -1);
    for (std::size_t i = 0; i < active.size(); ++i) {
      const FlowId g = active[i];
      for (int h = 0; h < all_flows.flow(g).length(); ++h) {
        const int full = all_flows.subflow_index(g, h);
        want[static_cast<std::size_t>(full)] = 1;
        sub_id[static_cast<std::size_t>(full)] =
            sub.subflow_index(static_cast<FlowId>(i), h);
      }
    }
    store->set_active(want);
    epoch_cliques = store->cliques();
    for (auto& c : epoch_cliques) {
      for (int& v : c) v = sub_id[static_cast<std::size_t>(v)];
      std::sort(c.begin(), c.end());
    }
    std::sort(epoch_cliques.begin(), epoch_cliques.end());
    cliques = &epoch_cliques;
  }

  Allocation a;
  {
    Profiler::Scope prof(profile, Profiler::Phase::kSolve);
    out.status =
        compute_allocation(proto, topo, sub, mask, &a, &out.has_target, cliques);
  }
  E2EFA_ASSERT_MSG(out.status == LpStatus::kOptimal,
                   "phase-1 allocation infeasible: basic shares exceed clique capacity");
  if (!out.has_target) return out;
  if (check != nullptr) {
    // Post-solve oracle. Only centralized 2PA *rejects* solves whose
    // flow-level basic-share floors had to be relaxed, so only it promises
    // the floor (two-tier floors per-subflow shares — the end-to-end gap is
    // the paper's critique of it — and the distributed variants keep their
    // by-design local relaxations); everything else is held to clique
    // feasibility alone.
    const bool expect_floor = proto == Protocol::k2paCentralized ||
                              proto == Protocol::k2paStaticCw;
    // The distributed family's per-source local solves may mildly
    // oversubscribe a clique (partial knowledge); they get the documented
    // envelope instead of the strict bound.
    const bool strict_clique = proto != Protocol::k2paDistributed &&
                               proto != Protocol::k2paDistributedCtrl;
    ContentionGraph graph(topo, sub);
    check->check_allocation(graph, a, expect_floor, strict_clique, start_s);
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    const FlowId g = active[i];
    out.flow_share[static_cast<std::size_t>(g)] = a.flow_share[i];
    for (int h = 0; h < all_flows.flow(g).length(); ++h) {
      out.subflow_share[static_cast<std::size_t>(all_flows.subflow_index(g, h))] =
          a.subflow_share[static_cast<std::size_t>(sub.subflow_index(static_cast<FlowId>(i), h))];
    }
  }
  return out;
}

/// True when every node and link of `path` survives under `mask`.
bool path_alive(const std::vector<NodeId>& path, const TopologyMask& mask) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (!mask.node_alive(path[i])) return false;
    if (i + 1 < path.size() && !mask.link_alive(path[i], path[i + 1])) return false;
  }
  return true;
}

}  // namespace

RunResult run_scenario(const Scenario& sc, Protocol proto, const SimConfig& cfg) {
  return run_scenario(sc, proto, cfg, sc.activity);
}

RunResult run_scenario(const Scenario& sc, Protocol proto, const SimConfig& cfg,
                       const std::vector<FlowActivity>& activity_arg) {
  // Everything before the event loop — topology prep, clique enumeration,
  // precomputed solves, stack wiring — accrues to the setup phase; the scope
  // is released just before the simulator starts running.
  auto setup_prof = std::make_unique<Profiler::Scope>(cfg.profile,
                                                      Profiler::Phase::kSetup);
  // Structural validation up front, with messages naming the actual defect
  // (FlowSet would reject these too, but less helpfully).
  for (const Flow& spec : sc.flow_specs) {
    E2EFA_ASSERT_MSG(spec.path.size() >= 2, "flow path needs at least two nodes");
    E2EFA_ASSERT_MSG(spec.path.front() != spec.path.back(),
                     "flow source equals destination");
  }
  // An explicit activity argument overrides the scenario's embedded windows
  // (callers that predate Scenario::activity keep their behavior).
  const std::vector<FlowActivity>& activity =
      activity_arg.empty() ? sc.activity : activity_arg;
  // The effective fault schedule: scripted faults plus whatever link churn
  // the mobility walks compile down to. With no mobility this is an exact
  // copy of sc.faults, so fault-free and scripted-fault runs are untouched.
  FaultPlan plan = sc.faults;
  if (!sc.mobility.empty())
    compile_mobility(sc.topo, sc.mobility,
                     cfg.warmup_seconds + cfg.sim_seconds, plan);
  plan.validate(sc.topo.node_count());

  // The scenario's own flows ("logical" flows: what the caller asked for and
  // what the RunResult reports on).
  FlowSet logical(sc.topo, sc.flow_specs);
  const FlowId F = logical.flow_count();
  const bool dynamic = !activity.empty();
  E2EFA_ASSERT_MSG(!dynamic || static_cast<FlowId>(activity.size()) == F,
                   "one FlowActivity per flow required");

  RunResult out;
  out.protocol = proto;
  out.sim_seconds = cfg.sim_seconds;
  const double total_s = cfg.warmup_seconds + cfg.sim_seconds;
  const TimeNs horizon = from_seconds(total_s);

  auto window_of = [&](FlowId f) {
    return dynamic ? activity[static_cast<std::size_t>(f)]
                   : FlowActivity{0.0, 1e300};
  };

  // ---- Epoch boundaries: activity changes ∪ fault event times. ----
  std::set<double> boundary_set{0.0};
  for (FlowId f = 0; f < F; ++f) {
    const FlowActivity w = window_of(f);
    E2EFA_ASSERT_MSG(w.start_s >= 0.0 && w.stop_s > w.start_s, "bad activity window");
    if (w.start_s > 0.0 && w.start_s < total_s) boundary_set.insert(w.start_s);
    if (w.stop_s > 0.0 && w.stop_s < total_s) boundary_set.insert(w.stop_s);
  }
  for (double t : plan.event_times()) {
    // Events at t == 0 fold into the initial mask; events past the horizon
    // never fire.
    if (t > 0.0 && t < total_s) boundary_set.insert(t);
  }
  const std::vector<double> boundaries(boundary_set.begin(), boundary_set.end());
  const int E = static_cast<int>(boundaries.size());

  // ---- Per-epoch surviving topology and route repair. ----
  std::vector<TopologyMask> masks;
  masks.reserve(static_cast<std::size_t>(E));
  for (double t : boundaries) masks.push_back(plan.mask_at(t, sc.topo.node_count()));

  // Route variants per logical flow; variant 0 is the provisioned path.
  // Repair keeps the provisioned route whenever it is still alive (route
  // stability) and otherwise re-runs min-hop routing on the surviving graph.
  std::vector<std::vector<std::vector<NodeId>>> variants(static_cast<std::size_t>(F));
  for (FlowId f = 0; f < F; ++f)
    variants[static_cast<std::size_t>(f)].push_back(logical.flow(f).path);
  // epoch_variant[e][f]: variant index active in epoch e, -1 = suspended.
  std::vector<std::vector<int>> epoch_variant(
      static_cast<std::size_t>(E), std::vector<int>(static_cast<std::size_t>(F), 0));
  for (int e = 0; e < E; ++e) {
    const TopologyMask& mask = masks[static_cast<std::size_t>(e)];
    if (mask.all_up()) continue;  // everything on its provisioned route
    for (FlowId f = 0; f < F; ++f) {
      auto& vars = variants[static_cast<std::size_t>(f)];
      if (path_alive(vars[0], mask)) continue;
      auto repaired = shortest_path(sc.topo, vars[0].front(), vars[0].back(), mask);
      if (!repaired.has_value()) {
        epoch_variant[static_cast<std::size_t>(e)][static_cast<std::size_t>(f)] = -1;
        continue;
      }
      auto it = std::find(vars.begin(), vars.end(), *repaired);
      if (it == vars.end()) {
        vars.push_back(std::move(*repaired));
        it = vars.end() - 1;
      }
      epoch_variant[static_cast<std::size_t>(e)][static_cast<std::size_t>(f)] =
          static_cast<int>(it - vars.begin());
    }
  }

  // ---- The sim flow set: one flow per (logical flow, route variant). All
  // provisioned variants come first, so sim flow/subflow ids are a prefix
  // extension of the logical ids (fault-free runs: identical sets). ----
  std::vector<Flow> sim_specs;
  std::vector<FlowId> logical_of;                 // sim flow -> logical flow
  std::vector<std::vector<FlowId>> sim_flow_of(   // [logical][variant] -> sim
      static_cast<std::size_t>(F));
  for (FlowId f = 0; f < F; ++f) {
    sim_specs.push_back(logical.flow(f));
    logical_of.push_back(f);
    sim_flow_of[static_cast<std::size_t>(f)].push_back(f);
  }
  for (FlowId f = 0; f < F; ++f) {
    const auto& vars = variants[static_cast<std::size_t>(f)];
    for (std::size_t v = 1; v < vars.size(); ++v) {
      Flow repaired;
      repaired.path = vars[v];
      repaired.weight = logical.flow(f).weight;
      sim_flow_of[static_cast<std::size_t>(f)].push_back(
          static_cast<FlowId>(sim_specs.size()));
      sim_specs.push_back(std::move(repaired));
      logical_of.push_back(f);
    }
  }
  FlowSet flows(sc.topo, sim_specs);

  // Invariant oracles: latch the run parameters before any hook can fire
  // (the phase-1 post-solve checks below and every packet-sim hook).
  CheckContext* const check = cfg.check;
  if (check != nullptr) {
    CheckRunInfo info;
    info.node_count = sc.topo.node_count();
    info.cw_min = cfg.cw_min;
    info.cw_max = cfg.cw_max;
    info.use_rts_cts = cfg.use_rts_cts;
    info.scaled_cw = proto == Protocol::k2paStaticCw;
    info.queue_capacity = cfg.queue_capacity;
    const MacConfig mac_defaults;
    info.ctrl_cw = mac_defaults.ctrl_cw;
    info.slot = mac_defaults.slot;
    info.sifs = mac_defaults.sifs;
    info.transport_dupack_threshold = cfg.transport.dupack_threshold;
    info.subflows.resize(static_cast<std::size_t>(flows.subflow_count()));
    for (int s = 0; s < flows.subflow_count(); ++s) {
      const Subflow& sf = flows.subflow(s);
      CheckRunInfo::SubflowInfo& m = info.subflows[static_cast<std::size_t>(s)];
      m.flow = sf.flow;
      m.hop = sf.hop;
      m.src = sf.src;
      m.dst = sf.dst;
      m.last_hop = sf.hop + 1 >= flows.flow(sf.flow).length();
      m.prev_subflow =
          sf.hop > 0 ? flows.subflow_index(sf.flow, sf.hop - 1) : -1;
    }
    check->begin_run(info);
  }

  // ---- Admission control over open-loop arrivals. A flow whose window
  // starts mid-run is a *candidate*: it enters only if every clique its
  // subflows touch keeps all admitted flows' basic shares feasible
  // (Ganesan's clique bound). The founding population (start_s == 0) is the
  // scenario's own responsibility. Decisions are made in arrival order
  // against the flows admitted so far, on provisioned routes; the
  // distributed protocols use the distributed gate (per-node partial
  // knowledge under the arrival instant's mask — as strict or stricter than
  // the oracle), the centralized family the centralized twin, and plain
  // 802.11 admits everything (it allocates nothing). ----
  std::vector<char> admitted_flag(static_cast<std::size_t>(F), 1);
  if (dynamic && proto != Protocol::k80211) {
    std::vector<std::pair<double, FlowId>> arrivals;
    for (FlowId f = 0; f < F; ++f) {
      const double t = window_of(f).start_s;
      if (t > 0.0 && t < total_s) arrivals.emplace_back(t, f);
    }
    std::sort(arrivals.begin(), arrivals.end());
    if (!arrivals.empty()) {
      ContentionGraph gate_graph(sc.topo, logical);
      const bool dist_gate = proto == Protocol::k2paDistributed ||
                             proto == Protocol::k2paDistributedCtrl;
      for (const auto& [t, f] : arrivals) {
        std::vector<char> present(static_cast<std::size_t>(F), 0);
        for (FlowId j = 0; j < F; ++j) {
          if (j == f || !admitted_flag[static_cast<std::size_t>(j)]) continue;
          const FlowActivity w = window_of(j);
          if (w.start_s <= t && t < w.stop_s) present[static_cast<std::size_t>(j)] = 1;
        }
        AdmissionDecision d;
        if (dist_gate) {
          const TopologyMask gate_mask = plan.mask_at(t, sc.topo.node_count());
          d = admission_check_distributed(sc.topo, logical, gate_graph, present,
                                          f, gate_mask.all_up() ? nullptr : &gate_mask);
        } else {
          d = admission_check_centralized(logical, gate_graph, present, f);
        }
        admitted_flag[static_cast<std::size_t>(f)] = d.admitted ? 1 : 0;
        out.admissions.push_back({f, t, d.admitted, static_cast<int>(d.reason),
                                  d.worst_load, -1});
        if (check != nullptr)
          check->on_admission(f, d.admitted, d.worst_load, dist_gate,
                              from_seconds(t));
      }
    }
  }

  // active_of[e][f]: sim flow carrying logical flow f in epoch e (-1 when
  // suspended — the destination is unreachable under the epoch's mask).
  std::vector<std::vector<FlowId>> active_of(
      static_cast<std::size_t>(E), std::vector<FlowId>(static_cast<std::size_t>(F)));
  for (int e = 0; e < E; ++e) {
    for (FlowId f = 0; f < F; ++f) {
      const int v = epoch_variant[static_cast<std::size_t>(e)][static_cast<std::size_t>(f)];
      active_of[static_cast<std::size_t>(e)][static_cast<std::size_t>(f)] =
          v < 0 ? -1 : sim_flow_of[static_cast<std::size_t>(f)][static_cast<std::size_t>(v)];
    }
  }

  // ---- Per-epoch phase-1 allocations over the reachable active flows.
  // For the in-band protocol this allocation is the *oracle*: the sim's
  // AllocAgents must converge to it on their own, so it is computed against
  // the epoch's surviving topology but never pushed into the schedulers. ----
  const bool dctrl = proto == Protocol::k2paDistributedCtrl;
  // The centralized family solves over global cliques; maintain them
  // incrementally across epochs (the distributed variants enumerate
  // per-node local cliques instead, which are already neighborhood-sized).
  const bool centralized_family =
      proto == Protocol::kTwoTier || proto == Protocol::kTwoTierBalanced ||
      proto == Protocol::kMaxMin || proto == Protocol::k2paCentralized ||
      proto == Protocol::k2paStaticCw;
  std::unique_ptr<ContentionGraph> sim_graph;
  std::unique_ptr<CliqueStore> clique_store;
  if (centralized_family) {
    sim_graph = std::make_unique<ContentionGraph>(sc.topo, flows);
    // Start all-inactive: epoch 0's set_active seeds the first enumeration.
    clique_store = std::make_unique<CliqueStore>(
        *sim_graph, std::vector<char>(static_cast<std::size_t>(flows.subflow_count()), 0));
    // The thread budget goes to clique enumeration: the store's threaded
    // path is id-identical to serial, so this never changes results (see
    // CliqueStore::set_threads).
    clique_store->set_threads(cfg.sim_threads);
  }
  std::vector<EpochAllocation> epochs;
  std::vector<std::vector<FlowId>> epoch_active_flows;
  for (int e = 0; e < E; ++e) {
    const double t = boundaries[static_cast<std::size_t>(e)];
    std::vector<FlowId> active;
    for (FlowId f = 0; f < F; ++f) {
      if (!admitted_flag[static_cast<std::size_t>(f)]) continue;
      const FlowActivity w = window_of(f);
      if (!(w.start_s <= t && t < w.stop_s)) continue;
      const FlowId g = active_of[static_cast<std::size_t>(e)][static_cast<std::size_t>(f)];
      if (g >= 0) active.push_back(g);
    }
    epochs.push_back(allocate_epoch(proto, sc.topo, flows, active, t,
                                    dctrl ? &masks[static_cast<std::size_t>(e)]
                                          : nullptr,
                                    cfg.check, clique_store.get(), cfg.profile));
    epoch_active_flows.push_back(std::move(active));
    if (proto != Protocol::k80211) out.epoch_lp_status.push_back(epochs.back().status);
  }

  out.has_target = epochs.front().has_target;
  if (out.has_target) {
    out.target_subflow_share = epochs.front().subflow_share;
    out.target_flow_share.assign(static_cast<std::size_t>(F), 0.0);
    for (FlowId f = 0; f < F; ++f) {
      const FlowId g = active_of[0][static_cast<std::size_t>(f)];
      if (g >= 0)
        out.target_flow_share[static_cast<std::size_t>(f)] =
            epochs.front().flow_share[static_cast<std::size_t>(g)];
    }
  }
  const bool multi = dynamic || E > 1;
  if (multi) {
    for (int e = 0; e < E; ++e) {
      out.epoch_starts_s.push_back(boundaries[static_cast<std::size_t>(e)]);
      std::vector<double> share(static_cast<std::size_t>(F), 0.0);
      for (FlowId f = 0; f < F; ++f) {
        const FlowId g =
            active_of[static_cast<std::size_t>(e)][static_cast<std::size_t>(f)];
        if (g >= 0)
          share[static_cast<std::size_t>(f)] =
              epochs[static_cast<std::size_t>(e)].flow_share[static_cast<std::size_t>(g)];
      }
      out.epoch_flow_share.push_back(std::move(share));
    }
  }

  // ---- Phase 2: packet-level simulation. ----
  Simulator sim;
  Channel channel(sim, sc.topo, cfg.channel_bps);
  TrafficStats stats(flows);
  stats.set_warmup(from_seconds(cfg.warmup_seconds));
  Rng master(cfg.seed);

  // Observability: one sink pointer threaded through every layer. Null —
  // the default — keeps all hot paths on their pre-observability branch.
  TraceSink* const trace = cfg.trace;
  channel.set_trace(trace);
  channel.set_check(check);
  channel.set_profiler(cfg.profile);
  if (trace != nullptr) {
    trace->record<TraceCat::kMeta>(
        0, TraceEvent::kRunMeta, -1, sc.topo.node_count(), F,
        static_cast<double>(cfg.channel_bps), static_cast<double>(cfg.payload_bytes));
    for (int s = 0; s < flows.subflow_count(); ++s) {
      const Subflow& sf = flows.subflow(s);
      trace->record<TraceCat::kMeta>(
          0, TraceEvent::kSubflowMeta, static_cast<std::int16_t>(sf.src), s,
          logical_of[static_cast<std::size_t>(sf.flow)],
          static_cast<double>(sf.hop));
    }
  }
  // Phase-1 emission for one epoch: the solve record, then the resulting
  // per-logical-flow targets (0 = inactive or suspended in that epoch).
  auto trace_epoch_allocation = [&](int e, TimeNs t) {
    if (trace == nullptr) return;
    const EpochAllocation& epoch = epochs[static_cast<std::size_t>(e)];
    trace->record<TraceCat::kLp>(t, TraceEvent::kLpResolve, -1, e,
                                 static_cast<std::int32_t>(epoch.status),
                                 epoch.start_s);
    for (FlowId f = 0; f < F; ++f) {
      const FlowId g = active_of[static_cast<std::size_t>(e)][static_cast<std::size_t>(f)];
      const double share =
          g >= 0 && epoch.has_target
              ? epoch.flow_share[static_cast<std::size_t>(g)]
              : 0.0;
      trace->record<TraceCat::kLp>(t, TraceEvent::kFlowTarget, -1, f, -1, share);
    }
  };
  trace_epoch_allocation(0, 0);

  // Live fault state for the PHY. Installed only when the plan does
  // anything, so fault-free runs keep the exact pre-fault channel path.
  std::unique_ptr<FaultRuntime> faults;
  if (!plan.empty()) {
    faults = std::make_unique<FaultRuntime>(plan, sc.topo.node_count(), cfg.seed);
    channel.set_faults(faults.get());
  }

  MacConfig mac_cfg;
  mac_cfg.retry_limit = cfg.retry_limit;
  mac_cfg.use_rts_cts = cfg.use_rts_cts;

  std::vector<std::unique_ptr<NodeStack>> stacks;
  std::vector<TagScheduler*> tag_scheds(static_cast<std::size_t>(sc.topo.node_count()),
                                        nullptr);
  std::int64_t link_failures = 0;
  stacks.reserve(static_cast<std::size_t>(sc.topo.node_count()));
  for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
    std::unique_ptr<TxQueue> queue;
    std::unique_ptr<BackoffPolicy> backoff;
    TagAgent* tags = nullptr;
    if (proto == Protocol::k80211) {
      auto fifo = std::make_unique<FifoQueue>(cfg.queue_capacity);
      fifo->set_check(check, n);
      queue = std::move(fifo);
      backoff = std::make_unique<BebBackoff>(cfg.cw_min, cfg.cw_max);
    } else {
      std::vector<TagScheduler::SubflowConfig> lanes;
      // In-band runs must not start from the oracle's answer: lanes begin
      // at the inactive floor and the agents bootstrap them locally.
      for (int s : flows.sourced_at(n))
        lanes.push_back(
            {s, dctrl ? kInactiveShare
                      : epochs.front().subflow_share[static_cast<std::size_t>(s)]});
      auto sched = std::make_unique<TagScheduler>(std::move(lanes), cfg.queue_capacity,
                                                  cfg.channel_bps, cfg.alpha);
      sched->set_trace(trace, static_cast<std::int16_t>(n));
      sched->set_check(check, n);
      tag_scheds[static_cast<std::size_t>(n)] = sched.get();
      if (proto == Protocol::k2paStaticCw) {
        // Ablation: weighted queueing, but no tag feedback over the air.
        backoff = std::make_unique<ScaledCwBackoff>(
            cfg.cw_min, cfg.cw_max, std::min(1.0, std::max(sched->node_share(), 1e-3)));
      } else {
        tags = sched.get();
        backoff = std::make_unique<TagBackoff>(cfg.cw_min, cfg.cw_max, *sched);
      }
      queue = std::move(sched);
    }
    stacks.push_back(std::make_unique<NodeStack>(sim, channel, n, flows, stats, mac_cfg,
                                                 std::move(queue), std::move(backoff),
                                                 master.split(), tags));
    stacks.back()->set_trace(trace);
    stacks.back()->set_check(check);
    stacks.back()->set_link_failure_listener([&link_failures](const Packet&,
                                                              TimeNs) {
      ++link_failures;
    });
  }

  // ---- In-band control plane: one AllocAgent per node, wired into its
  // MAC. Everything in this branch (including the extra RNG splits) only
  // happens for k2paDistributedCtrl, so every other protocol's trajectory
  // is untouched. ----
  std::unique_ptr<ContentionGraph> ctrl_graph;
  std::vector<std::unique_ptr<AllocAgent>> agents;
  // Activity bitmap over sim subflows for epoch e (what the agents may
  // hear: inactive subflows carry no traffic and leave every Own set).
  auto active_bitmap_of = [&](int e) {
    std::vector<char> b(static_cast<std::size_t>(flows.subflow_count()), 0);
    for (FlowId g : epoch_active_flows[static_cast<std::size_t>(e)])
      for (int h = 0; h < flows.flow(g).length(); ++h)
        b[static_cast<std::size_t>(flows.subflow_index(g, h))] = 1;
    return b;
  };
  // Per-sim-flow activity bitmap for epoch e (the admission oracle's view).
  auto flow_bitmap_of = [&](int e) {
    std::vector<char> b(static_cast<std::size_t>(flows.flow_count()), 0);
    for (FlowId g : epoch_active_flows[static_cast<std::size_t>(e)])
      b[static_cast<std::size_t>(g)] = 1;
    return b;
  };
  if (check != nullptr) check->note_active_flows(flow_bitmap_of(0), 0);
  if (dctrl) {
    // Any dynamics — scripted faults, churn windows, or mobility — turn on
    // the loss-hardened control plane (retransmits, generation stamps,
    // staleness degradation); a plain static run keeps the lean protocol so
    // its trajectory is byte-identical to earlier builds.
    CtrlConfig ctrl_cfg = cfg.ctrl;
    if (!plan.empty() || dynamic || !sc.mobility.empty()) ctrl_cfg.hardened = true;
    ctrl_graph = std::make_unique<ContentionGraph>(sc.topo, flows);
    Rng ctrl_master = master.split();
    for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
      agents.push_back(std::make_unique<AllocAgent>(
          sim, stacks[static_cast<std::size_t>(n)]->mac(), sc.topo, flows,
          *ctrl_graph, tag_scheds[static_cast<std::size_t>(n)], ctrl_cfg,
          ctrl_master.split(), trace));
      agents.back()->set_check(check);
      agents.back()->set_profiler(cfg.profile);
    }
    const std::vector<char> b0 = active_bitmap_of(0);
    for (auto& a : agents) a->note_active_set(b0);
    for (auto& a : agents) a->start();
  }

  // In-band ADMIT rounds: at each admission-gated arrival's boundary the
  // candidate's source runs the hop-by-hop ADMIT_REQ/ADMIT_RSP round over
  // the live control plane. The verdict is diagnostic (the offline gate
  // above already decided); RunResult::Admission::inband records what the
  // network itself concluded, for differential comparison.
  std::vector<std::vector<std::size_t>> inband_at(static_cast<std::size_t>(E));
  std::vector<FlowId> inband_sim_flow(out.admissions.size(), -1);
  if (dctrl) {
    for (std::size_t i = 0; i < out.admissions.size(); ++i) {
      const double t = out.admissions[i].at_s;
      const auto it = std::lower_bound(boundaries.begin(), boundaries.end(), t);
      if (it == boundaries.end() || *it != t) continue;
      const int e = static_cast<int>(it - boundaries.begin());
      const FlowId f = out.admissions[i].flow;
      const int v = std::max(
          epoch_variant[static_cast<std::size_t>(e)][static_cast<std::size_t>(f)], 0);
      inband_sim_flow[i] =
          sim_flow_of[static_cast<std::size_t>(f)][static_cast<std::size_t>(v)];
      inband_at[static_cast<std::size_t>(e)].push_back(i);
    }
  }

  // ---- Fault bookkeeping shared by the scheduled epoch events. ----
  // Which sim flow carries each logical flow *right now* (-1 = suspended);
  // read by the traffic sources at injection time.
  std::vector<FlowId> active_now = active_of[0];
  // Earliest unhealed disruption per logical flow (-1 = none pending).
  std::vector<double> pending_fault_s(static_cast<std::size_t>(F), -1.0);
  for (FlowId f = 0; f < F; ++f)
    if (active_now[static_cast<std::size_t>(f)] < 0)
      pending_fault_s[static_cast<std::size_t>(f)] = 0.0;
  std::vector<RunResult::Recovery> recoveries;
  std::vector<std::vector<std::int64_t>> epoch_e2e;
  std::vector<std::int64_t> epoch_prev(static_cast<std::size_t>(F), 0);

  auto logical_e2e = [&](FlowId f) {
    std::int64_t sum = 0;
    for (FlowId g : sim_flow_of[static_cast<std::size_t>(f)]) sum += stats.end_to_end(g);
    return sum;
  };
  auto snapshot_epoch = [&] {
    std::vector<std::int64_t> row(static_cast<std::size_t>(F));
    for (FlowId f = 0; f < F; ++f) {
      const std::int64_t cur = logical_e2e(f);
      row[static_cast<std::size_t>(f)] = cur - epoch_prev[static_cast<std::size_t>(f)];
      epoch_prev[static_cast<std::size_t>(f)] = cur;
    }
    epoch_e2e.push_back(std::move(row));
  };

  // Recovery detection (the first end-to-end delivery on the *current*
  // route of a disrupted flow heals it — stale in-flight packets on a
  // pre-fault route do not count) composed with delivery tracing; both ride
  // the same TrafficStats listener slot.
  const bool want_recovery = !plan.events().empty();
  if (want_recovery || trace != nullptr) {
    stats.set_delivery_listener([&, want_recovery](FlowId g, TimeNs now,
                                                   TimeNs delay) {
      const FlowId f = logical_of[static_cast<std::size_t>(g)];
      if (trace != nullptr)
        trace->record<TraceCat::kFlow>(
            now, TraceEvent::kDelivery,
            static_cast<std::int16_t>(flows.flow(g).destination()), f, g,
            to_seconds(delay));
      if (!want_recovery) return;
      if (pending_fault_s[static_cast<std::size_t>(f)] < 0.0) return;
      if (active_now[static_cast<std::size_t>(f)] != g) return;
      recoveries.push_back(
          {f, pending_fault_s[static_cast<std::size_t>(f)], to_seconds(now)});
      pending_fault_s[static_cast<std::size_t>(f)] = -1.0;
    });
  }

  // One event per later epoch boundary: close the ending epoch's goodput
  // window, apply the new surviving topology, push the re-converged shares
  // into the live schedulers, and switch every flow to its epoch route.
  // Scheduled at setup, so it precedes all same-instant packet events.
  for (int e = 1; e < E; ++e) {
    sim.schedule_at(from_seconds(boundaries[static_cast<std::size_t>(e)]), [&, e] {
      if (multi) snapshot_epoch();
      if (faults) faults->apply(masks[static_cast<std::size_t>(e)]);
      if (trace != nullptr && !plan.empty())
        trace->record<TraceCat::kFault>(sim.now(), TraceEvent::kFaultEpoch, -1, e,
                                        -1, boundaries[static_cast<std::size_t>(e)]);
      trace_epoch_allocation(e, sim.now());
      // The admission/stale-rate oracle learns the new population before the
      // control plane reacts, so every lane update at or after the boundary
      // is judged against the current flow set.
      if (check != nullptr) check->note_active_flows(flow_bitmap_of(e), sim.now());
      if (dctrl) {
        // No oracle push: tell the agents what went (in)active and let the
        // network re-converge through its own HELLO/CONSTRAINT/RATE cycle.
        const std::vector<char> b = active_bitmap_of(e);
        for (auto& a : agents) a->note_active_set(b);
        for (std::size_t i : inband_at[static_cast<std::size_t>(e)]) {
          const FlowId g = inband_sim_flow[i];
          agents[static_cast<std::size_t>(flows.flow(g).source())]
              ->request_admission(g);
        }
      } else {
        const EpochAllocation& epoch = epochs[static_cast<std::size_t>(e)];
        for (int s = 0; s < flows.subflow_count(); ++s) {
          TagScheduler* sched =
              tag_scheds[static_cast<std::size_t>(flows.subflow(s).src)];
          if (sched != nullptr) {
            sched->note_time(sim.now());
            sched->update_share(s, epoch.subflow_share[static_cast<std::size_t>(s)]);
          }
        }
      }
      for (FlowId f = 0; f < F; ++f) {
        const FlowId prev = active_now[static_cast<std::size_t>(f)];
        const FlowId next =
            active_of[static_cast<std::size_t>(e)][static_cast<std::size_t>(f)];
        if (next == prev) continue;
        active_now[static_cast<std::size_t>(f)] = next;
        // A reroute or suspension is a disruption; a resume keeps the
        // original fault time so the recovery spans the whole outage.
        if (pending_fault_s[static_cast<std::size_t>(f)] < 0.0 &&
            (next < 0 || prev >= 0))
          pending_fault_s[static_cast<std::size_t>(f)] =
              boundaries[static_cast<std::size_t>(e)];
      }
    });
  }

  // Traffic sources at each flow's origin, gated by the activity windows.
  // Packets of a suspended flow are suppressed at the source (and counted):
  // there is no route to put them on.
  //
  // Elastic runs additionally stand up the ACK plane: every node may relay
  // returning kTransAck frames, every stack's last-hop deliveries route
  // through the plane's freshness gate, and each flow's controller hangs
  // off its provisioned path. CBR runs construct none of this — their
  // trajectory (and RNG stream) is byte-identical to pre-transport builds.
  const bool elastic = sc.transport != TransportKind::kCbr;
  TransportConfig tcfg = cfg.transport;
  tcfg.kind = sc.transport;
  std::unique_ptr<AckPlane> ack;
  if (elastic) {
    ack = std::make_unique<AckPlane>(sim, tcfg, trace, check);
    for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
      NodeStack* stack = stacks[static_cast<std::size_t>(n)].get();
      ack->register_mac(n, &stack->mac());
      stack->mac().set_transport_listener(
          [a = ack.get(), n](const Frame& fr) { a->on_ctrl_frame(n, fr); });
      // The plane keys state by *logical* flow: a repaired route variant's
      // deliveries fold onto the same cumulative-ack stream.
      stack->set_transport_sink(
          [a = ack.get(), &logical_of](const Packet& p, TimeNs now) {
            Packet q = p;
            q.flow = logical_of[static_cast<std::size_t>(p.flow)];
            return a->on_final_delivery(q, now);
          });
    }
  }
  std::vector<std::unique_ptr<TransportSource>> sources;
  for (FlowId f = 0; f < F; ++f) {
    NodeStack* stack = stacks[static_cast<std::size_t>(logical.flow(f).source())].get();
    auto emit = [stack, f, &active_now, &stats](Packet p) {
      const FlowId g = active_now[static_cast<std::size_t>(f)];
      if (g < 0) {
        stats.count_suspended(f);
        return;
      }
      stack->inject_from_source(p, g);
    };
    std::unique_ptr<TransportSource> src;
    if (!elastic) {
      src = std::make_unique<CbrTransport>(sim, cfg.cbr_pps, cfg.payload_bytes,
                                           std::move(emit), master);
    } else if (sc.transport == TransportKind::kAimd) {
      src = std::make_unique<AimdTransport>(sim, tcfg, cfg.payload_bytes,
                                            std::move(emit), master, f,
                                            logical.flow(f).source(), trace, check);
    } else {
      src = std::make_unique<BbrTransport>(sim, tcfg, cfg.payload_bytes,
                                           std::move(emit), master, f,
                                           logical.flow(f).source(), trace, check);
    }
    if (elastic) ack->add_flow(f, logical.flow(f).path, src.get());
    const FlowActivity w = window_of(f);
    const TimeNs until = std::min(horizon, from_seconds(std::min(w.stop_s, total_s)));
    TransportSource* raw = src.get();
    // A rejected arrival's source never starts (the flow offers no traffic);
    // the source object is still constructed so the RNG stream layout is
    // identical whichever way the gate decided.
    if (admitted_flag[static_cast<std::size_t>(f)])
      sim.schedule_at(from_seconds(std::min(w.start_s, total_s)),
                      [raw, until] { raw->start(until); });
    sources.push_back(std::move(src));
  }

  // ---- Re-convergence probe (in-band protocol, multi-epoch runs): poll the
  // applied lane shares on a fixed grid and record, per epoch, how long the
  // network took to bring every active lane within 10% + 0.02 of the epoch's
  // oracle target. Pure reads — the probe never perturbs the trajectory. ----
  std::vector<double> reconv(static_cast<std::size_t>(E), -1.0);
  std::function<void()> reconv_sample;
  if (dctrl && E > 1) {
    const TimeNs reconv_period = from_seconds(0.1);
    reconv_sample = [&, reconv_period, horizon] {
      const double now_s = to_seconds(sim.now());
      auto it = std::upper_bound(boundaries.begin(), boundaries.end(),
                                 now_s + 1e-12);
      const std::size_t e = static_cast<std::size_t>(it - boundaries.begin()) - 1;
      if (reconv[e] < 0.0) {
        bool converged = true;
        for (FlowId g : epoch_active_flows[e]) {
          for (int h = 0; converged && h < flows.flow(g).length(); ++h) {
            const int s = flows.subflow_index(g, h);
            const TagScheduler* sched =
                tag_scheds[static_cast<std::size_t>(flows.subflow(s).src)];
            const double target =
                epochs[e].subflow_share[static_cast<std::size_t>(s)];
            const double applied = sched != nullptr ? sched->share_of(s) : 0.0;
            if (std::abs(applied - target) > 0.10 * target + 0.02)
              converged = false;
          }
          if (!converged) break;
        }
        if (converged) {
          reconv[e] = now_s - boundaries[e];
          if (trace != nullptr)
            trace->record<TraceCat::kCtrl>(
                sim.now(), TraceEvent::kCtrlReconv, -1,
                static_cast<std::int32_t>(e), -1, reconv[e], boundaries[e]);
        }
      }
      if (sim.now() + reconv_period <= horizon)
        sim.schedule_in(reconv_period, reconv_sample);
    };
    sim.schedule_at(reconv_period, reconv_sample);
  }

  // Optional short-term fairness sampling: snapshot per-flow end-to-end
  // deliveries at fixed intervals and report the deltas. All sampler state
  // lives at function scope: the scheduled events reference it while
  // run_until executes below.
  std::vector<std::vector<std::int64_t>> windows;
  std::vector<std::int64_t> window_prev(static_cast<std::size_t>(F), 0);
  std::function<void()> sample;
  if (cfg.sample_interval_seconds > 0.0) {
    const TimeNs interval = from_seconds(cfg.sample_interval_seconds);
    E2EFA_ASSERT(interval > 0);
    sample = [&sim, &logical_e2e, &windows, &window_prev, &sample, interval, horizon,
              F] {
      std::vector<std::int64_t> now(static_cast<std::size_t>(F));
      for (FlowId f = 0; f < F; ++f) {
        const std::int64_t total = logical_e2e(f);
        now[static_cast<std::size_t>(f)] = total - window_prev[static_cast<std::size_t>(f)];
        window_prev[static_cast<std::size_t>(f)] = total;
      }
      windows.push_back(std::move(now));
      if (sim.now() + interval <= horizon) sim.schedule_in(interval, sample);
    };
    sim.schedule_at(from_seconds(cfg.warmup_seconds) + interval, sample);
  }

  // ---- Metrics registry + periodic sampler (enabled by metrics_period).
  // Components expose their live counters by address; the registry is only
  // read at sample instants, so runs without metrics pay nothing and runs
  // with metrics stay bit-identical (sampling never mutates sim state). ----
  MetricsRegistry registry;
  MetricsTimeSeries metrics_ts;
  std::vector<std::int64_t> metrics_prev_e2e(static_cast<std::size_t>(F), 0);
  double metrics_prev_timeouts = 0.0, metrics_prev_attempts = 0.0;
  double metrics_prev_airtime = 0.0, metrics_prev_ctrl_bytes = 0.0;
  double metrics_prev_retransmits = 0.0, metrics_prev_seq_gaps = 0.0;
  std::function<void()> metrics_sample;
  if (cfg.metrics_period_seconds > 0.0) {
    metrics_ts.period_s = cfg.metrics_period_seconds;
    const ChannelStats& ch = channel.stats();
    registry.add_counter("frames_transmitted", -1, -1, &ch.frames_transmitted);
    registry.add_counter("frames_delivered", -1, -1, &ch.frames_delivered);
    registry.add_counter("frames_corrupted", -1, -1, &ch.frames_corrupted);
    registry.add_counter("frames_faulted_dead", -1, -1, &ch.faulted_dead);
    registry.add_counter("frames_faulted_loss", -1, -1, &ch.faulted_loss);
    registry.add_counter("airtime_ns", -1, -1, &ch.airtime_ns);
    for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
      const NodeStack* stack = stacks[static_cast<std::size_t>(n)].get();
      const DcfMac::Stats& ms = stack->mac().stats();
      const std::int16_t node = static_cast<std::int16_t>(n);
      registry.add_counter("mac_rts_sent", node, -1, &ms.rts_sent);
      registry.add_counter("mac_data_sent", node, -1, &ms.data_sent);
      registry.add_counter("mac_timeouts", node, -1, &ms.timeouts);
      registry.add_counter("mac_retry_drops", node, -1, &ms.retry_drops);
      registry.add_gauge("queue_depth", node, -1, [stack] {
        return static_cast<double>(stack->backlog());
      });
      TagScheduler* sched = tag_scheds[static_cast<std::size_t>(n)];
      if (sched != nullptr)
        registry.add_gauge("virtual_clock", node, -1,
                           [sched] { return sched->virtual_clock(); });
    }
    for (int s = 0; s < flows.subflow_count(); ++s) {
      const SubflowCounters& c = stats.subflow(s);
      registry.add_counter("subflow_delivered",
                           static_cast<std::int16_t>(flows.subflow(s).src), s,
                           &c.delivered);
      registry.add_counter("subflow_dropped_queue",
                           static_cast<std::int16_t>(flows.subflow(s).src), s,
                           &c.dropped_queue);
    }
    if (dctrl)
      for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
        const CtrlAgentStats& as = agents[static_cast<std::size_t>(n)]->stats();
        const std::int16_t node = static_cast<std::int16_t>(n);
        registry.add_counter("ctrl_bytes", node, -1, &as.ctrl_bytes_sent);
        registry.add_counter("ctrl_retransmits", node, -1, &as.retransmits);
        registry.add_counter("ctrl_seq_gaps", node, -1, &as.seq_gaps);
      }

    // Targets of the epoch in force at time t_s, folded onto logical flows.
    auto targets_at = [&](double t_s) {
      auto it = std::upper_bound(boundaries.begin(), boundaries.end(), t_s + 1e-12);
      const std::size_t e = static_cast<std::size_t>(it - boundaries.begin()) - 1;
      std::vector<double> tg(static_cast<std::size_t>(F), 0.0);
      if (!epochs[e].has_target) return tg;
      for (FlowId f = 0; f < F; ++f) {
        const FlowId g = active_of[e][static_cast<std::size_t>(f)];
        if (g >= 0)
          tg[static_cast<std::size_t>(f)] =
              epochs[e].flow_share[static_cast<std::size_t>(g)];
      }
      return tg;
    };

    const TimeNs period = from_seconds(cfg.metrics_period_seconds);
    E2EFA_ASSERT(period > 0);
    const double period_s = cfg.metrics_period_seconds;
    // `targets_at` is local to this block, so it must ride along by value
    // (its own captures are frame-lifetime locals that outlive the run).
    metrics_sample = [&, period, period_s, horizon, targets_at] {
      MetricsSample samp;
      samp.t_s = to_seconds(sim.now());
      std::vector<double> share(static_cast<std::size_t>(F), 0.0);
      for (FlowId f = 0; f < F; ++f) {
        const std::int64_t total = logical_e2e(f);
        const std::int64_t delta = total - metrics_prev_e2e[static_cast<std::size_t>(f)];
        metrics_prev_e2e[static_cast<std::size_t>(f)] = total;
        samp.flow_goodput_pps.push_back(static_cast<double>(delta) / period_s);
        share[static_cast<std::size_t>(f)] =
            static_cast<double>(delta) * 8.0 * cfg.payload_bytes /
            (period_s * static_cast<double>(cfg.channel_bps));
      }
      // Share-normalized fairness against the epoch targets in force at the
      // window midpoint; raw rates when there is no allocation (802.11).
      const std::vector<double> tg = targets_at(samp.t_s - 0.5 * period_s);
      const std::vector<double> normalized = normalized_by(share, tg);
      samp.jain = normalized.empty() ? jain_fairness_index(samp.flow_goodput_pps)
                                     : jain_fairness_index(normalized);
      const std::vector<double> depths = registry.values("queue_depth");
      samp.queue_depth_p50 = percentile(depths, 50.0);
      samp.queue_depth_p95 = percentile(depths, 95.0);
      samp.queue_depth_max = percentile(depths, 100.0);
      const double timeouts = registry.sum("mac_timeouts");
      const double attempts = registry.sum("mac_rts_sent") +
                              registry.sum("mac_data_sent");
      const double d_timeouts = timeouts - metrics_prev_timeouts;
      const double d_attempts = attempts - metrics_prev_attempts;
      metrics_prev_timeouts = timeouts;
      metrics_prev_attempts = attempts;
      samp.mac_retry_rate = d_attempts > 0.0 ? d_timeouts / d_attempts : 0.0;
      const double airtime = registry.sum("airtime_ns");
      samp.channel_utilization =
          (airtime - metrics_prev_airtime) / static_cast<double>(period);
      metrics_prev_airtime = airtime;
      if (dctrl) {
        const double cbytes = registry.sum("ctrl_bytes");
        samp.ctrl_bytes = cbytes - metrics_prev_ctrl_bytes;
        metrics_prev_ctrl_bytes = cbytes;
        const double data_bytes = registry.sum("mac_data_sent") *
                                  static_cast<double>(cfg.payload_bytes);
        samp.ctrl_overhead = data_bytes > 0.0 ? cbytes / data_bytes : 0.0;
        const double retx = registry.sum("ctrl_retransmits");
        samp.ctrl_retransmits = retx - metrics_prev_retransmits;
        metrics_prev_retransmits = retx;
        const double gaps = registry.sum("ctrl_seq_gaps");
        samp.ctrl_seq_gaps = gaps - metrics_prev_seq_gaps;
        metrics_prev_seq_gaps = gaps;
      }
      if (elastic) {
        for (FlowId f = 0; f < F; ++f) {
          const TransportTelemetry tel =
              sources[static_cast<std::size_t>(f)]->telemetry();
          samp.flow_cwnd.push_back(tel.cwnd);
          samp.flow_srtt_s.push_back(tel.srtt_s);
          samp.flow_delivery_pps.push_back(tel.delivery_rate_pps);
        }
      }
      metrics_ts.samples.push_back(std::move(samp));
      if (sim.now() + period <= horizon) sim.schedule_in(period, metrics_sample);
    };
    sim.schedule_at(period, metrics_sample);
  }

  setup_prof.reset();  // everything below run_until accrues to the sim phase

  {
    Profiler::Scope prof(cfg.profile, Profiler::Phase::kSim);
    sim.run_until(horizon);
  }
  if (multi) snapshot_epoch();  // close the final epoch

  // Close the conservation ledger against what is still buffered.
  if (check != nullptr) {
    std::vector<int> backlog;
    backlog.reserve(stacks.size());
    for (const auto& stack : stacks) backlog.push_back(stack->backlog());
    check->finalize(backlog, sim.now());
  }

  // ---- Collect. Per-flow figures aggregate every route variant back onto
  // the scenario flow; per-subflow figures stay at sim granularity (their
  // logical prefix matches the scenario's own subflows). ----
  out.delivered_per_subflow.resize(static_cast<std::size_t>(flows.subflow_count()));
  for (int s = 0; s < flows.subflow_count(); ++s)
    out.delivered_per_subflow[static_cast<std::size_t>(s)] = stats.subflow(s).delivered;
  out.end_to_end_per_flow.resize(static_cast<std::size_t>(F));
  for (FlowId f = 0; f < F; ++f)
    out.end_to_end_per_flow[static_cast<std::size_t>(f)] = logical_e2e(f);
  out.total_end_to_end = stats.total_end_to_end();
  for (int s = 0; s < flows.subflow_count(); ++s) {
    out.dropped_queue += stats.subflow(s).dropped_queue;
    out.dropped_mac += stats.subflow(s).dropped_mac;
  }
  out.lost_packets = stats.total_lost();
  out.loss_ratio = stats.loss_ratio();
  out.channel = channel.stats();
  out.mean_delay_s.resize(static_cast<std::size_t>(F));
  out.max_delay_s.resize(static_cast<std::size_t>(F));
  for (FlowId f = 0; f < F; ++f) {
    const auto& vs = sim_flow_of[static_cast<std::size_t>(f)];
    if (vs.size() == 1) {
      out.mean_delay_s[static_cast<std::size_t>(f)] = stats.delay(f).mean();
      out.max_delay_s[static_cast<std::size_t>(f)] = stats.delay(f).max();
      continue;
    }
    double sum = 0.0, mx = 0.0;
    std::int64_t n = 0;
    for (FlowId g : vs) {
      const RunningStat& d = stats.delay(g);
      sum += d.sum();
      n += d.count();
      mx = std::max(mx, d.max());
    }
    out.mean_delay_s[static_cast<std::size_t>(f)] = n > 0 ? sum / static_cast<double>(n) : 0.0;
    out.max_delay_s[static_cast<std::size_t>(f)] = mx;
  }
  out.window_end_to_end = std::move(windows);
  out.suspended_per_flow.resize(static_cast<std::size_t>(F));
  for (FlowId f = 0; f < F; ++f) {
    out.suspended_per_flow[static_cast<std::size_t>(f)] = stats.suspended(f);
    out.suspended_packets += stats.suspended(f);
  }
  out.link_failures = link_failures;
  out.events_processed = sim.events_processed();
  if (elastic) {
    out.transport.acks_sent = ack->acks_sent();
    out.transport.acks_relayed = ack->acks_relayed();
    out.transport.acks_delivered = ack->acks_delivered();
    for (FlowId f = 0; f < F; ++f)
      out.transport.flows.push_back(
          sources[static_cast<std::size_t>(f)]->telemetry());
  }
  out.epoch_end_to_end = std::move(epoch_e2e);
  out.recoveries = std::move(recoveries);
  out.metrics = std::move(metrics_ts);
  if (dctrl) {
    for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
      const CtrlAgentStats& as = agents[static_cast<std::size_t>(n)]->stats();
      out.ctrl.hello_sent += as.hello_sent;
      out.ctrl.constraint_sent += as.constraint_sent;
      out.ctrl.rate_sent += as.rate_sent;
      out.ctrl.msgs_received += as.msgs_received;
      out.ctrl.solves += as.solves;
      out.ctrl.ctrl_bytes += as.ctrl_bytes_sent;
      out.ctrl.admit_req_sent += as.admit_req_sent;
      out.ctrl.admit_rsp_sent += as.admit_rsp_sent;
      out.ctrl.retransmits += as.retransmits;
      out.ctrl.seq_gaps += as.seq_gaps;
      out.ctrl.stale_dropped += as.stale_dropped;
      out.ctrl.forced_solves += as.forced_solves;
      out.ctrl.ctrl_frames +=
          stacks[static_cast<std::size_t>(n)]->mac().stats().ctrl_sent;
    }
    for (std::size_t i = 0; i < out.admissions.size(); ++i) {
      const FlowId g = inband_sim_flow[i];
      if (g < 0) continue;
      out.admissions[i].inband =
          agents[static_cast<std::size_t>(flows.flow(g).source())]
              ->inband_admission(g);
    }
    if (E > 1) {
      out.reconv_s = std::move(reconv);
      // Surface the per-epoch samples in the metrics artifact as well, so a
      // JSONL dump carries the control-plane health story on its own.
      if (cfg.metrics_period_seconds > 0.0) out.metrics.reconv_s = out.reconv_s;
    }
    out.ctrl.applied_subflow_share.resize(
        static_cast<std::size_t>(flows.subflow_count()));
    for (int s = 0; s < flows.subflow_count(); ++s) {
      TagScheduler* sched = tag_scheds[static_cast<std::size_t>(flows.subflow(s).src)];
      out.ctrl.applied_subflow_share[static_cast<std::size_t>(s)] =
          sched != nullptr ? sched->share_of(s) : 0.0;
    }
  }
  return out;
}

}  // namespace e2efa
