#include "net/runner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>

#include "alloc/centralized.hpp"
#include "alloc/distributed.hpp"
#include "check/check.hpp"
#include "alloc/maxmin.hpp"
#include "alloc/two_tier.hpp"
#include "contention/clique_store.hpp"
#include "contention/contention_graph.hpp"
#include "ctrl/admission.hpp"
#include "ctrl/agent.hpp"
#include "net/mobility.hpp"
#include "net/node_stack.hpp"
#include "route/routing.hpp"
#include "sched/fifo_queue.hpp"
#include "sched/tag_scheduler.hpp"
#include "sim/simulator.hpp"
#include "transport/ack_plane.hpp"
#include "transport/aimd.hpp"
#include "transport/bbr.hpp"
#include "util/assert.hpp"

namespace e2efa {

double RunResult::measured_subflow_share(int s, int payload_bytes) const {
  E2EFA_ASSERT(s >= 0 && s < static_cast<int>(delivered_per_subflow.size()));
  const double bits =
      static_cast<double>(delivered_per_subflow[static_cast<std::size_t>(s)]) * 8.0 *
      payload_bytes;
  return bits / (sim_seconds * static_cast<double>(kChannelBps));
}

namespace {

using std::size_t;

/// Running difference of a monotone counter: each call returns how far the
/// counter moved since the previous call.
template <class T>
struct Delta {
  T prev{};
  T operator()(T cur) {
    const T d = cur - prev;
    prev = cur;
    return d;
  }
};

/// Calls `tick` at `first` and then every `period`, for as long as the next
/// call still falls within `horizon`.
template <class Tick>
void run_every(Simulator& sim, TimeNs first, TimeNs period, TimeNs horizon, Tick tick) {
  sim.schedule_at(first, [&sim, period, horizon, tick] {
    tick();
    if (sim.now() + period <= horizon)
      run_every(sim, sim.now() + period, period, horizon, tick);
  });
}

// ---- Stage 1: the run plan. ----

/// Everything fixed before phase 1 runs. "Logical" flows are the
/// scenario's own (what the RunResult reports on); "sim" flows are one flow
/// per (logical flow, route variant). All provisioned variants come first,
/// so sim ids are a prefix extension of the logical ids.
struct RunPlan {
  RunPlan(FaultPlan fault_plan, FlowSet logical_flows)
      : faults(std::move(fault_plan)), logical(std::move(logical_flows)), flows(logical) {}

  FaultPlan faults;  ///< Scripted faults plus compiled mobility link churn.
  FlowSet logical;
  FlowSet flows;  ///< Sim flows (the logical set until route_flows adds repairs).
  FlowId F = 0;   ///< Logical flow count.
  bool dynamic = false;               ///< The scenario has activity windows.
  std::vector<FlowActivity> windows;  ///< Per logical flow (always-on if static).
  double total_s = 0.0;               ///< Warm-up plus measured seconds.
  TimeNs horizon = 0;
  std::vector<double> boundaries;   ///< Epoch start times (s); the first is 0.
  std::vector<TopologyMask> masks;  ///< Surviving topology per epoch.
  /// variant[e][f]: route variant of logical flow f in epoch e (-1 = suspended).
  std::vector<std::vector<int>> variant;
  std::vector<std::vector<FlowId>> sim_flow_of;  ///< [logical][variant] -> sim.
  std::vector<FlowId> logical_of;                ///< sim -> logical.
  std::vector<char> admitted;                    ///< Per logical flow.
  std::vector<RunResult::Admission> admissions;
  /// active_of[e][f]: sim flow carrying logical flow f in epoch e (-1 when
  /// suspended — the destination is unreachable under the epoch's mask).
  std::vector<std::vector<FlowId>> active_of;
  /// active_flows[e]: sim flows offering traffic in epoch e (admitted,
  /// inside their window, routable), in logical flow order.
  std::vector<std::vector<FlowId>> active_flows;

  int epochs() const { return static_cast<int>(boundaries.size()); }
  bool multi() const { return dynamic || epochs() > 1; }
  bool active_at(FlowId f, double t) const {
    const FlowActivity& w = windows[static_cast<size_t>(f)];
    return w.start_s <= t && t < w.stop_s;
  }
  /// Epoch in force at time t_s.
  size_t epoch_at(double t_s) const {
    const auto it = std::upper_bound(boundaries.begin(), boundaries.end(), t_s + 1e-12);
    return static_cast<size_t>(it - boundaries.begin()) - 1;
  }
  /// Epoch e's activity bitmap over sim flows, or over sim subflows.
  std::vector<char> active_bitmap(size_t e, bool over_subflows) const {
    std::vector<char> b(static_cast<size_t>(over_subflows ? flows.subflow_count()
                                                          : flows.flow_count()));
    for (FlowId g : active_flows[e]) {
      if (!over_subflows) {
        b[static_cast<size_t>(g)] = 1;
        continue;
      }
      for (int h = 0; h < flows.flow(g).length(); ++h)
        b[static_cast<size_t>(flows.subflow_index(g, h))] = 1;
    }
    return b;
  }
  /// End-to-end deliveries of logical flow f over every route variant.
  std::int64_t deliveries(const TrafficStats& stats, size_t f) const {
    std::int64_t sum = 0;
    for (FlowId g : sim_flow_of[f]) sum += stats.end_to_end(g);
    return sum;
  }
};

/// Per-logical-flow end-to-end deliveries since the previous take().
class DeliveryDelta {
 public:
  explicit DeliveryDelta(FlowId flows) : last_(static_cast<size_t>(flows)) {}
  std::vector<std::int64_t> take(const RunPlan& plan, const TrafficStats& stats) {
    std::vector<std::int64_t> d(last_.size());
    for (size_t f = 0; f < last_.size(); ++f) d[f] = last_[f](plan.deliveries(stats, f));
    return d;
  }

 private:
  std::vector<Delta<std::int64_t>> last_;
};

/// True when every node and link of `path` survives under `mask`.
bool path_alive(const std::vector<NodeId>& path, const TopologyMask& mask) {
  for (size_t i = 0; i < path.size(); ++i) {
    if (!mask.node_alive(path[i])) return false;
    if (i + 1 < path.size() && !mask.link_alive(path[i], path[i + 1])) return false;
  }
  return true;
}

/// Epoch boundaries: activity changes ∪ fault event times, from 0.
std::vector<double> epoch_boundaries(const RunPlan& plan) {
  std::set<double> boundary_set{0.0};
  for (const FlowActivity& w : plan.windows) {
    E2EFA_ASSERT_MSG(w.start_s >= 0.0 && w.stop_s > w.start_s, "bad activity window");
    if (w.start_s > 0.0 && w.start_s < plan.total_s) boundary_set.insert(w.start_s);
    if (w.stop_s > 0.0 && w.stop_s < plan.total_s) boundary_set.insert(w.stop_s);
  }
  // Events at t == 0 fold into the initial mask; events past the horizon
  // never fire.
  for (double t : plan.faults.event_times())
    if (t > 0.0 && t < plan.total_s) boundary_set.insert(t);
  return {boundary_set.begin(), boundary_set.end()};
}

/// Route repair per epoch, then the sim flow set; fills plan.variant,
/// sim_flow_of and logical_of. The provisioned route (variant 0) is kept
/// whenever it is still alive (route stability); otherwise min-hop routing
/// re-runs on the surviving graph.
FlowSet route_flows(const Topology& topo, RunPlan& plan) {
  const size_t F = static_cast<size_t>(plan.F);
  std::vector<Flow> specs = plan.logical.flows();
  std::vector<std::vector<std::vector<NodeId>>> variants(F);
  for (size_t f = 0; f < F; ++f) variants[f].push_back(specs[f].path);
  plan.variant.assign(plan.masks.size(), std::vector<int>(F, 0));
  for (size_t e = 0; e < plan.masks.size(); ++e) {
    if (plan.masks[e].all_up()) continue;  // everything on its provisioned route
    for (size_t f = 0; f < F; ++f) {
      auto& vars = variants[f];
      if (path_alive(vars[0], plan.masks[e])) continue;
      auto repaired = shortest_path(topo, vars[0].front(), vars[0].back(), plan.masks[e]);
      if (!repaired.has_value()) {
        plan.variant[e][f] = -1;
        continue;
      }
      auto it = std::find(vars.begin(), vars.end(), *repaired);
      if (it == vars.end()) it = vars.insert(vars.end(), std::move(*repaired));
      plan.variant[e][f] = static_cast<int>(it - vars.begin());
    }
  }
  for (size_t f = 0; f < F; ++f) {
    plan.sim_flow_of.push_back({static_cast<FlowId>(f)});
    plan.logical_of.push_back(static_cast<FlowId>(f));
  }
  for (size_t f = 0; f < F; ++f) {
    for (size_t v = 1; v < variants[f].size(); ++v) {
      Flow repaired;
      repaired.path = variants[f][v];
      repaired.weight = specs[f].weight;
      plan.sim_flow_of[f].push_back(static_cast<FlowId>(specs.size()));
      plan.logical_of.push_back(static_cast<FlowId>(f));
      specs.push_back(std::move(repaired));
    }
  }
  return FlowSet(topo, std::move(specs));
}

/// Latches the run parameters into the invariant oracles before any hook
/// can fire (the phase-1 post-solve checks and every packet-sim hook).
void begin_check_run(CheckContext* check, const Scenario& sc, const ProtocolInfo& proto,
                     const SimConfig& cfg, const FlowSet& flows) {
  if (check == nullptr) return;
  CheckRunInfo info;
  info.node_count = sc.topo.node_count();
  info.cw_min = cfg.cw_min;
  info.use_rts_cts = cfg.use_rts_cts;
  info.scaled_cw = proto.access == AccessRule::kStaticScaledCw;
  info.queue_capacity = cfg.queue_capacity;
  for (const Subflow& sf : flows.subflows())
    info.subflows.push_back({sf.flow, sf.hop, sf.src, sf.dst,
                             sf.hop + 1 >= flows.flow(sf.flow).length(),
                             sf.hop > 0 ? flows.subflow_index(sf.flow, sf.hop - 1) : -1});
  check->begin_run(info);
}

/// Admission control over open-loop arrivals. A flow whose window starts
/// mid-run is a *candidate*: it enters only if every clique its subflows
/// touch keeps all admitted flows' basic shares feasible (Ganesan's clique
/// bound). The founding population (start_s == 0) is the scenario's own
/// responsibility. Decisions are made in arrival order against the flows
/// admitted so far, on provisioned routes; the distributed solver uses the
/// distributed gate (per-node partial knowledge under the arrival instant's
/// mask — as strict or stricter than the oracle), every other solver the
/// centralized twin, and a protocol without a solver admits everything.
void admit_arrivals(const Topology& topo, Phase1Solver solver, CheckContext* check,
                    RunPlan& plan) {
  plan.admitted.assign(static_cast<size_t>(plan.F), 1);
  if (solver == Phase1Solver::kNone) return;
  const bool distributed = solver == Phase1Solver::k2paLocalLps;
  std::vector<std::pair<double, FlowId>> arrivals;
  for (FlowId f = 0; f < plan.F; ++f) {
    const double t = plan.windows[static_cast<size_t>(f)].start_s;
    if (t > 0.0 && t < plan.total_s) arrivals.emplace_back(t, f);
  }
  if (arrivals.empty()) return;
  std::sort(arrivals.begin(), arrivals.end());
  const ContentionGraph gate_graph(topo, plan.logical);
  for (const auto& [t, f] : arrivals) {
    std::vector<char> present(static_cast<size_t>(plan.F), 0);
    for (FlowId j = 0; j < plan.F; ++j)
      present[static_cast<size_t>(j)] =
          j != f && plan.admitted[static_cast<size_t>(j)] && plan.active_at(j, t);
    AdmissionDecision d;
    if (distributed) {
      const TopologyMask gate_mask = plan.faults.mask_at(t, topo.node_count());
      d = admission_check_distributed(topo, plan.logical, gate_graph, present, f,
                                      gate_mask.all_up() ? nullptr : &gate_mask);
    } else {
      d = admission_check_centralized(plan.logical, gate_graph, present, f);
    }
    plan.admitted[static_cast<size_t>(f)] = d.admitted ? 1 : 0;
    plan.admissions.push_back({f, t, d.admitted, static_cast<int>(d.reason), d.worst_load, -1});
    if (check != nullptr)
      check->on_admission(f, d.admitted, d.worst_load, distributed, from_seconds(t));
  }
}

RunPlan plan_run(const Scenario& sc, const ProtocolInfo& proto, const SimConfig& cfg) {
  // Structural validation up front, with messages naming the actual defect
  // (FlowSet would reject these too, but less helpfully).
  for (const Flow& spec : sc.flow_specs) {
    E2EFA_ASSERT_MSG(spec.path.size() >= 2, "flow path needs at least two nodes");
    E2EFA_ASSERT_MSG(spec.path.front() != spec.path.back(),
                     "flow source equals destination");
  }
  // The effective fault schedule: scripted faults plus whatever link churn
  // the mobility walks compile down to. With no mobility this is an exact
  // copy of sc.faults, so fault-free and scripted-fault runs are untouched.
  FaultPlan faults = sc.faults;
  const double total_s = cfg.warmup_seconds + cfg.sim_seconds;
  if (!sc.mobility.empty()) compile_mobility(sc.topo, sc.mobility, total_s, faults);
  faults.validate(sc.topo.node_count());

  RunPlan plan(std::move(faults), FlowSet(sc.topo, sc.flow_specs));
  plan.F = plan.logical.flow_count();
  plan.dynamic = !sc.activity.empty();
  E2EFA_ASSERT_MSG(!plan.dynamic || static_cast<FlowId>(sc.activity.size()) == plan.F,
                   "one FlowActivity per flow required");
  plan.windows = plan.dynamic ? sc.activity
                              : std::vector<FlowActivity>(static_cast<size_t>(plan.F));
  plan.total_s = total_s;
  plan.horizon = from_seconds(total_s);
  plan.boundaries = epoch_boundaries(plan);
  for (double t : plan.boundaries)
    plan.masks.push_back(plan.faults.mask_at(t, sc.topo.node_count()));
  plan.flows = route_flows(sc.topo, plan);

  begin_check_run(cfg.check, sc, proto, cfg, plan.flows);
  admit_arrivals(sc.topo, proto.phase1, cfg.check, plan);

  const size_t E = plan.boundaries.size();
  plan.active_of.assign(E, std::vector<FlowId>(static_cast<size_t>(plan.F)));
  plan.active_flows.resize(E);
  for (size_t e = 0; e < E; ++e) {
    for (FlowId f = 0; f < plan.F; ++f) {
      const size_t uf = static_cast<size_t>(f);
      const int v = plan.variant[e][uf];
      const FlowId g = v < 0 ? -1 : plan.sim_flow_of[uf][static_cast<size_t>(v)];
      plan.active_of[e][uf] = g;
      if (g >= 0 && plan.admitted[uf] && plan.active_at(f, plan.boundaries[e]))
        plan.active_flows[e].push_back(g);
    }
  }
  return plan;
}

// ---- Stage 2: per-epoch phase-1 allocations. ----

/// Sim-flow-indexed allocation for one epoch: flows inactive in the epoch
/// get share 0 and their lanes the inactive floor.
struct EpochAllocation {
  LpStatus status = LpStatus::kOptimal;
  std::vector<double> flow_share;     ///< Per sim flow.
  std::vector<double> subflow_share;  ///< Per sim subflow.
};

/// Epoch e's sim-flow shares folded onto logical flows (0 = inactive or
/// suspended in that epoch).
std::vector<double> logical_shares(const RunPlan& plan,
                                   const std::vector<EpochAllocation>& epochs, size_t e) {
  std::vector<double> share(static_cast<size_t>(plan.F), 0.0);
  for (size_t f = 0; f < share.size(); ++f) {
    const FlowId g = plan.active_of[e][f];
    if (g >= 0) share[f] = epochs[e].flow_share[static_cast<size_t>(g)];
  }
  return share;
}

/// Accepts a solve only when it kept every basic-share floor: a relaxed one
/// (min_relaxation < 1: the clique rows cannot carry every flow's basic
/// share) reports kInfeasible.
template <class Result>
LpStatus accept_unrelaxed(const Result& r, Allocation* out) {
  if (r.status != LpStatus::kOptimal) return r.status;
  if (r.min_relaxation < 1.0 - 1e-9) return LpStatus::kInfeasible;
  *out = r.allocation;
  return LpStatus::kOptimal;
}

/// Phase-1 dispatch over an arbitrary flow set. The LP solvers reject
/// relaxed solves; the distributed one keeps its by-design local
/// relaxations.
LpStatus compute_allocation(Phase1Solver solver, const FlowSet& flows,
                            const ContentionGraph& graph, const TopologyMask* mask,
                            const std::vector<std::vector<int>>* cliques, Allocation* out) {
  switch (solver) {
    case Phase1Solver::kTwoTierLp:
      return accept_unrelaxed(two_tier_allocate(graph, cliques), out);
    case Phase1Solver::k2paLp:
      return accept_unrelaxed(centralized_allocate(graph, cliques), out);
    case Phase1Solver::kTwoTierMaxMin:
      *out = maxmin_allocate_subflows(graph, {}, cliques).allocation;
      break;
    case Phase1Solver::kFlowMaxMin:
      *out = maxmin_allocate(graph, {}, cliques).allocation;
      break;
    case Phase1Solver::k2paLocalLps:
      // The in-band oracle restricts the neighbor exchange to the epoch's
      // surviving topology (a dead neighbor's HELLOs go unheard).
      *out = distributed_allocate(flows.topology(), flows, graph, mask).allocation;
      break;
    case Phase1Solver::kNone:
      break;
  }
  return LpStatus::kOptimal;
}

/// The store's cliques over the `active` sim flows, relabeled into the
/// subflow ids of `sub` (the flow set made of just those flows). The
/// epoch's subgraph is vertex-for-vertex the graph over `sub` (contention
/// is pure geometry of the unchanged endpoints), so the re-canonicalized
/// result is exactly what from-scratch enumeration on `sub` would give.
std::vector<std::vector<int>> epoch_cliques(CliqueStore& store, const FlowSet& all_flows,
                                            const FlowSet& sub,
                                            const std::vector<FlowId>& active) {
  std::vector<char> want(static_cast<size_t>(all_flows.subflow_count()), 0);
  std::vector<int> sub_id(static_cast<size_t>(all_flows.subflow_count()), -1);
  for (size_t i = 0; i < active.size(); ++i) {
    for (int h = 0; h < all_flows.flow(active[i]).length(); ++h) {
      const int full = all_flows.subflow_index(active[i], h);
      want[static_cast<size_t>(full)] = 1;
      sub_id[static_cast<size_t>(full)] = sub.subflow_index(static_cast<FlowId>(i), h);
    }
  }
  store.set_active(want);
  std::vector<std::vector<int>> cliques = store.cliques();
  for (auto& c : cliques) {
    for (int& v : c) v = sub_id[static_cast<size_t>(v)];
    std::sort(c.begin(), c.end());
  }
  std::sort(cliques.begin(), cliques.end());
  return cliques;
}

EpochAllocation allocate_epoch(const RunPlan& plan, size_t e, const ProtocolInfo& proto,
                               const SimConfig& cfg, CliqueStore* store) {
  const FlowSet& all_flows = plan.flows;
  const std::vector<FlowId>& active = plan.active_flows[e];
  EpochAllocation out;
  out.flow_share.assign(static_cast<size_t>(all_flows.flow_count()), 0.0);
  out.subflow_share.assign(static_cast<size_t>(all_flows.subflow_count()),
                           TagScheduler::kInactiveShare);
  if (active.empty() || proto.phase1 == Phase1Solver::kNone) return out;

  std::vector<Flow> specs;
  for (FlowId f : active) specs.push_back(all_flows.flow(f));
  const FlowSet sub(all_flows.topology(), specs);
  std::optional<std::vector<std::vector<int>>> cliques;
  if (store != nullptr) {
    Profiler::Scope prof(cfg.profile, Profiler::Phase::kClique);
    cliques = epoch_cliques(*store, all_flows, sub, active);
  }
  Allocation a;
  std::optional<ContentionGraph> graph;
  {
    Profiler::Scope prof(cfg.profile, Profiler::Phase::kSolve);
    graph.emplace(all_flows.topology(), sub);
    out.status = compute_allocation(proto.phase1, sub, *graph,
                                    proto.in_band ? &plan.masks[e] : nullptr,
                                    cliques ? &*cliques : nullptr, &a);
  }
  E2EFA_ASSERT_MSG(out.status == LpStatus::kOptimal,
                   "phase-1 allocation infeasible: basic shares exceed clique capacity");
  // Post-solve oracle: the flow floor only where the solver promises it;
  // the local LPs may mildly oversubscribe a clique (partial knowledge) and
  // get the documented envelope instead of the strict bound.
  if (cfg.check != nullptr)
    cfg.check->check_allocation(*graph, a, proto.phase1 == Phase1Solver::k2paLp,
                                proto.phase1 != Phase1Solver::k2paLocalLps,
                                plan.boundaries[e]);
  for (size_t i = 0; i < active.size(); ++i) {
    const FlowId g = active[i];
    out.flow_share[static_cast<size_t>(g)] = a.flow_share[i];
    for (int h = 0; h < all_flows.flow(g).length(); ++h)
      out.subflow_share[static_cast<size_t>(all_flows.subflow_index(g, h))] =
          a.subflow_share[static_cast<size_t>(sub.subflow_index(static_cast<FlowId>(i), h))];
  }
  return out;
}

/// Phase 1 over every epoch's reachable active flows. For the in-band
/// protocol this is the *oracle*: the AllocAgents must converge to it on
/// their own, so it is solved against the epoch's surviving topology but
/// never pushed into the schedulers.
std::vector<EpochAllocation> allocate_epochs(const RunPlan& plan, const ProtocolInfo& proto,
                                             const SimConfig& cfg) {
  // The solvers over global cliques maintain them incrementally across
  // epochs, so a boundary re-derives only the cliques around the flows
  // that toggled (the distributed solver enumerates neighborhood-sized
  // local cliques instead).
  std::unique_ptr<ContentionGraph> graph;
  std::unique_ptr<CliqueStore> store;
  if (proto.phase1 != Phase1Solver::kNone && proto.phase1 != Phase1Solver::k2paLocalLps) {
    graph = std::make_unique<ContentionGraph>(plan.flows.topology(), plan.flows);
    // Start all-inactive: epoch 0's set_active seeds the first enumeration.
    store = std::make_unique<CliqueStore>(
        *graph, std::vector<char>(static_cast<size_t>(plan.flows.subflow_count()), 0));
  }
  std::vector<EpochAllocation> epochs;
  for (size_t e = 0; e < plan.boundaries.size(); ++e)
    epochs.push_back(allocate_epoch(plan, e, proto, cfg, store.get()));
  return epochs;
}

// ---- Stage 3: the packet-level network. ----

/// The simulated network of one run and the live state its scheduled
/// events share. Events capture its address, so it lives on the heap and
/// is never moved.
struct Network {
  Network(const Scenario& s, const RunPlan& p, const std::vector<EpochAllocation>& a,
          const ProtocolInfo& pr, const SimConfig& c)
      : sc(s), plan(p), epochs(a), proto(pr), cfg(c) {
    stats.set_warmup(from_seconds(cfg.warmup_seconds));
    for (size_t f = 0; f < active_now.size(); ++f)
      if (active_now[f] < 0) pending_fault_s[f] = 0.0;
  }
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void wire_channel();
  void trace_epoch(size_t e);
  void build_stacks();
  void start_control_plane();
  void track_deliveries();
  void enter_epoch(size_t e);
  void start_sources();
  /// Closes the running epoch's goodput window.
  void close_epoch() { epoch_e2e.push_back(epoch_delta.take(plan, stats)); }
  /// Every node's AllocAgent counters, summed.
  CtrlAgentStats ctrl_totals() const {
    CtrlAgentStats sum;
    for (const auto& agent : agents) sum += agent->stats();
    return sum;
  }

  const Scenario& sc;
  const RunPlan& plan;
  const std::vector<EpochAllocation>& epochs;
  const ProtocolInfo& proto;
  const SimConfig& cfg;
  TraceSink* const trace = cfg.trace;
  CheckContext* const check = cfg.check;

  Simulator sim;
  Channel channel{sim, sc.topo};
  TrafficStats stats{plan.flows};
  Rng master{cfg.seed};
  std::unique_ptr<FaultRuntime> faults;
  std::vector<std::unique_ptr<NodeStack>> stacks;
  std::vector<TagScheduler*> tag_scheds =  // per node; null under kBebFifo
      std::vector<TagScheduler*>(static_cast<size_t>(sc.topo.node_count()), nullptr);
  std::int64_t link_failures = 0;
  std::unique_ptr<ContentionGraph> ctrl_graph;
  std::vector<std::unique_ptr<AllocAgent>> agents;
  /// In-band ADMIT round of one admission-gated arrival: at the arrival's
  /// boundary the candidate's source (of sim `flow`) runs the hop-by-hop round.
  struct InbandRound { size_t admission, epoch; FlowId flow; };
  std::vector<InbandRound> inband_rounds;

  // Fault bookkeeping, indexed by logical flow.
  std::vector<FlowId> active_now = plan.active_of[0];  ///< Carrying sim flow; -1 = suspended.
  /// Earliest unhealed disruption (-1 = none pending).
  std::vector<double> pending_fault_s = std::vector<double>(static_cast<size_t>(plan.F), -1.0);
  std::vector<RunResult::Recovery> recoveries;
  DeliveryDelta epoch_delta{plan.F};
  std::vector<std::vector<std::int64_t>> epoch_e2e;

  bool elastic = sc.transport != TransportKind::kCbr;
  std::unique_ptr<AckPlane> ack;
  std::vector<std::unique_ptr<TransportSource>> sources;  ///< Per logical flow.
};

/// Observability wiring, epoch 0's phase-1 record, and the live fault
/// state for the PHY — installed only when the plan does anything, so
/// fault-free runs keep the exact pre-fault channel path.
void Network::wire_channel() {
  channel.set_trace(trace);
  channel.set_check(check);
  channel.set_profiler(cfg.profile);
  if (trace != nullptr) {
    trace->record(
        0, TraceEvent::kRunMeta, -1, sc.topo.node_count(), plan.F,
        static_cast<double>(kChannelBps), static_cast<double>(cfg.payload_bytes));
    for (int s = 0; s < plan.flows.subflow_count(); ++s) {
      const Subflow& sf = plan.flows.subflow(s);
      trace->record(
          0, TraceEvent::kSubflowMeta, static_cast<std::int16_t>(sf.src), s,
          plan.logical_of[static_cast<size_t>(sf.flow)], static_cast<double>(sf.hop));
    }
  }
  trace_epoch(0);
  if (!plan.faults.empty()) {
    faults = std::make_unique<FaultRuntime>(plan.faults, sc.topo.node_count(), cfg.seed);
    channel.set_faults(faults.get());
  }
}

/// Phase-1 emission for epoch e: the solve record, then the resulting
/// per-logical-flow targets.
void Network::trace_epoch(size_t e) {
  if (trace == nullptr) return;
  trace->record(sim.now(), TraceEvent::kLpResolve, -1,
                static_cast<std::int32_t>(e),
                static_cast<std::int32_t>(epochs[e].status), plan.boundaries[e]);
  const std::vector<double> share = logical_shares(plan, epochs, e);
  for (FlowId f = 0; f < plan.F; ++f)
    trace->record(sim.now(), TraceEvent::kFlowTarget, -1, f, -1,
                  share[static_cast<size_t>(f)]);
}

void Network::build_stacks() {
  const MacConfig mac_cfg{cfg.use_rts_cts};
  stacks.reserve(static_cast<size_t>(sc.topo.node_count()));
  for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
    std::unique_ptr<TxQueue> queue;
    std::unique_ptr<BackoffPolicy> backoff;
    TagScheduler* tags = nullptr;
    if (proto.access == AccessRule::kBebFifo) {
      auto fifo = std::make_unique<FifoQueue>(cfg.queue_capacity);
      fifo->set_check(check, n);
      queue = std::move(fifo);
      backoff = std::make_unique<BebBackoff>(cfg.cw_min, kCwMax);
    } else {
      std::vector<TagScheduler::SubflowConfig> lanes;
      // In-band runs must not start from the oracle's answer: lanes begin
      // at the inactive floor and the agents bootstrap them locally.
      for (int s : plan.flows.sourced_at(n))
        lanes.push_back({s, proto.in_band ? TagScheduler::kInactiveShare
                                          : epochs[0].subflow_share[static_cast<size_t>(s)]});
      auto sched =
          std::make_unique<TagScheduler>(std::move(lanes), cfg.queue_capacity, cfg.alpha);
      sched->set_trace(trace, static_cast<std::int16_t>(n));
      sched->set_check(check, n);
      tag_scheds[static_cast<size_t>(n)] = sched.get();
      if (proto.access == AccessRule::kStaticScaledCw) {
        backoff = std::make_unique<ScaledCwBackoff>(
            cfg.cw_min, kCwMax, std::min(1.0, std::max(sched->node_share(), 1e-3)));
      } else {
        tags = sched.get();
        backoff = std::make_unique<TagBackoff>(cfg.cw_min, kCwMax, *sched);
      }
      queue = std::move(sched);
    }
    stacks.push_back(std::make_unique<NodeStack>(sim, channel, n, plan.flows, stats, mac_cfg,
                                                 std::move(queue), std::move(backoff),
                                                 master.split(), tags));
    stacks.back()->set_trace(trace);
    stacks.back()->set_check(check);
    stacks.back()->set_link_failure_listener(
        [this](const Packet&, TimeNs) { ++link_failures; });
  }
}

/// In-band control plane: one AllocAgent per node, wired into its MAC.
/// Only an in-band protocol gets here (including the extra RNG splits), so
/// every other protocol's trajectory is untouched.
void Network::start_control_plane() {
  // Any dynamics — scripted faults, churn windows, or mobility — turn on
  // the loss-hardened control plane (retransmits, generation stamps,
  // staleness degradation); a plain static run keeps the lean protocol so
  // its trajectory is byte-identical to earlier builds.
  const bool hardened = !plan.faults.empty() || plan.dynamic || !sc.mobility.empty();
  ctrl_graph = std::make_unique<ContentionGraph>(sc.topo, plan.flows);
  Rng ctrl_master = master.split();
  for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
    agents.push_back(std::make_unique<AllocAgent>(
        sim, stacks[static_cast<size_t>(n)]->mac(), sc.topo, plan.flows, *ctrl_graph,
        tag_scheds[static_cast<size_t>(n)], hardened, ctrl_master.split(), trace));
    agents.back()->set_check(check);
    agents.back()->set_profiler(cfg.profile);
  }
  const std::vector<char> b0 = plan.active_bitmap(0, true);
  for (auto& a : agents) a->note_active_set(b0);
  for (auto& a : agents) a->start();

  // The rounds' verdicts are diagnostic (the offline gate already decided);
  // RunResult::Admission::inband records what the network itself
  // concluded, for differential comparison.
  for (size_t i = 0; i < plan.admissions.size(); ++i) {
    const double t = plan.admissions[i].at_s;
    const auto it = std::lower_bound(plan.boundaries.begin(), plan.boundaries.end(), t);
    if (it == plan.boundaries.end() || *it != t) continue;
    const size_t e = static_cast<size_t>(it - plan.boundaries.begin());
    const size_t f = static_cast<size_t>(plan.admissions[i].flow);
    const int v = std::max(plan.variant[e][f], 0);
    inband_rounds.push_back({i, e, plan.sim_flow_of[f][static_cast<size_t>(v)]});
  }
}

/// Recovery detection (the first end-to-end delivery on the *current*
/// route of a disrupted flow heals it — stale in-flight packets on a
/// pre-fault route do not count) composed with delivery tracing; both ride
/// the same TrafficStats listener slot.
void Network::track_deliveries() {
  const bool want_recovery = !plan.faults.events().empty();
  if (!want_recovery && trace == nullptr) return;
  stats.set_delivery_listener([this, want_recovery](FlowId g, TimeNs now, TimeNs delay) {
    const FlowId f = plan.logical_of[static_cast<size_t>(g)];
    if (trace != nullptr)
      trace->record(
          now, TraceEvent::kDelivery,
          static_cast<std::int16_t>(plan.flows.flow(g).destination()), f, g,
          to_seconds(delay));
    double& pending = pending_fault_s[static_cast<size_t>(f)];
    if (!want_recovery || pending < 0.0 || active_now[static_cast<size_t>(f)] != g) return;
    recoveries.push_back({f, pending, to_seconds(now)});
    pending = -1.0;
  });
}

/// Epoch boundary e: close the ending epoch's goodput window, apply the
/// new surviving topology, push the re-converged shares into the live
/// schedulers, and switch every flow to its epoch route.
void Network::enter_epoch(size_t e) {
  if (plan.multi()) close_epoch();
  if (faults) faults->apply(plan.masks[e]);
  if (trace != nullptr && !plan.faults.empty())
    trace->record(sim.now(), TraceEvent::kFaultEpoch, -1,
                  static_cast<std::int32_t>(e), -1, plan.boundaries[e]);
  trace_epoch(e);
  // The admission/stale-rate oracle learns the new population before the
  // control plane reacts, so every lane update at or after the boundary is
  // judged against the current flow set.
  if (check != nullptr) check->note_active_flows(plan.active_bitmap(e, false), sim.now());
  if (proto.in_band) {
    // No oracle push: tell the agents what went (in)active and let the
    // network re-converge through its own HELLO/CONSTRAINT/RATE cycle.
    const std::vector<char> b = plan.active_bitmap(e, true);
    for (auto& a : agents) a->note_active_set(b);
    for (const InbandRound& r : inband_rounds)
      if (r.epoch == e)
        agents[static_cast<size_t>(plan.flows.flow(r.flow).source())]->request_admission(
            r.flow);
  } else {
    for (int s = 0; s < plan.flows.subflow_count(); ++s) {
      TagScheduler* sched = tag_scheds[static_cast<size_t>(plan.flows.subflow(s).src)];
      if (sched != nullptr) {
        sched->note_time(sim.now());
        sched->update_share(s, epochs[e].subflow_share[static_cast<size_t>(s)]);
      }
    }
  }
  for (size_t f = 0; f < active_now.size(); ++f) {
    const FlowId prev = active_now[f];
    const FlowId next = plan.active_of[e][f];
    if (next == prev) continue;
    active_now[f] = next;
    // A reroute or suspension is a disruption; a resume keeps the original
    // fault time so the recovery spans the whole outage.
    if (pending_fault_s[f] < 0.0 && (next < 0 || prev >= 0))
      pending_fault_s[f] = plan.boundaries[e];
  }
}

/// Traffic sources at each flow's origin, gated by the activity windows.
/// Packets of a suspended flow are suppressed at the source (and counted):
/// there is no route to put them on.
///
/// Elastic runs additionally stand up the ACK plane: every node may relay
/// returning kTransAck frames, every stack's last-hop deliveries route
/// through the plane's freshness gate, and each flow's controller hangs off
/// its provisioned path. CBR runs construct none of this — their trajectory
/// (and RNG stream) is byte-identical to pre-transport builds.
void Network::start_sources() {
  if (elastic) {
    ack = std::make_unique<AckPlane>(sim, trace, check);
    for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
      NodeStack* stack = stacks[static_cast<size_t>(n)].get();
      ack->register_mac(n, &stack->mac());
      stack->mac().set_transport_listener(
          [a = ack.get(), n](const Frame& fr) { a->on_ctrl_frame(n, fr); });
      // The plane keys state by *logical* flow: a repaired route variant's
      // deliveries fold onto the same cumulative-ack stream.
      stack->set_transport_sink([a = ack.get(), this](const Packet& p, TimeNs now) {
        Packet q = p;
        q.flow = plan.logical_of[static_cast<size_t>(p.flow)];
        return a->on_final_delivery(q, now);
      });
    }
  }
  for (FlowId f = 0; f < plan.F; ++f) {
    const Flow& flow = plan.logical.flow(f);
    NodeStack* stack = stacks[static_cast<size_t>(flow.source())].get();
    auto emit = [this, stack, f](Packet p) {
      const FlowId g = active_now[static_cast<size_t>(f)];
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
      src = std::make_unique<AimdTransport>(sim, cfg.payload_bytes, std::move(emit),
                                            master, f, flow.source(), trace, check);
    } else {
      src = std::make_unique<BbrTransport>(sim, cfg.payload_bytes, std::move(emit),
                                           master, f, flow.source(), trace, check);
    }
    if (elastic) ack->add_flow(f, flow.path, src.get());
    const FlowActivity& w = plan.windows[static_cast<size_t>(f)];
    const TimeNs until = std::min(plan.horizon, from_seconds(std::min(w.stop_s, plan.total_s)));
    TransportSource* raw = src.get();
    // A rejected arrival's source never starts (the flow offers no traffic);
    // the source object is still constructed so the RNG stream layout is
    // identical whichever way the gate decided.
    if (plan.admitted[static_cast<size_t>(f)])
      sim.schedule_at(from_seconds(std::min(w.start_s, plan.total_s)),
                      [raw, until] { raw->start(until); });
    sources.push_back(std::move(src));
  }
}

/// Builds the network in the order the trajectory depends on: RNG splits
/// for the stacks in node order, then the control plane, then the sources
/// in flow order; epoch events are scheduled before the source starts.
std::unique_ptr<Network> build_network(const Scenario& sc, const RunPlan& plan,
                                       const std::vector<EpochAllocation>& epochs,
                                       const ProtocolInfo& proto, const SimConfig& cfg) {
  auto net = std::make_unique<Network>(sc, plan, epochs, proto, cfg);
  net->wire_channel();
  net->build_stacks();
  if (net->check != nullptr) net->check->note_active_flows(plan.active_bitmap(0, false), 0);
  if (proto.in_band) net->start_control_plane();
  net->track_deliveries();
  // Scheduled at setup, so each boundary precedes all same-instant packet
  // events.
  for (size_t e = 1; e < plan.boundaries.size(); ++e)
    net->sim.schedule_at(from_seconds(plan.boundaries[e]),
                         [n = net.get(), e] { n->enter_epoch(e); });
  net->start_sources();
  return net;
}

// ---- Stage 4: observers. ----

/// Periodic read-only probes hung off a built network and scheduled after
/// its own events: the in-band re-convergence probe and the metrics
/// sampler. Neither perturbs the trajectory.
/// Events capture this object's address, so it is never moved.
class Observers {
 public:
  explicit Observers(Network& net);
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;
  /// Moves what the observers gathered into `out`.
  void collect(RunResult& out);

 private:
  void probe_reconvergence();
  void sample_metrics();

  Network& net_;
  std::vector<double> reconv_;
  MetricsTimeSeries metrics_;
  DeliveryDelta metrics_delta_;
  Delta<double> timeouts_, attempts_, airtime_, ctrl_bytes_, retransmits_, seq_gaps_;
};

Observers::Observers(Network& net)
    : net_(net),
      reconv_(net.plan.boundaries.size(), -1.0),
      metrics_delta_(net.plan.F) {
  const SimConfig& cfg = net.cfg;
  const TimeNs horizon = net.plan.horizon;
  if (net.proto.in_band && net.plan.epochs() > 1) {
    const TimeNs period = from_seconds(0.1);
    run_every(net.sim, period, period, horizon, [this] { probe_reconvergence(); });
  }
  if (cfg.metrics_period_seconds > 0.0) {
    metrics_.period_s = cfg.metrics_period_seconds;
    const TimeNs period = from_seconds(cfg.metrics_period_seconds);
    E2EFA_ASSERT(period > 0);
    run_every(net.sim, period, period, horizon, [this] { sample_metrics(); });
  }
}

/// Records, per epoch, how long the network took to bring every active
/// lane's applied share within 10% + 0.02 of the epoch's oracle target.
void Observers::probe_reconvergence() {
  const RunPlan& plan = net_.plan;
  const double now_s = to_seconds(net_.sim.now());
  const size_t e = plan.epoch_at(now_s);
  if (reconv_[e] >= 0.0) return;
  for (FlowId g : plan.active_flows[e]) {
    for (int h = 0; h < plan.flows.flow(g).length(); ++h) {
      const int s = plan.flows.subflow_index(g, h);
      const TagScheduler* sched = net_.tag_scheds[static_cast<size_t>(plan.flows.subflow(s).src)];
      const double target = net_.epochs[e].subflow_share[static_cast<size_t>(s)];
      const double applied = sched != nullptr ? sched->share_of(s) : 0.0;
      if (std::abs(applied - target) > 0.10 * target + 0.02) return;
    }
  }
  reconv_[e] = now_s - plan.boundaries[e];
  if (net_.trace != nullptr)
    net_.trace->record(net_.sim.now(), TraceEvent::kCtrlReconv, -1,
                       static_cast<std::int32_t>(e), -1, reconv_[e],
                       plan.boundaries[e]);
}

void Observers::sample_metrics() {
  const SimConfig& cfg = net_.cfg;
  const RunPlan& plan = net_.plan;
  const double period_s = cfg.metrics_period_seconds;
  MetricsSample samp;
  samp.t_s = to_seconds(net_.sim.now());
  samp.flow_delivered = metrics_delta_.take(plan, net_.stats);
  const size_t flows = samp.flow_delivered.size();
  std::vector<double> rate(flows), share(flows);
  for (size_t f = 0; f < flows; ++f) {
    const double delivered = static_cast<double>(samp.flow_delivered[f]);
    rate[f] = delivered / period_s;
    share[f] = delivered * 8.0 * cfg.payload_bytes /
               (period_s * static_cast<double>(kChannelBps));
  }
  // Share-normalized fairness against the epoch targets in force at the
  // window midpoint; raw rates when there is no allocation (802.11).
  const std::vector<double> normalized = normalized_by(
      share, logical_shares(plan, net_.epochs, plan.epoch_at(samp.t_s - 0.5 * period_s)));
  samp.jain = jain_fairness_index(normalized.empty() ? rate : normalized);
  // Counters are read straight from the components; each sum is an
  // integer below 2^53, so it is exact as a double.
  std::vector<double> depths;
  std::uint64_t timeouts = 0, rts_sent = 0, data_sent = 0;
  for (const auto& stack : net_.stacks) {
    depths.push_back(static_cast<double>(stack->backlog()));
    const DcfMac::Stats& ms = stack->mac().stats();
    timeouts += ms.timeouts;
    rts_sent += ms.rts_sent;
    data_sent += ms.data_sent;
  }
  samp.queue_depth_p50 = percentile(depths, 50.0);
  samp.queue_depth_p95 = percentile(depths, 95.0);
  samp.queue_depth_max = percentile(depths, 100.0);
  const double d_timeouts = timeouts_(static_cast<double>(timeouts));
  const double d_attempts = attempts_(static_cast<double>(rts_sent + data_sent));
  samp.mac_retry_rate = d_attempts > 0.0 ? d_timeouts / d_attempts : 0.0;
  samp.channel_utilization = airtime_(static_cast<double>(net_.channel.stats().airtime_ns)) /
                             static_cast<double>(from_seconds(period_s));
  if (net_.proto.in_band) {
    const CtrlAgentStats ctrl = net_.ctrl_totals();
    const double cbytes = static_cast<double>(ctrl.ctrl_bytes);
    samp.ctrl_bytes = ctrl_bytes_(cbytes);
    const double data_bytes =
        static_cast<double>(data_sent) * static_cast<double>(cfg.payload_bytes);
    samp.ctrl_overhead = data_bytes > 0.0 ? cbytes / data_bytes : 0.0;
    samp.ctrl_retransmits = retransmits_(static_cast<double>(ctrl.retransmits));
    samp.ctrl_seq_gaps = seq_gaps_(static_cast<double>(ctrl.seq_gaps));
  }
  if (net_.elastic) {
    for (const auto& src : net_.sources) {
      const TransportTelemetry tel = src->telemetry();
      samp.flow_cwnd.push_back(tel.cwnd);
      samp.flow_srtt_s.push_back(tel.srtt_s);
      samp.flow_delivery_pps.push_back(tel.delivery_rate_pps);
    }
  }
  metrics_.samples.push_back(std::move(samp));
}

void Observers::collect(RunResult& out) {
  out.metrics = std::move(metrics_);
  if (net_.proto.in_band && net_.plan.epochs() > 1) {
    out.reconv_s = std::move(reconv_);
    // Surface the per-epoch samples in the metrics artifact as well, so a
    // JSONL dump carries the control-plane health story on its own.
    if (net_.cfg.metrics_period_seconds > 0.0) out.metrics.reconv_s = out.reconv_s;
  }
}

// ---- Stage 5: collect. Per-flow figures aggregate every route variant
// back onto the scenario flow; per-subflow figures stay at sim granularity
// (their logical prefix matches the scenario's own subflows). ----

/// Phase-1 targets: RunResult::target_* reflect the first epoch; epoch_*
/// record the full history of multi-epoch runs.
void collect_targets(const RunPlan& plan, const std::vector<EpochAllocation>& epochs,
                     Phase1Solver solver, RunResult& out) {
  out.has_target = solver != Phase1Solver::kNone && !plan.active_flows[0].empty();
  if (out.has_target) {
    out.target_subflow_share = epochs[0].subflow_share;
    out.target_flow_share = logical_shares(plan, epochs, 0);
  }
  if (plan.multi()) {
    out.epoch_starts_s = plan.boundaries;
    for (size_t e = 0; e < epochs.size(); ++e)
      out.epoch_flow_share.push_back(logical_shares(plan, epochs, e));
  }
  if (solver != Phase1Solver::kNone)
    for (const EpochAllocation& epoch : epochs) out.epoch_lp_status.push_back(epoch.status);
  out.admissions = plan.admissions;
}

void collect_ctrl(const Network& net, RunResult& out) {
  static_cast<CtrlAgentStats&>(out.ctrl) = net.ctrl_totals();
  for (const auto& stack : net.stacks) out.ctrl.ctrl_frames += stack->mac().stats().ctrl_sent;
  const FlowSet& flows = net.plan.flows;
  for (const Network::InbandRound& r : net.inband_rounds)
    out.admissions[r.admission].inband =
        net.agents[static_cast<size_t>(flows.flow(r.flow).source())]->inband_admission(r.flow);
  out.ctrl.applied_subflow_share.resize(static_cast<size_t>(flows.subflow_count()));
  for (int s = 0; s < flows.subflow_count(); ++s) {
    const TagScheduler* sched = net.tag_scheds[static_cast<size_t>(flows.subflow(s).src)];
    out.ctrl.applied_subflow_share[static_cast<size_t>(s)] =
        sched != nullptr ? sched->share_of(s) : 0.0;
  }
}

RunResult collect(Network& net, Observers& observers) {
  const RunPlan& plan = net.plan;
  const TrafficStats& stats = net.stats;
  if (plan.multi()) net.close_epoch();  // close the final epoch
  // Close the conservation ledger against what is still buffered.
  if (net.check != nullptr) {
    std::vector<int> backlog;
    for (const auto& stack : net.stacks) backlog.push_back(stack->backlog());
    net.check->finalize(backlog, net.sim.now());
  }

  RunResult out;
  out.protocol = net.proto.protocol;
  out.sim_seconds = net.cfg.sim_seconds;
  collect_targets(plan, net.epochs, net.proto.phase1, out);
  for (int s = 0; s < plan.flows.subflow_count(); ++s) {
    out.delivered_per_subflow.push_back(stats.subflow(s).delivered);
    out.dropped_queue += stats.subflow(s).dropped_queue;
    out.dropped_mac += stats.subflow(s).dropped_mac;
  }
  out.total_end_to_end = stats.total_end_to_end();
  out.lost_packets = stats.total_lost();
  out.loss_ratio = stats.loss_ratio();
  out.channel = net.channel.stats();
  for (FlowId f = 0; f < plan.F; ++f) {
    out.end_to_end_per_flow.push_back(plan.deliveries(stats, static_cast<size_t>(f)));
    out.suspended_per_flow.push_back(stats.suspended(f));
    out.suspended_packets += stats.suspended(f);
    const auto& vs = plan.sim_flow_of[static_cast<size_t>(f)];
    if (vs.size() == 1) {
      out.mean_delay_s.push_back(stats.delay(f).mean());
      out.max_delay_s.push_back(stats.delay(f).max());
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
    out.mean_delay_s.push_back(n > 0 ? sum / static_cast<double>(n) : 0.0);
    out.max_delay_s.push_back(mx);
  }
  out.link_failures = net.link_failures;
  out.events_processed = net.sim.events_processed();
  if (net.elastic) {
    out.transport.acks_sent = net.ack->acks_sent();
    out.transport.acks_relayed = net.ack->acks_relayed();
    out.transport.acks_delivered = net.ack->acks_delivered();
    for (const auto& src : net.sources) out.transport.flows.push_back(src->telemetry());
  }
  out.epoch_end_to_end = std::move(net.epoch_e2e);
  out.recoveries = std::move(net.recoveries);
  observers.collect(out);
  if (net.proto.in_band) collect_ctrl(net, out);
  return out;
}

}  // namespace

RunResult run_scenario(const Scenario& sc, Protocol protocol, const SimConfig& cfg) {
  const ProtocolInfo& proto = protocol_info(protocol);
  // Everything before the event loop — planning, clique enumeration, the
  // phase-1 solves, stack wiring — accrues to the setup phase; the scope is
  // released just before the simulator starts running.
  auto setup_prof = std::make_unique<Profiler::Scope>(cfg.profile, Profiler::Phase::kSetup);
  const RunPlan plan = plan_run(sc, proto, cfg);
  const std::vector<EpochAllocation> epochs = allocate_epochs(plan, proto, cfg);
  const std::unique_ptr<Network> net = build_network(sc, plan, epochs, proto, cfg);
  Observers observers(*net);
  setup_prof.reset();
  {
    Profiler::Scope prof(cfg.profile, Profiler::Phase::kSim);
    net->sim.run_until(plan.horizon);
  }
  return collect(*net, observers);
}

}  // namespace e2efa
