// Randomized scenario fuzzer with differential protocol oracles.
//
// Each iteration draws a seeded random scenario (geometric topology,
// weighted multi-hop flows, optional fault plan / loss model, and — by
// default — open-loop flow churn, random-waypoint mobility, and a share
// of elastic AIMD/BBR transports; --no-churn / --no-transport turn the
// dynamics off), runs it under the three 2PA protocol variants with every
// invariant oracle from src/check enabled (including the admission-safety,
// no-stale-rate, and transport oracles where they apply), and — for
// fault-free, loss-free, churn-free, open-loop scenarios — cross checks
// the runs against each other and against the fluid model:
//
//   invariant:*      any CheckContext violation (MAC, conservation,
//                    scheduler, queue, phase-1 post-solve)
//   differential:fluid      total measured goodput exceeds the fluid-model
//                           prediction of the run's own allocation by more
//                           than the accuracy envelope documented in
//                           src/net/fluid.hpp
//   differential:ctrl       per-flow goodput of the in-band control plane
//                           (2pa-dctrl) diverges from oracle-pushed 2pa-d
//   differential:oracle     per-flow goodput of 2pa-d diverges from the
//                           centralized solve (when it is feasible)
//   differential:admission  the distributed admission gate admits an
//                           arrival the centralized oracle twin rejects
//                           (the gate must be as strict or stricter)
//   crash            any unexpected exception out of run_scenario
//
// A failing scenario is greedily shrunk (drop flows, truncate paths, drop
// faults/loss, fall back to CBR, strip unused nodes, halve the horizon)
// while it still
// reproduces the same failure signature, then written as a replayable
// scenario file with a `# fuzz:` header; --repro replays such a file.
//
// --inject-bug arms the deliberate off-by-one queue-capacity oracle
// (CheckConfig::queue_capacity_override = capacity - 1): a *correct* stack
// then trips the queue invariant, proving the find-shrink-replay pipeline
// end to end. Paired with --expect-violation for the self-test.
//
// Exit codes: 0 = clean (or, with --expect-violation, a violation was
// found and shrunk), 1 = violations found (or expected one and found
// none), 2 = usage / IO error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "contention/contention_graph.hpp"
#include "ctrl/admission.hpp"
#include "net/cli.hpp"
#include "net/fluid.hpp"
#include "net/runner.hpp"
#include "net/scenario_file.hpp"
#include "net/scenario_gen.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace e2efa {
namespace {

// Differential tolerances. The fluid model's documented envelope is "within
// ~5% lightly loaded, 65-80% of prediction saturated" — measured goodput
// sits *below* the prediction, so exceeding it by 20% + slack is a bug.
// Cross-protocol flow rates track each other loosely (different phase-1
// relaxations, convergence transients), hence the wide relative band plus
// an absolute floor that keeps tiny flows from tripping on quantization.
constexpr double kFluidHeadroom = 1.20;
constexpr double kFluidSlackPps = 20.0;
constexpr double kCrossRel = 0.45;
constexpr double kCrossSlackPps = 25.0;

const Protocol kProtocols[] = {Protocol::k2paCentralized,
                               Protocol::k2paDistributed,
                               Protocol::k2paDistributedCtrl};

struct Options {
  std::uint64_t seed = 1;
  int iters = 200;
  double seconds = 3.0;
  double warmup = 2.0;
  bool shrink = false;
  bool inject_bug = false;
  bool expect_violation = false;
  bool quiet = false;
  int max_failures = 5;
  /// Synthetic-scale mode: pin the node / flow count instead of the
  /// paper-sized defaults, with bounded-hop routing so 1k+-node scenarios
  /// generate without quadratic setup. 0 = default GenConfig ranges.
  int nodes = 0;
  int flows = 0;
  /// Open-loop dynamics are generated by default; --no-churn pins the
  /// fuzzer back to static flow sets and frozen topologies.
  bool no_churn = false;
  /// Elastic transports (AIMD / BBR) are drawn for a share of scenarios by
  /// default; --no-transport pins every source back to open-loop CBR.
  bool no_transport = false;
  std::string out_dir = ".";
  std::string repro;  ///< When set, replay this file instead of fuzzing.
};

/// Everything besides the Scenario that a case needs to reproduce.
struct CaseConfig {
  double seconds = 3.0;
  double warmup = 2.0;
  std::uint64_t sim_seed = 1;
  bool inject_bug = false;
  /// 0 = default oracle envelope. Synthetic-scale runs (--nodes) widen the
  /// distributed clique envelope: at city scale many sources tile one
  /// clique with disjoint knowledge horizons, so the protocol's by-design
  /// oversubscription exceeds the paper-scale calibration (worst observed
  /// at 1k-2k nodes: ~2.13 vs 1.46 at paper scale).
  double clique_envelope = 0.0;
};

struct Failure {
  std::string kind;  ///< "invariant:<cat>" | "differential:<id>" | "crash".
  Protocol protocol = Protocol::k2paDistributed;
  std::string message;
};

/// Two failures shrink-match when the same oracle fires for the same
/// protocol; messages (node ids, magnitudes) may legitimately drift.
bool same_signature(const Failure& a, const Failure& b) {
  return a.kind == b.kind && a.protocol == b.protocol;
}

/// First informative line of a failure message (check reports open with a
/// "N invariant violation(s):" banner; skip it).
std::string summary_line(const std::string& message) {
  std::istringstream in(message);
  std::string line, first;
  while (std::getline(in, line)) {
    if (first.empty()) first = line;
    if (line.find("violation(s):") == std::string::npos && !line.empty())
      return line;
  }
  return first;
}

SimConfig make_sim_config(const CaseConfig& cc, CheckContext* check) {
  SimConfig sim;
  sim.sim_seconds = cc.seconds;
  sim.warmup_seconds = cc.warmup;
  sim.seed = cc.sim_seed;
  // The injected bug wants congested queues fast; a small capacity makes
  // any backlogged hop reach it within the shortened horizon.
  if (cc.inject_bug) sim.queue_capacity = 5;
  sim.check = check;
  return sim;
}

CheckConfig make_check_config(const CaseConfig& cc) {
  CheckConfig cfg;
  if (cc.inject_bug) cfg.queue_capacity_override = 5 - 1;
  if (cc.clique_envelope > 0.0) cfg.distributed_clique_envelope = cc.clique_envelope;
  return cfg;
}

double flow_pps(const RunResult& r, int f) {
  return static_cast<double>(r.end_to_end_per_flow[f]) /
         std::max(r.sim_seconds, 1e-9);
}

/// Runs one scenario under all protocols + differential oracles. Returns
/// the first failure, or nullopt when everything holds. When `flight` is
/// non-null, a flight-recorder ring rides every run and the records leading
/// up to an invariant violation or crash are copied out (empty when the
/// failure is a post-run differential, which has no single trigger instant).
std::optional<Failure> run_case(const Scenario& sc, const CaseConfig& cc,
                                std::vector<TraceRecord>* flight = nullptr) {
  // Offline admission-gate differential (cheap — no packet sim): replay the
  // arrival sequence with the distributed gate deciding, and demand the
  // soundness property at every step — the distributed gate works from
  // per-node partial knowledge with local denominators, so it may reject a
  // flow the global oracle would admit but must NEVER admit one the oracle
  // rejects. Both gates run unmasked: under partitions the gates can
  // legitimately disagree in either direction (a hidden flow is invisible
  // by design), so strictness is only a theorem on the full topology.
  if (!sc.activity.empty()) {
    const FlowSet logical(sc.topo, sc.flow_specs);
    const ContentionGraph gate_graph(sc.topo, logical);
    const FlowId F = logical.flow_count();
    std::vector<std::pair<double, FlowId>> arrivals;
    for (FlowId f = 0; f < F; ++f)
      if (sc.activity[static_cast<std::size_t>(f)].start_s > 0.0)
        arrivals.emplace_back(sc.activity[static_cast<std::size_t>(f)].start_s, f);
    std::sort(arrivals.begin(), arrivals.end());
    std::vector<char> admitted(static_cast<std::size_t>(F), 1);
    for (const auto& [t, f] : arrivals) {
      std::vector<char> present(static_cast<std::size_t>(F), 0);
      for (FlowId j = 0; j < F; ++j) {
        if (j == f || !admitted[static_cast<std::size_t>(j)]) continue;
        const FlowActivity& w = sc.activity[static_cast<std::size_t>(j)];
        if (w.start_s <= t && t < w.stop_s) present[static_cast<std::size_t>(j)] = 1;
      }
      const AdmissionDecision dist = admission_check_distributed(
          sc.topo, logical, gate_graph, present, f);
      const AdmissionDecision cent =
          admission_check_centralized(logical, gate_graph, present, f);
      if (dist.admitted && !cent.admitted)
        return Failure{
            "differential:admission", Protocol::k2paDistributed,
            strformat("flow %d at t=%.3f: distributed gate admits (local "
                      "load %.6f) but centralized oracle rejects (load %.6f)",
                      f, t, dist.worst_load, cent.worst_load)};
      admitted[static_cast<std::size_t>(f)] = dist.admitted ? 1 : 0;
    }
  }

  std::map<Protocol, RunResult> results;
  for (Protocol proto : kProtocols) {
    CheckContext check(make_check_config(cc));
    SimConfig sim = make_sim_config(cc, &check);
    // Flight recorder: bounded ring, snapshotted at the first violation.
    // Tracing is strictly passive, so arming it cannot change the verdict.
    TraceSink ring;
    if (flight != nullptr) {
      ring.set_ring(1u << 12);
      sim.trace = &ring;
      check.arm_flight_recorder(&ring);
    }
    try {
      results.emplace(proto, run_scenario(sc, proto, sim));
    } catch (const ContractViolation& e) {
      // Random weighted topologies can over-constrain the centralized
      // solve (basic shares alone exceed a clique); that family throws by
      // contract, so it is a skip, not a finding. The distributed variants
      // relax floors locally and must never throw for this reason.
      if (proto == Protocol::k2paCentralized &&
          std::string(e.what()).find("infeasible") != std::string::npos)
        continue;
      if (flight != nullptr) *flight = ring.recent_records();
      return Failure{"crash", proto, e.what()};
    } catch (const std::exception& e) {
      if (flight != nullptr) *flight = ring.recent_records();
      return Failure{"crash", proto, e.what()};
    }
    if (!check.ok()) {
      if (flight != nullptr) *flight = check.flight_records();
      std::string kind = "invariant:";
      kind += check.violations().empty()
                  ? "unknown"
                  : to_string(check.violations().front().category);
      return Failure{std::move(kind), proto, check.report()};
    }
  }

  // Differential oracles only make sense on deterministic-fate scenarios:
  // faults suspend flows, loss erodes goodput, churn/mobility cut the
  // measurement window into epochs with per-boundary transients, and
  // elastic transports shape their own offered load — none of which the
  // references below model. The injected bug is about the invariant
  // pipeline.
  if (!sc.faults.empty() || !sc.activity.empty() || !sc.mobility.empty() ||
      sc.transport != TransportKind::kCbr || cc.inject_bug)
    return std::nullopt;

  const SimConfig defaults;
  MacConfig mac;
  mac.retry_limit = defaults.retry_limit;
  FlowSet flows(sc.topo, sc.flow_specs);

  for (const auto& [proto, r] : results) {
    if (!r.has_target) continue;
    // The fluid upper bound is only sound for the centralized solve: it
    // maximizes total throughput, so its prediction caps what any run can
    // deliver. The distributed family may *under*-subscribe the network
    // (partial knowledge), and the work-conserving tag scheduler then
    // legitimately reclaims the unallocated airtime past the prediction.
    if (proto != Protocol::k2paCentralized) continue;
    const Allocation alloc =
        make_subflow_allocation(flows, r.target_subflow_share);
    const FluidPrediction fluid =
        fluid_predict(flows, alloc, defaults.cbr_pps, defaults.payload_bytes,
                      mac, defaults.channel_bps, defaults.cw_min);
    double measured = 0.0;
    for (int f = 0; f < flows.flow_count(); ++f) measured += flow_pps(r, f);
    const double bound = fluid.total_flow_rate * kFluidHeadroom + kFluidSlackPps;
    if (measured > bound)
      return Failure{
          "differential:fluid", proto,
          strformat("total goodput %.1f pkt/s exceeds fluid prediction "
                    "%.1f pkt/s (bound %.1f)",
                    measured, fluid.total_flow_rate, bound)};
  }

  auto cross = [&](Protocol pa, Protocol pb,
                   const char* id) -> std::optional<Failure> {
    const auto a = results.find(pa);
    const auto b = results.find(pb);
    if (a == results.end() || b == results.end()) return std::nullopt;
    for (int f = 0; f < flows.flow_count(); ++f) {
      const double ra = flow_pps(a->second, f);
      const double rb = flow_pps(b->second, f);
      const double tol = kCrossRel * std::max(ra, rb) + kCrossSlackPps;
      if (std::abs(ra - rb) > tol)
        return Failure{std::string("differential:") + id, pb,
                       strformat("flow %d: %.1f pkt/s under %s vs %.1f pkt/s "
                                 "under %s (tolerance %.1f)",
                                 f, ra, to_string(pa), rb, to_string(pb), tol)};
    }
    return std::nullopt;
  };
  // Only in-band vs oracle-pushed: both run the *same* distributed
  // algorithm, so converged rates must agree. Centralized-vs-distributed is
  // deliberately NOT compared — the partial-knowledge solve can genuinely
  // allocate individual flows multiples more or less than the global LP on
  // random topologies (that gap is a property of Sec. IV-B, not a bug).
  //
  // The rate comparison is gated on the control plane having actually
  // converged by the end of the run (its final applied lane shares match
  // the oracle targets): share distribution along a long congested path can
  // take several simulated seconds, and rates measured mid-transient
  // diverge by design. Convergence itself on fixed topologies is covered
  // by ctrl_test; every invariant oracle still ran on the run above.
  const auto dc = results.find(Protocol::k2paDistributedCtrl);
  bool converged = dc != results.end();
  if (converged) {
    const RunResult& r = dc->second;
    converged = r.ctrl.applied_subflow_share.size() ==
                r.target_subflow_share.size();
    for (std::size_t s = 0; converged && s < r.target_subflow_share.size(); ++s)
      converged = std::abs(r.ctrl.applied_subflow_share[s] -
                           r.target_subflow_share[s]) <=
                  0.1 * r.target_subflow_share[s] + 0.02;
  }
  // Applied shares match the oracle, but *rates* converge only after the
  // transient backlog drains: a flow whose mean end-to-end delay rivals
  // the warmup was still clearing pre-convergence queues during the
  // measurement window, and its neighbors were reclaiming the airtime it
  // wasn't using — both legitimately off their steady-state rates. (A
  // fully starved flow delivers nothing and reads delay 0, so genuine
  // control-plane starvation still fails the comparison below.)
  if (converged) {
    for (Protocol p :
         {Protocol::k2paDistributed, Protocol::k2paDistributedCtrl}) {
      const auto it = results.find(p);
      if (it == results.end()) continue;
      for (double d : it->second.mean_delay_s)
        if (d > 0.5 * cc.warmup) converged = false;
    }
  }
  if (converged) {
    if (auto f = cross(Protocol::k2paDistributed,
                       Protocol::k2paDistributedCtrl, "ctrl"))
      return f;
  }
  return std::nullopt;
}

// ---- Greedy shrinking ----------------------------------------------------

/// Rebuilds the scenario keeping only the nodes some flow, fault event, or
/// loss rule still references. Positions (hence links between kept nodes)
/// and labels are preserved, so explicit flow paths stay valid.
std::optional<Scenario> drop_unused_nodes(const Scenario& sc) {
  std::set<NodeId> used;
  for (const Flow& f : sc.flow_specs) used.insert(f.path.begin(), f.path.end());
  for (const FaultEvent& e : sc.faults.events()) {
    used.insert(e.node);
    if (e.peer != kInvalidNode) used.insert(e.peer);
  }
  for (const LossRule& r : sc.faults.loss_rules()) {
    used.insert(r.a);
    used.insert(r.b);
  }
  for (const MobilitySpec& m : sc.mobility) used.insert(m.node);
  if (static_cast<int>(used.size()) >= sc.topo.node_count()) return std::nullopt;

  std::vector<NodeId> remap(sc.topo.node_count(), kInvalidNode);
  std::vector<Point> positions;
  std::vector<std::string> labels;
  for (NodeId n : used) {
    remap[n] = static_cast<NodeId>(positions.size());
    positions.push_back(sc.topo.position(n));
    labels.push_back(sc.topo.label(n));
  }
  Topology topo(std::move(positions), sc.topo.tx_range(),
                sc.topo.interference_range() != sc.topo.tx_range()
                    ? std::optional<double>(sc.topo.interference_range())
                    : std::nullopt);
  topo.set_labels(labels);

  Scenario out{sc.name, std::move(topo), {}, {}, {}, {}};
  for (const Flow& f : sc.flow_specs) {
    Flow g;
    g.weight = f.weight;
    for (NodeId n : f.path) g.path.push_back(remap[n]);
    out.flow_specs.push_back(std::move(g));
  }
  for (const FaultEvent& e : sc.faults.events()) {
    switch (e.kind) {
      case FaultEvent::Kind::kNodeDown:
        out.faults.node_down(remap[e.node], e.at_s);
        break;
      case FaultEvent::Kind::kNodeUp:
        out.faults.node_up(remap[e.node], e.at_s);
        break;
      case FaultEvent::Kind::kLinkDown:
        out.faults.link_down(remap[e.node], remap[e.peer], e.at_s);
        break;
      case FaultEvent::Kind::kLinkUp:
        out.faults.link_up(remap[e.node], remap[e.peer], e.at_s);
        break;
    }
  }
  for (const LossRule& r : sc.faults.loss_rules())
    out.faults.set_loss(remap[r.a], remap[r.b], r.per);
  if (sc.faults.default_loss() > 0.0)
    out.faults.set_default_loss(sc.faults.default_loss());
  out.transport = sc.transport;
  out.activity = sc.activity;  // per-flow ordinals, unaffected by node remap
  for (const MobilitySpec& m : sc.mobility) {
    MobilitySpec g = m;
    g.node = remap[m.node];
    out.mobility.push_back(g);
  }
  return out;
}

FaultPlan copy_without_events(const FaultPlan& plan) {
  FaultPlan out;
  for (const LossRule& r : plan.loss_rules()) out.set_loss(r.a, r.b, r.per);
  if (plan.default_loss() > 0.0) out.set_default_loss(plan.default_loss());
  return out;
}

FaultPlan copy_without_loss(const FaultPlan& plan) {
  FaultPlan out;
  for (const FaultEvent& e : plan.events()) {
    switch (e.kind) {
      case FaultEvent::Kind::kNodeDown: out.node_down(e.node, e.at_s); break;
      case FaultEvent::Kind::kNodeUp: out.node_up(e.node, e.at_s); break;
      case FaultEvent::Kind::kLinkDown: out.link_down(e.node, e.peer, e.at_s); break;
      case FaultEvent::Kind::kLinkUp: out.link_up(e.node, e.peer, e.at_s); break;
    }
  }
  return out;
}

struct ShrinkResult {
  Scenario sc;
  CaseConfig cc;
  int runs_spent = 0;
};

/// Greedily applies size-reducing edits while the same failure signature
/// still reproduces. Each accepted edit restarts the candidate sweep, so
/// the loop terminates at a local minimum (every single edit now loses the
/// failure).
ShrinkResult shrink_case(Scenario sc, CaseConfig cc, const Failure& orig) {
  int runs = 0;
  auto still_fails = [&](const Scenario& s, const CaseConfig& c) {
    ++runs;
    const auto f = run_case(s, c);
    return f.has_value() && same_signature(*f, orig);
  };

  bool progress = true;
  while (progress) {
    progress = false;

    // Drop one flow (keep at least one); its activity window goes with it.
    for (std::size_t i = 0; sc.flow_specs.size() > 1 && i < sc.flow_specs.size();
         ++i) {
      Scenario cand = sc;
      cand.flow_specs.erase(cand.flow_specs.begin() + i);
      if (!cand.activity.empty()) {
        cand.activity.erase(cand.activity.begin() + static_cast<long>(i));
        if (all_default_activity(cand.activity)) cand.activity.clear();
      }
      if (still_fails(cand, cc)) {
        sc = std::move(cand);
        progress = true;
        break;
      }
    }
    if (progress) continue;

    // Drop the churn windows / the mobility walks wholesale.
    if (!sc.activity.empty()) {
      Scenario cand = sc;
      cand.activity.clear();
      if (still_fails(cand, cc)) {
        sc = std::move(cand);
        progress = true;
        continue;
      }
    }
    if (!sc.mobility.empty()) {
      Scenario cand = sc;
      cand.mobility.clear();
      if (still_fails(cand, cc)) {
        sc = std::move(cand);
        progress = true;
        continue;
      }
    }

    // Fall back from an elastic transport to open-loop CBR.
    if (sc.transport != TransportKind::kCbr) {
      Scenario cand = sc;
      cand.transport = TransportKind::kCbr;
      if (still_fails(cand, cc)) {
        sc = std::move(cand);
        progress = true;
        continue;
      }
    }

    // Truncate one flow to its first hop.
    for (std::size_t i = 0; i < sc.flow_specs.size(); ++i) {
      if (sc.flow_specs[i].path.size() <= 2) continue;
      Scenario cand = sc;
      cand.flow_specs[i].path.resize(2);
      if (still_fails(cand, cc)) {
        sc = std::move(cand);
        progress = true;
        break;
      }
    }
    if (progress) continue;

    // Drop the fault schedule / the loss model wholesale.
    if (!sc.faults.events().empty()) {
      Scenario cand = sc;
      cand.faults = copy_without_events(sc.faults);
      if (still_fails(cand, cc)) {
        sc = std::move(cand);
        progress = true;
        continue;
      }
    }
    if (sc.faults.has_loss()) {
      Scenario cand = sc;
      cand.faults = copy_without_loss(sc.faults);
      if (still_fails(cand, cc)) {
        sc = std::move(cand);
        progress = true;
        continue;
      }
    }

    // Strip nodes nothing references any more.
    if (auto cand = drop_unused_nodes(sc)) {
      if (still_fails(*cand, cc)) {
        sc = std::move(*cand);
        progress = true;
        continue;
      }
    }

    // Halve the horizon.
    if (cc.seconds > 1.0) {
      CaseConfig cand = cc;
      cand.seconds = std::max(1.0, cc.seconds / 2.0);
      if (still_fails(sc, cand)) {
        cc = cand;
        progress = true;
        continue;
      }
    }
  }
  return {std::move(sc), cc, runs};
}

// ---- Repro files ---------------------------------------------------------

std::string repro_text(const Scenario& sc, const CaseConfig& cc,
                       const Failure& f) {
  std::string out = strformat(
      "# fuzz: sim-seed=%llu seconds=%.17g warmup=%.17g inject-bug=%d\n",
      static_cast<unsigned long long>(cc.sim_seed), cc.seconds, cc.warmup,
      cc.inject_bug ? 1 : 0);
  out += strformat("# fuzz: failure=%s protocol=%s\n", f.kind.c_str(),
                   to_string(f.protocol));
  // Only one line of the (possibly multi-line) report, for context.
  out += "# fuzz: message=" + summary_line(f.message) + "\n";
  return out + serialize_scenario_text(sc);
}

/// Parses the `# fuzz:` header back out of a repro file (the scenario
/// parser ignores the lines as comments).
CaseConfig parse_repro_header(const std::string& text) {
  CaseConfig cc;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# fuzz:", 0) != 0) continue;
    std::istringstream fields(line.substr(7));
    std::string kv;
    while (fields >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = kv.substr(0, eq);
      const std::string val = kv.substr(eq + 1);
      if (key == "sim-seed") cc.sim_seed = std::strtoull(val.c_str(), nullptr, 10);
      else if (key == "seconds") cc.seconds = std::strtod(val.c_str(), nullptr);
      else if (key == "warmup") cc.warmup = std::strtod(val.c_str(), nullptr);
      else if (key == "inject-bug") cc.inject_bug = val != "0";
    }
  }
  return cc;
}

int replay_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "fuzz: cannot open repro file %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const CaseConfig cc = parse_repro_header(text);
  const Scenario sc = parse_scenario_text(text, path);
  const auto f = run_case(sc, cc);
  if (!f) {
    std::printf("repro %s: clean (%d nodes, %zu flows, %.3gs + %.3gs warmup)\n",
                path.c_str(), sc.topo.node_count(), sc.flow_specs.size(),
                cc.seconds, cc.warmup);
    return 0;
  }
  std::printf("repro %s: %s under %s\n%s\n", path.c_str(), f->kind.c_str(),
              to_string(f->protocol), f->message.c_str());
  return 1;
}

// ---- Driver --------------------------------------------------------------

int usage() {
  std::fprintf(
      stderr,
      "usage: fuzz [options]\n"
      "  --seed N         first scenario seed (default 1)\n"
      "  --iters N        scenarios to try (default 200)\n"
      "  --seconds T      measured seconds per run (default 3)\n"
      "  --warmup T       warmup seconds per run (default 2)\n"
      "  --shrink         shrink failures and write repro files\n"
      "  --out DIR        directory for repro files (default .)\n"
      "  --max-failures N stop after N failing scenarios (default 5)\n"
      "  --nodes N        synthetic scale: exactly N nodes per scenario\n"
      "  --flows N        synthetic scale: exactly N flows per scenario\n"
      "  --no-churn       disable flow-churn / mobility generation\n"
      "  --no-transport   pin every scenario to open-loop CBR sources\n"
      "  --inject-bug     arm the off-by-one queue-capacity oracle\n"
      "  --expect-violation  exit 0 iff a violation was found (self-test)\n"
      "  --repro FILE     replay one repro file and exit\n"
      "  --quiet          suppress per-iteration progress\n");
  return 2;
}

int run(const Options& opt) {
  if (!opt.repro.empty()) return replay_repro(opt.repro);

  CaseConfig cc;
  cc.seconds = opt.seconds;
  cc.warmup = opt.warmup;
  cc.inject_bug = opt.inject_bug;
  if (opt.nodes > 100) cc.clique_envelope = 3.0;

  GenConfig gen;
  gen.horizon_s = opt.seconds + opt.warmup;
  if (!opt.no_churn) {
    gen.p_churn = 0.35;
    gen.p_mobility = 0.25;
  }
  if (!opt.no_transport) gen.p_transport = 0.3;
  if (opt.nodes > 0) {
    gen.min_nodes = gen.max_nodes = opt.nodes;
    // Large topologies need bounded-hop routing: destination drawn from
    // the source's 4-hop ball, so setup stays O(nodes), and the incremental
    // clique / distributed paths still see multi-hop contention. They also
    // need denser placement — the paper-scale density gives mean degree ~4,
    // below the ln(n) connectivity threshold of large geometric graphs;
    // 130 m yields degree ~12, connected with high probability at 10k.
    if (opt.nodes > 100) {
      gen.max_hops = 4;
      gen.density_m = 130.0;
    }
  }
  if (opt.flows > 0) gen.min_flows = gen.max_flows = opt.flows;

  int failures = 0, skipped = 0;
  int min_nodes_seen = 0;
  for (int i = 0; i < opt.iters && failures < opt.max_failures; ++i) {
    const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(i);
    Scenario sc = [&] {
      try {
        return generate_scenario(seed, gen);
      } catch (const std::exception&) {
        ++skipped;  // Disconnected placement; practically never happens.
        return Scenario{"skip", Topology({{0, 0}, {1, 0}}, 250.0),
                        {}, {}, {}, {}};
      }
    }();
    if (sc.flow_specs.empty()) continue;

    auto fail = run_case(sc, cc);
    if (!opt.quiet && (i + 1) % 50 == 0)
      std::printf("fuzz: %d/%d scenarios, %d failure(s)\n", i + 1, opt.iters,
                  failures);
    if (!fail) continue;

    ++failures;
    std::printf("fuzz: seed %llu FAILED (%s under %s)\n  %s\n",
                static_cast<unsigned long long>(seed), fail->kind.c_str(),
                to_string(fail->protocol),
                summary_line(fail->message).c_str());
    if (!opt.shrink) continue;

    const ShrinkResult s = shrink_case(sc, cc, *fail);
    // Re-derive the (possibly shifted) failure message on the minimal case,
    // this time with the flight recorder armed so the dump rides along.
    std::vector<TraceRecord> flight;
    const auto final_fail = run_case(s.sc, s.cc, &flight);
    const Failure& rec = final_fail ? *final_fail : *fail;
    const std::string path =
        opt.out_dir + strformat("/fuzz-%llu.scn",
                                static_cast<unsigned long long>(seed));
    std::error_code ec;  // best effort; the open below reports failures
    std::filesystem::create_directories(opt.out_dir, ec);
    std::ofstream out(path);
    if (!out.good()) {
      std::fprintf(stderr, "fuzz: cannot write %s\n", path.c_str());
      return 2;
    }
    out << repro_text(s.sc, s.cc, rec);
    if (!flight.empty()) {
      const std::string dump =
          opt.out_dir + strformat("/fuzz-%llu.flight.trace",
                                  static_cast<unsigned long long>(seed));
      std::string dump_error;
      if (write_trace_file(flight, dump, TraceSink::Format::kBinary,
                           &dump_error))
        std::printf("  flight recorder: %zu records -> %s\n", flight.size(),
                    dump.c_str());
      else
        std::fprintf(stderr, "fuzz: %s\n", dump_error.c_str());
    }
    min_nodes_seen = min_nodes_seen == 0
                         ? s.sc.topo.node_count()
                         : std::min(min_nodes_seen, s.sc.topo.node_count());
    std::printf("  shrunk to %d nodes / %zu flow(s) in %d rerun(s) -> %s\n",
                s.sc.topo.node_count(), s.sc.flow_specs.size(), s.runs_spent,
                path.c_str());
  }

  std::printf("fuzz: done, %d failure(s) in %d scenario(s)%s\n", failures,
              opt.iters,
              skipped > 0 ? strformat(" (%d skipped)", skipped).c_str() : "");
  if (opt.expect_violation) {
    if (failures == 0) {
      std::fprintf(stderr, "fuzz: expected a violation but found none\n");
      return 1;
    }
    if (opt.shrink && min_nodes_seen > 5) {
      std::fprintf(stderr,
                   "fuzz: expected a shrunk repro with <= 5 nodes, smallest "
                   "had %d\n",
                   min_nodes_seen);
      return 1;
    }
    return 0;
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace e2efa

int main(int argc, char** argv) {
  using namespace e2efa;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (!v) return usage();
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--iters") {
      const char* v = next();
      if (!v) return usage();
      opt.iters = std::atoi(v);
    } else if (arg == "--seconds") {
      const char* v = next();
      if (!v) return usage();
      opt.seconds = std::atof(v);
    } else if (arg == "--warmup") {
      const char* v = next();
      if (!v) return usage();
      opt.warmup = std::atof(v);
    } else if (arg == "--nodes") {
      const char* v = next();
      if (!v) return usage();
      opt.nodes = std::atoi(v);
    } else if (arg == "--flows") {
      const char* v = next();
      if (!v) return usage();
      opt.flows = std::atoi(v);
    } else if (arg == "--max-failures") {
      const char* v = next();
      if (!v) return usage();
      opt.max_failures = std::atoi(v);
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return usage();
      opt.out_dir = v;
    } else if (arg == "--repro") {
      const char* v = next();
      if (!v) return usage();
      opt.repro = v;
    } else if (arg == "--no-churn") {
      opt.no_churn = true;
    } else if (arg == "--no-transport") {
      opt.no_transport = true;
    } else if (arg == "--shrink") {
      opt.shrink = true;
    } else if (arg == "--inject-bug") {
      opt.inject_bug = true;
    } else if (arg == "--expect-violation") {
      opt.expect_violation = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "fuzz: unknown option %s\n", arg.c_str());
      return usage();
    }
  }
  if (opt.iters <= 0 || opt.seconds <= 0 || opt.warmup < 0 ||
      opt.max_failures <= 0) {
    std::fprintf(stderr, "fuzz: invalid numeric option\n");
    return usage();
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz: fatal: %s\n", e.what());
    return 2;
  }
}
