// In-band control plane (src/ctrl): the shared knowledge helper matches a
// brute-force oracle, and on the paper's static topologies the distributed
// agents — exchanging real HELLO / CONSTRAINT / RATE frames over the
// simulated MAC — converge to the distributed_allocate() oracle allocation
// within the acceptance tolerance, with sensible control-overhead
// accounting along the way — and convergence time, overhead and
// re-convergence after an arrival stay within 10% of recorded baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "alloc/knowledge.hpp"
#include "ctrl/messages.hpp"
#include "net/runner.hpp"
#include "net/scenario_gen.hpp"
#include "net/scenarios.hpp"
#include "obs/trace.hpp"
#include "route/routing.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace e2efa {
namespace {

// Brute-force Own(v): rescan every (node, subflow) pair with interferes()
// point queries — the O(nodes x subflows) definition the shared helper
// replaced. Both the oracle and the agents must agree with it exactly.
std::vector<std::vector<int>> brute_force_own(const Topology& topo,
                                              const FlowSet& flows) {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(topo.node_count()));
  for (NodeId v = 0; v < topo.node_count(); ++v)
    for (int s = 0; s < flows.subflow_count(); ++s) {
      const Subflow& sf = flows.subflow(s);
      if (sf.src == v || sf.dst == v || topo.interferes(v, sf.src) ||
          topo.interferes(v, sf.dst))
        out[static_cast<std::size_t>(v)].push_back(s);
    }
  return out;
}

TEST(CtrlKnowledge, OverheardSetsMatchBruteForce) {
  for (Scenario sc : {scenario1(), scenario2()}) {
    SCOPED_TRACE(sc.name);
    FlowSet flows(sc.topo, sc.flow_specs);
    EXPECT_EQ(overheard_subflow_sets(sc.topo, flows),
              brute_force_own(sc.topo, flows));
  }
  // A denser random placement exercises shared hearers and duplicates.
  Rng rng(99);
  Topology topo = make_random(12, 600.0, 600.0, rng);
  Scenario sc{"random12", topo, {}, {}};
  sc.flow_specs.push_back(make_routed_flow(sc.topo, 0, 11));
  sc.flow_specs.push_back(make_routed_flow(sc.topo, 3, 8));
  FlowSet flows(sc.topo, sc.flow_specs);
  EXPECT_EQ(overheard_subflow_sets(sc.topo, flows),
            brute_force_own(sc.topo, flows));
}

// Brute-force K(v): Own(v) and every neighbor's Own heard through the
// mask, merged through a std::set.
std::vector<std::vector<int>> brute_force_exchange(const Topology& topo,
                                                   const std::vector<std::vector<int>>& own,
                                                   const TopologyMask* mask) {
  std::vector<std::vector<int>> out;
  for (NodeId v = 0; v < topo.node_count(); ++v) {
    std::set<int> k(own[static_cast<std::size_t>(v)].begin(), own[static_cast<std::size_t>(v)].end());
    for (NodeId u : topo.neighbors(v))
      if (mask == nullptr || (mask->node_alive(u) && mask->link_alive(v, u)))
        k.insert(own[static_cast<std::size_t>(u)].begin(), own[static_cast<std::size_t>(u)].end());
    out.emplace_back(k.begin(), k.end());
  }
  return out;
}

TEST(CtrlKnowledge, ExchangedSetsMatchSetUnion) {
  GenConfig gen;
  gen.min_nodes = gen.max_nodes = 150;
  gen.min_flows = gen.max_flows = 20;
  gen.max_hops = 3;
  gen.p_faults = 0.0;
  gen.p_loss = 0.0;
  gen.density_m = 160.0;
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    const Scenario sc = generate_scenario(seed, gen);
    const FlowSet flows(sc.topo, sc.flow_specs);
    const auto own = overheard_subflow_sets(sc.topo, flows);
    EXPECT_EQ(exchanged_knowledge(sc.topo, own), brute_force_exchange(sc.topo, own, nullptr));
    // A crashed node and a cut link: neither is heard across any more.
    TopologyMask mask;
    mask.node_up.assign(static_cast<std::size_t>(sc.topo.node_count()), true);
    mask.node_up[3] = false;
    const NodeId b = sc.topo.neighbors(0).front();
    mask.down_links.emplace_back(std::min<NodeId>(0, b), std::max<NodeId>(0, b));
    EXPECT_EQ(exchanged_knowledge(sc.topo, own, &mask), brute_force_exchange(sc.topo, own, &mask));
  }
}

TEST(CtrlMessages, WireBytesCountPayload) {
  CtrlMsg hello;
  hello.kind = CtrlMsg::Kind::kHello;
  const int base = hello.wire_bytes();
  EXPECT_GT(base, 0);
  hello.subflows = {1, 2, 3};
  EXPECT_EQ(hello.wire_bytes(), base + 3 * 2);

  CtrlMsg rate;
  rate.kind = CtrlMsg::Kind::kRate;
  EXPECT_GT(rate.wire_bytes(), base);  // carries the 8-byte share

  CtrlMsg constraint;
  constraint.kind = CtrlMsg::Kind::kConstraint;
  constraint.cliques = {{0, 1}, {2, 3, 4}};
  EXPECT_EQ(constraint.wire_bytes(), base + (1 + 2 * 2) + (1 + 3 * 2));
}

// Asserts the final applied lane shares are within `tol` (relative) of the
// oracle targets for every subflow.
void expect_shares_at_oracle(const RunResult& r, double tol) {
  ASSERT_TRUE(r.has_target);
  ASSERT_EQ(r.ctrl.applied_subflow_share.size(), r.target_subflow_share.size());
  for (std::size_t s = 0; s < r.target_subflow_share.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_NEAR(r.ctrl.applied_subflow_share[s], r.target_subflow_share[s],
                tol * r.target_subflow_share[s]);
  }
}

// Runs the in-band protocol and asserts it converged to the oracle shares.
void expect_converged(const Scenario& sc, double seconds, double tol,
                      std::uint64_t seed) {
  SimConfig cfg;
  cfg.sim_seconds = seconds;
  cfg.seed = seed;
  const RunResult r = run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);

  expect_shares_at_oracle(r, tol);
  // The allocation actually travelled the channel: every source solved at
  // least once, frames went on air, payloads were decoded.
  EXPECT_GE(r.ctrl.solves, static_cast<std::uint64_t>(sc.flow_specs.size()));
  EXPECT_GT(r.ctrl.ctrl_frames, 0u);
  EXPECT_GT(r.ctrl.ctrl_bytes, 0u);
  EXPECT_GT(r.ctrl.msgs_received, 0u);
  EXPECT_GT(r.ctrl.hello_sent, 0u);
  EXPECT_GT(r.ctrl.constraint_sent, 0u);
  EXPECT_GT(r.ctrl.rate_sent, 0u);
  // A static topology (no faults, churn or mobility) runs the lean,
  // unhardened protocol: every hardened-mode counter stays at zero.
  EXPECT_EQ(r.ctrl.admit_req_sent, 0u);
  EXPECT_EQ(r.ctrl.admit_rsp_sent, 0u);
  EXPECT_EQ(r.ctrl.retransmits, 0u);
  EXPECT_EQ(r.ctrl.seq_gaps, 0u);
  EXPECT_EQ(r.ctrl.stale_dropped, 0u);
  EXPECT_EQ(r.ctrl.forced_solves, 0u);
}

// Acceptance: table-1 topologies, converged in-band shares within 5% of the
// distributed_allocate() oracle. The converged state must be exact share
// equality in practice (same solve_local_problem code path once knowledge
// quiesces), so 5% is generous headroom for the tolerance clause.
TEST(CtrlInBand, ConvergesToOracleOnScenario1) {
  expect_converged(scenario1(), 10.0, 0.05, 1);
}

TEST(CtrlInBand, ConvergesToOracleOnScenario2) {
  expect_converged(scenario2(), 15.0, 0.05, 1);
}

TEST(CtrlInBand, ConvergenceIsSeedRobust) {
  for (std::uint64_t seed : {2ull, 7ull, 23ull}) {
    SCOPED_TRACE(seed);
    expect_converged(scenario1(), 10.0, 0.05, seed);
  }
}

// scenario1 with F2 (D -> E -> F) arriving at t = 3 s through the admission
// gate: the smallest topology where an arrival forces the hardened control
// plane to re-solve and re-converge mid-run.
Scenario scenario1_churn() {
  Scenario sc = scenario1();
  sc.name = "scenario1-churn";
  sc.activity.assign(sc.flow_specs.size(), FlowActivity{});
  sc.activity[1].start_s = 3.0;
  return sc;
}

// Recorded figures at 12 s, seed 1 — simulation-deterministic, so each
// bound only moves when the protocol does. convergence_s is the last
// instant any lane share changed (kCtrlRate records); overhead_ratio is
// control wire bytes over delivered per-hop payload bytes; reconv_s is the
// worst post-arrival re-convergence time (0 for the static cases).
struct CtrlBaseline {
  Scenario sc;
  double convergence_s;
  double overhead_ratio;
  double reconv_s;
};

TEST(CtrlInBand, ConvergenceOverheadAndReconvergenceWithinBaselines) {
  const CtrlBaseline kBaselines[] = {
      {scenario1(), 0.82, 0.0024, 0.0},
      {scenario2(), 1.42, 0.0028, 0.0},
      {scenario1_churn(), 3.82, 0.0024, 0.90},
  };
  constexpr double kTolerance = 0.10;
  for (const CtrlBaseline& base : kBaselines) {
    SCOPED_TRACE(base.sc.name);
    SimConfig cfg;
    cfg.sim_seconds = 12.0;
    cfg.seed = 1;
    TraceSink sink;  // in-memory
    sink.set_filter(trace_bit(TraceCat::kCtrl));
    cfg.trace = &sink;
    const RunResult r = run_scenario(base.sc, Protocol::k2paDistributedCtrl, cfg);

    double convergence_s = 0.0;
    for (const TraceRecord& rec : sink.records())
      if (rec.event() == TraceEvent::kCtrlRate)
        convergence_s = std::max(convergence_s, to_seconds(rec.t));
    std::int64_t delivered = 0;
    for (std::int64_t d : r.delivered_per_subflow) delivered += d;
    ASSERT_GT(delivered, 0);
    const double overhead_ratio =
        static_cast<double>(r.ctrl.ctrl_bytes) /
        static_cast<double>(delivered * cfg.payload_bytes);
    EXPECT_LE(convergence_s, base.convergence_s * (1.0 + kTolerance));
    EXPECT_LE(overhead_ratio, base.overhead_ratio * (1.0 + kTolerance));

    // A static run ends on its only epoch's oracle; a churn run's in-run
    // sampler checked every epoch against that epoch's own oracle.
    ASSERT_EQ(r.reconv_s.empty(), base.reconv_s == 0.0);
    if (r.reconv_s.empty()) {
      expect_shares_at_oracle(r, 0.05);
    } else {
      for (std::size_t e = 0; e < r.reconv_s.size(); ++e) {
        EXPECT_GE(r.reconv_s[e], 0.0) << "epoch " << e << " never re-converged";
        if (e > 0) {
          EXPECT_LE(r.reconv_s[e], base.reconv_s * (1.0 + kTolerance))
              << "epoch " << e;
        }
      }
    }
  }
}

// The control plane's wire cost is visible in the periodic metrics: the
// ctrl columns fill for 2pa-dctrl and stay zero for protocols without a
// control plane.
TEST(CtrlInBand, ControlOverheadMetrics) {
  Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  cfg.metrics_period_seconds = 1.0;

  const RunResult r = run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);
  ASSERT_FALSE(r.metrics.samples.empty());
  double total_ctrl_bytes = 0.0;
  for (const MetricsSample& s : r.metrics.samples) total_ctrl_bytes += s.ctrl_bytes;
  EXPECT_GT(total_ctrl_bytes, 0.0);
  const MetricsSample& last = r.metrics.samples.back();
  EXPECT_GT(last.ctrl_overhead, 0.0);
  // Control must be a small fraction of the data traffic, not dominate it.
  EXPECT_LT(last.ctrl_overhead, 0.25);

  const RunResult base = run_scenario(sc, Protocol::k2paDistributed, cfg);
  for (const MetricsSample& s : base.metrics.samples) {
    EXPECT_EQ(s.ctrl_bytes, 0.0);
    EXPECT_EQ(s.ctrl_overhead, 0.0);
  }
}

// Protocols without a control plane report an all-zero CtrlSummary — the
// counters only ever move when agents exist.
TEST(CtrlInBand, SummaryEmptyForOtherProtocols) {
  Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 2.0;
  const RunResult r = run_scenario(sc, Protocol::k2paDistributed, cfg);
  EXPECT_EQ(r.ctrl, RunResult::CtrlSummary{});
}

}  // namespace
}  // namespace e2efa
