// Fault injection & self-healing: node crashes partition flows (which must
// suspend, not crash the run), scheduled recoveries re-discover routes and
// re-converge the phase-1 allocation, link faults trigger route repair over
// the surviving topology, lossy channels degrade-but-deliver, and an
// over-constrained clique makes phase 1 throw instead of silently relaxing.
// Every faulted run must also be byte-identical across reruns and across
// BatchRunner thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lp/simplex.hpp"
#include "net/batch.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "route/routing.hpp"
#include "run_result_testing.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"

namespace e2efa {
namespace {

// Full-field RunResult equality (bitwise on doubles) comes from the shared
// run_result_testing.hpp helper: faulted runs must be identical, not
// merely close.

/// 3-node chain A-B-C with one flow A->B->C. Crashing B partitions the flow
/// outright: there is no repair route.
Scenario chain_scenario() {
  Scenario sc{"chain3", make_chain(3), {}, {}};
  sc.flow_specs.push_back(make_routed_flow(sc.topo, 0, 2));
  return sc;
}

/// Diamond A-B-D / A-C-D (no A-D, no B-C link): the provisioned route runs
/// through B and C is a physically redundant relay for route repair.
Scenario diamond_scenario() {
  Scenario sc{"diamond",
              Topology({{0, 0}, {200, 150}, {200, -150}, {400, 0}}, 250.0),
              {},
              {}};
  sc.topo.set_labels({"A", "B", "C", "D"});
  sc.flow_specs.push_back(make_routed_flow(sc.topo, 0, 3));
  return sc;
}

// The acceptance scenario: a mid-run relay crash partitions the flow, which
// suspends (no simulator crash, sources suppressed and counted); after the
// scheduled recovery the route is re-discovered and the re-converged
// allocation is back within 5% of the fault-free share.
TEST(Fault, NodeCrashSuspendsThenHeals) {
  Scenario sc = chain_scenario();
  sc.faults.node_down(1, 10.0);
  sc.faults.node_up(1, 30.0);

  SimConfig cfg;
  cfg.sim_seconds = 50.0;
  cfg.seed = 5;

  Scenario clean = chain_scenario();
  const RunResult base = run_scenario(clean, Protocol::k2paCentralized, cfg);
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);

  // Epochs at t = 0, crash, recovery; phase 1 re-solved at each.
  ASSERT_EQ(r.epoch_starts_s, (std::vector<double>{0.0, 10.0, 30.0}));
  ASSERT_EQ(r.epoch_flow_share.size(), 3u);
  ASSERT_EQ(r.epoch_lp_status.size(), 3u);
  for (LpStatus s : r.epoch_lp_status) EXPECT_EQ(s, LpStatus::kOptimal);

  // Partitioned epoch: zero share, source suppressed (~200 pps x 20 s).
  EXPECT_EQ(r.epoch_flow_share[1][0], 0.0);
  EXPECT_GT(r.suspended_per_flow[0], 3500);
  EXPECT_EQ(r.suspended_packets, r.suspended_per_flow[0]);
  // At most a handful of in-flight packets can land after the crash.
  EXPECT_LE(r.epoch_end_to_end[1][0], 5);

  // Re-converged allocation within 5% of the fault-free share (and the
  // pre-fault epoch gets exactly the fault-free allocation).
  ASSERT_TRUE(r.has_target && base.has_target);
  EXPECT_DOUBLE_EQ(r.epoch_flow_share[0][0], base.target_flow_share[0]);
  EXPECT_NEAR(r.epoch_flow_share[2][0], base.target_flow_share[0],
              0.05 * base.target_flow_share[0]);

  // The disruption is healed by the first delivery after the recovery.
  ASSERT_EQ(r.recoveries.size(), 1u);
  EXPECT_EQ(r.recoveries[0].flow, 0);
  EXPECT_DOUBLE_EQ(r.recoveries[0].fault_s, 10.0);
  EXPECT_GT(r.recoveries[0].recovered_s, 30.0);
  EXPECT_LT(r.recoveries[0].recovered_s, 31.0);

  // Post-recovery goodput back to the fault-free per-second rate (the last
  // epoch spans 20 of the 50 fault-free seconds).
  const double clean_rate =
      static_cast<double>(base.total_end_to_end) / cfg.sim_seconds;
  EXPECT_NEAR(static_cast<double>(r.epoch_end_to_end[2][0]), clean_rate * 20.0,
              0.10 * clean_rate * 20.0);

  // Byte-identical rerun.
  expect_identical(r, run_scenario(sc, Protocol::k2paCentralized, cfg));
}

// The acceptance determinism clause: a faulted run is bit-identical across
// BatchRunner thread counts.
TEST(Fault, BatchRunnerMatchesSequentialUnderFaults) {
  Scenario sc = chain_scenario();
  sc.faults.node_down(1, 3.0);
  sc.faults.node_up(1, 6.0);
  sc.faults.set_default_loss(0.02);

  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  const std::vector<std::uint64_t> seeds = {5, 6, 7};

  std::vector<RunResult> sequential;
  for (std::uint64_t s : seeds) {
    SimConfig c = cfg;
    c.seed = s;
    sequential.push_back(run_scenario(sc, Protocol::k2paCentralized, c));
  }
  for (int jobs : {1, 2, 4}) {
    SCOPED_TRACE(jobs);
    const std::vector<RunResult> batch =
        BatchRunner(jobs).run_seeds(sc, Protocol::k2paCentralized, cfg, seeds);
    ASSERT_EQ(batch.size(), sequential.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      expect_identical(batch[i], sequential[i]);
  }
}

// Crashing the provisioned relay of the diamond re-routes the flow over the
// surviving path through C instead of suspending it.
TEST(Fault, RouteRepairUsesSurvivingPath) {
  Scenario sc = diamond_scenario();
  ASSERT_EQ(sc.flow_specs[0].path, (std::vector<NodeId>{0, 1, 3}));
  sc.faults.node_down(1, 10.0);

  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  cfg.seed = 11;
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);

  // Never suspended: the repair route keeps the flow in service.
  EXPECT_EQ(r.suspended_packets, 0);
  ASSERT_EQ(r.epoch_end_to_end.size(), 2u);
  EXPECT_GT(r.epoch_end_to_end[1][0], 500);

  // Sim flow set = provisioned A-B-D (subflows 0,1) + repair A-C-D (2,3);
  // the repair variant carried real traffic.
  ASSERT_EQ(r.delivered_per_subflow.size(), 4u);
  EXPECT_GT(r.delivered_per_subflow[2], 0);
  EXPECT_GT(r.delivered_per_subflow[3], 0);

  // Route repair is fast: well under a second from fault to first delivery.
  ASSERT_EQ(r.recoveries.size(), 1u);
  EXPECT_DOUBLE_EQ(r.recoveries[0].fault_s, 10.0);
  EXPECT_LT(r.recoveries[0].recovered_s, 11.0);
}

// Tentpole acceptance: crash the diamond's provisioned relay under the
// in-band protocol. For 2pa-dctrl the runner never pushes oracle shares
// into the schedulers — at the fault epoch it only tells the agents which
// subflows are now (in)active. The agents must drop the dead neighbor via
// HELLO staleness, re-exchange knowledge over the surviving topology,
// re-solve at the source, and RATE-update the schedulers, settling the
// applied shares onto the surviving-topology oracle (the runner's masked
// solve, recorded as the last epoch's target) with no out-of-band re-solve.
TEST(Fault, InBandReconvergenceAfterRelayCrash) {
  Scenario sc = diamond_scenario();
  sc.faults.node_down(1, 10.0);

  SimConfig cfg;
  cfg.sim_seconds = 30.0;
  cfg.seed = 11;
  const RunResult r = run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);

  // The flow re-routed over C and kept delivering.
  EXPECT_EQ(r.suspended_packets, 0);
  ASSERT_EQ(r.recoveries.size(), 1u);
  EXPECT_DOUBLE_EQ(r.recoveries[0].fault_s, 10.0);
  EXPECT_GT(r.epoch_end_to_end[1][0], 500);

  // Surviving-topology oracle: the masked solve of the post-crash epoch.
  ASSERT_EQ(r.epoch_flow_share.size(), 2u);
  const double target = r.epoch_flow_share[1][0];
  ASSERT_GT(target, 0.0);

  // Sim subflows: provisioned A-B-D (0, 1) + repair A-C-D (2, 3). The live
  // repair lanes re-converged in-band to within 5% of the masked oracle,
  // while the dead provisioned lanes sit at the inactive floor.
  ASSERT_EQ(r.ctrl.applied_subflow_share.size(), 4u);
  EXPECT_NEAR(r.ctrl.applied_subflow_share[2], target, 0.05 * target);
  EXPECT_NEAR(r.ctrl.applied_subflow_share[3], target, 0.05 * target);
  EXPECT_LT(r.ctrl.applied_subflow_share[0], 1e-3);
  EXPECT_LT(r.ctrl.applied_subflow_share[1], 1e-3);

  // Converging twice (provisioned route, then repair route) takes at least
  // two source solves and real control traffic both before and after.
  EXPECT_GE(r.ctrl.solves, 2u);
  EXPECT_GT(r.ctrl.ctrl_frames, 0u);

  // Byte-identical rerun, control plane included.
  expect_identical(r, run_scenario(sc, Protocol::k2paDistributedCtrl, cfg));
}

// A link cut (both nodes stay alive) also triggers route repair, and the
// recovery switches the flow back to the provisioned route — each switch is
// a disruption with its own recovery record.
TEST(Fault, LinkCutAndRecovery) {
  Scenario sc = diamond_scenario();
  sc.faults.link_down(0, 1, 8.0);
  sc.faults.link_up(0, 1, 16.0);

  SimConfig cfg;
  cfg.sim_seconds = 24.0;
  cfg.seed = 2;
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);

  EXPECT_EQ(r.suspended_packets, 0);
  ASSERT_EQ(r.epoch_starts_s, (std::vector<double>{0.0, 8.0, 16.0}));
  for (const auto& per_flow : r.epoch_end_to_end)
    EXPECT_GT(per_flow[0], 500);

  ASSERT_EQ(r.recoveries.size(), 2u);
  EXPECT_DOUBLE_EQ(r.recoveries[0].fault_s, 8.0);
  EXPECT_LT(r.recoveries[0].recovered_s, 9.0);
  EXPECT_DOUBLE_EQ(r.recoveries[1].fault_s, 16.0);
  EXPECT_LT(r.recoveries[1].recovered_s, 18.0);
}

// A flapping link switches the flow between its provisioned and repair
// routes every 10 s. Each switch parks the abandoned route's lanes at the
// inactive floor; a relay whose lanes all sit there drains its stranded
// packets without its virtual clock racing ahead, so when the route comes
// back the relay is not throttled by an enormous tag lead. Every epoch
// must deliver at least half of what the first one did.
TEST(Fault, FlappingLinkNeverStarvesAReactivatedRoute) {
  Scenario sc = diamond_scenario();
  for (double t = 10.0; t < 60.0; t += 20.0) {
    sc.faults.link_down(0, 1, t);
    sc.faults.link_up(0, 1, t + 10.0);
  }

  SimConfig cfg;
  cfg.sim_seconds = 60.0;
  cfg.seed = 3;
  for (Protocol p : {Protocol::k2paCentralized, Protocol::k2paDistributedCtrl}) {
    const RunResult r = run_scenario(sc, p, cfg);
    ASSERT_EQ(r.epoch_end_to_end.size(), 6u) << to_string(p);
    const std::int64_t first = r.epoch_end_to_end[0][0];
    EXPECT_GT(first, 1000) << to_string(p);
    for (std::size_t e = 1; e < r.epoch_end_to_end.size(); ++e)
      EXPECT_GE(2 * r.epoch_end_to_end[e][0], first)
          << to_string(p) << " epoch " << e;
  }
}

// Lossy channels corrupt frames per the configured packet-error rate; DCF
// retries absorb moderate loss (degraded goodput, traffic still flows).
TEST(Fault, LossyChannelDegradesButDelivers) {
  Scenario clean = chain_scenario();
  Scenario sc = chain_scenario();
  sc.faults.set_default_loss(0.05);
  sc.faults.set_loss(1, 2, 0.25);  // second hop markedly worse

  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  cfg.seed = 3;
  const RunResult base = run_scenario(clean, Protocol::k80211, cfg);
  const RunResult r = run_scenario(sc, Protocol::k80211, cfg);

  EXPECT_GT(r.channel.frames_faulted, 0u);
  EXPECT_GT(r.total_end_to_end, 0);
  EXPECT_LT(r.total_end_to_end, base.total_end_to_end);
  expect_identical(r, run_scenario(sc, Protocol::k80211, cfg));
}

// Under severe loss the MAC exhausts its retry limit: the drop feeds the
// existing MAC-drop path and the stack reports the link-layer failure.
TEST(Fault, RetryExhaustionReportsLinkFailure) {
  Scenario sc = chain_scenario();
  sc.faults.set_default_loss(0.7);

  SimConfig cfg;
  cfg.sim_seconds = 5.0;
  cfg.seed = 4;
  const RunResult r = run_scenario(sc, Protocol::k80211, cfg);

  EXPECT_GT(r.dropped_mac, 0);
  EXPECT_GT(r.link_failures, 0);
  EXPECT_EQ(r.link_failures, r.dropped_mac);
}

// An over-constrained clique makes the phase-1 LP infeasible (the basic
// shares alone exceed the clique capacity). run_scenario must throw rather
// than silently scale the shares down: 6 mutually-in-range nodes with one
// 5-hop flow through all of them put 5 subflows of basic share B/3 into one
// clique (5 x B/3 > B).
TEST(Fault, InfeasibleCliqueThrows) {
  Scenario sc{"clique6",
              Topology({{0, 0}, {10, 0}, {20, 0}, {30, 0}, {40, 0}, {50, 0}},
                       250.0),
              {},
              {}};
  Flow f;
  f.path = {0, 1, 2, 3, 4, 5};
  sc.flow_specs.push_back(f);

  SimConfig cfg;
  cfg.sim_seconds = 1.0;
  EXPECT_THROW(run_scenario(sc, Protocol::k2paCentralized, cfg),
               ContractViolation);
}

// Malformed fault plans are rejected up front, with the run never started.
TEST(Fault, PlanValidationRejectsBadPlans) {
  SimConfig cfg;
  cfg.sim_seconds = 1.0;
  {
    Scenario sc = chain_scenario();
    sc.faults.node_down(7, 1.0);  // unknown node
    EXPECT_THROW(run_scenario(sc, Protocol::k80211, cfg), ContractViolation);
  }
  {
    Scenario sc = chain_scenario();
    sc.faults.node_down(1, -2.0);  // negative time
    EXPECT_THROW(run_scenario(sc, Protocol::k80211, cfg), ContractViolation);
  }
  {
    Scenario sc = chain_scenario();
    sc.faults.set_loss(0, 1, 1.5);  // rate outside [0, 1]
    EXPECT_THROW(run_scenario(sc, Protocol::k80211, cfg), ContractViolation);
  }
  {
    Scenario sc = chain_scenario();
    sc.faults.link_down(1, 1, 0.5);  // degenerate link
    EXPECT_THROW(run_scenario(sc, Protocol::k80211, cfg), ContractViolation);
  }
}

}  // namespace
}  // namespace e2efa
