// Differential test: the packet-level simulator against the fluid-model
// oracle (src/net/fluid.hpp) — the promoted, asserting form of
// bench/fluid_vs_packet. The fluid model documents its accuracy envelope:
// measured goodput lands within a few percent of the prediction on lightly
// loaded networks and at ~65-80% of it on saturated cliques (collisions
// and tag throttling are not in the fluid model); it never legitimately
// *exceeds* the prediction by more than quantization noise.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "net/batch.hpp"
#include "net/fluid.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"

namespace e2efa {
namespace {

FluidPrediction predict(const Scenario& sc, const RunResult& r,
                        const SimConfig& cfg) {
  const FlowSet flows(sc.topo, sc.flow_specs);
  const Allocation alloc = make_subflow_allocation(flows, r.target_subflow_share);
  MacConfig mac;
  mac.use_rts_cts = cfg.use_rts_cts;
  return fluid_predict(flows, alloc, cfg.cbr_pps, cfg.payload_bytes, mac, cfg.cw_min);
}

TEST(FluidVsPacket, SaturatedPaperScenariosLandInsideTheEnvelope) {
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  cfg.warmup_seconds = 1.0;
  for (const Scenario& sc : {scenario1(), scenario2()}) {
    const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
    const FluidPrediction p = predict(sc, r, cfg);
    const FlowSet flows(sc.topo, sc.flow_specs);
    double measured_total = 0.0;
    for (FlowId f = 0; f < flows.flow_count(); ++f) {
      const double measured =
          static_cast<double>(r.end_to_end_per_flow[f]) / cfg.sim_seconds;
      measured_total += measured;
      ASSERT_GT(p.flow_rate[static_cast<std::size_t>(f)], 0.0);
      const double ratio = measured / p.flow_rate[static_cast<std::size_t>(f)];
      EXPECT_GE(ratio, 0.60) << sc.name << " flow " << f;
      EXPECT_LE(ratio, 1.10) << sc.name << " flow " << f;
    }
    const double total_ratio = measured_total / p.total_flow_rate;
    EXPECT_GE(total_ratio, 0.70) << sc.name;
    EXPECT_LE(total_ratio, 1.05) << sc.name;
  }
}

TEST(FluidVsPacket, LightlyLoadedSingleHopTracksThePredictionClosely) {
  // One 1-hop flow offered well below capacity: the fluid prediction is the
  // offered rate itself and the simulator must deliver essentially all of it.
  Scenario sc{"light", Topology({{0.0, 0.0}, {200.0, 0.0}}, 250.0), {}, {}};
  Flow f;
  f.path = {0, 1};
  sc.flow_specs.push_back(f);

  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  cfg.warmup_seconds = 1.0;
  cfg.cbr_pps = 50.0;  // Far below the ~350 pkt/s single-hop capacity.
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  const FluidPrediction p = predict(sc, r, cfg);
  EXPECT_NEAR(p.flow_rate[0], cfg.cbr_pps, 1e-6);
  const double measured =
      static_cast<double>(r.end_to_end_per_flow[0]) / cfg.sim_seconds;
  EXPECT_NEAR(measured, p.flow_rate[0], 0.05 * p.flow_rate[0]);
}

TEST(FluidVsPacket, InterFlowRatiosTrackThePrediction) {
  // The headline claim of the fluid model: even when absolute levels sag
  // under saturation, the *ratios* between flows follow the allocation.
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  cfg.warmup_seconds = 1.0;
  const Scenario sc = scenario1();
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  const FluidPrediction p = predict(sc, r, cfg);
  const double measured_ratio =
      static_cast<double>(r.end_to_end_per_flow[0]) /
      static_cast<double>(r.end_to_end_per_flow[1]);
  const double fluid_ratio = p.flow_rate[0] / p.flow_rate[1];
  // scenario1: F1 gets twice F2's share (measured sags to ~0.8 of the
  // predicted 2.0 under saturation but must stay well away from parity).
  EXPECT_GT(measured_ratio, 0.6 * fluid_ratio);
  EXPECT_LT(measured_ratio, 1.4 * fluid_ratio);
}

/// n senders on a 100 m circle around sink 0, one single-hop flow each:
/// every node hears every other, so the star is one collision domain.
Scenario saturated_star(int n) {
  std::vector<Point> pos{{0.0, 0.0}};
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * std::numbers::pi * i / n;
    pos.push_back({100.0 * std::cos(a), 100.0 * std::sin(a)});
  }
  Scenario sc{"star", Topology(std::move(pos), 250.0), {}, {}};
  for (NodeId i = 1; i <= n; ++i) {
    Flow f;
    f.path = {i, 0};
    sc.flow_specs.push_back(f);
  }
  return sc;
}

TEST(Bianchi, ModelReproducesTheReferenceRtsCtsReadings) {
  // Bianchi's RTS/CTS figures for the paper's 512-byte packets.
  const MacConfig mac;
  const double expected[] = {370.8, 381.5, 383.9, 383.9};
  const int n[] = {2, 5, 10, 20};
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(bianchi_saturation(n[i], 512, mac, 31), expected[i], 0.05) << n[i];
  // A lone sender never collides: one packet per ideal-case airtime.
  for (bool rts : {true, false}) {
    const MacConfig m{rts};
    EXPECT_NEAR(1e9 / bianchi_saturation(1, 512, m, 31),
                static_cast<double>(per_packet_airtime(512, m, 31)), 1e-3);
  }
}

// The packet simulator's 802.11 against Bianchi's model on one saturated
// collision domain. The simulator delivers a little less than the model
// under both access modes (the model has no EIFS, CTS/ACK timeouts or
// queue refills); the bounds hold for every seed 1-8 at T = 4 s, where
// the gaps read -0.5% to -2.6% (RTS/CTS) and +0.2% to -3.7% (basic).
TEST(Bianchi, SaturatedStarTracksTheModel) {
  SimConfig base;
  base.cbr_pps = 2000.0;  // every sender always backlogged
  base.sim_seconds = 4.0;
  std::vector<Scenario> stars;
  for (int n : {2, 5, 10, 20}) stars.push_back(saturated_star(n));
  std::vector<BatchRunner::Job> jobs;
  for (bool rts : {true, false})
    for (const Scenario& sc : stars)
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SimConfig cfg = base;
        cfg.use_rts_cts = rts;
        cfg.seed = seed;
        jobs.push_back({&sc, Protocol::k80211, cfg});
      }
  const std::vector<RunResult> results = BatchRunner(0).run(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const int n = jobs[i].scenario->topo.node_count() - 1;
    const MacConfig mac{jobs[i].config.use_rts_cts};
    const double model = bianchi_saturation(n, base.payload_bytes, mac, base.cw_min);
    const double measured =
        static_cast<double>(results[i].total_end_to_end) / base.sim_seconds;
    const double gap = measured / model - 1.0;
    SCOPED_TRACE(testing::Message() << "rts_cts " << mac.use_rts_cts << ", n " << n
                                    << ", seed " << jobs[i].config.seed << ": gap " << gap);
    EXPECT_LE(gap, mac.use_rts_cts ? 0.0 : 0.01);
    EXPECT_GE(gap, mac.use_rts_cts ? -0.03 : -0.045);
  }
}

}  // namespace
}  // namespace e2efa
