// Differential test: the packet-level simulator against the fluid-model
// oracle (src/net/fluid.hpp) — the promoted, asserting form of
// bench/fluid_vs_packet. The fluid model documents its accuracy envelope:
// measured goodput lands within a few percent of the prediction on lightly
// loaded networks and at ~65-80% of it on saturated cliques (collisions
// and tag throttling are not in the fluid model); it never legitimately
// *exceeds* the prediction by more than quantization noise.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace e2efa
