#include <gtest/gtest.h>

#include "alloc/centralized.hpp"
#include "net/fluid.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"

namespace e2efa {
namespace {

constexpr int kCwMin = 31;
constexpr int kPayload = 512;

TEST(Fluid, PerPacketAirtimeRtsCts) {
  MacConfig mac;
  // DIFS 50 + mean backoff 310 + RTS 80 + SIFS 10 + CTS 56 + SIFS 10 +
  // DATA (564 B = 2256) + SIFS 10 + ACK 56 = 2838 µs.
  EXPECT_EQ(per_packet_airtime(kPayload, mac, kCwMin), 2838 * kMicrosecond);
}

TEST(Fluid, PerPacketAirtimeBasicAccess) {
  MacConfig mac;
  mac.use_rts_cts = false;
  // Drops RTS + CTS + 2 SIFS = 156 µs.
  EXPECT_EQ(per_packet_airtime(kPayload, mac, kCwMin), 2682 * kMicrosecond);
}

TEST(Fluid, EffectiveRateInverse) {
  MacConfig mac;
  EXPECT_NEAR(effective_packet_rate(kPayload, mac, kCwMin), 1e6 / 2838.0, 0.1);
}

TEST(Fluid, BottleneckPropagatesDownstream) {
  const Scenario sc = scenario1();
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph graph(sc.topo, flows);
  const auto alloc = centralized_allocate(graph).allocation;
  MacConfig mac;
  const auto p = fluid_predict(flows, alloc, /*pps=*/200.0, kPayload, mac, kCwMin);
  // Both hops of each flow have equal shares: no internal loss at all.
  EXPECT_NEAR(p.loss_rate, 0.0, 1e-9);
  // F1 at share 1/2: 176 pkt/s < 200 offered.
  EXPECT_NEAR(p.flow_rate[0], 0.5 * 1e6 / 2838.0, 0.1);
  EXPECT_NEAR(p.flow_rate[1], 0.25 * 1e6 / 2838.0, 0.1);
}

TEST(Fluid, SourceLimitedFlowServesOfferedLoad) {
  const Scenario sc = scenario1();
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph graph(sc.topo, flows);
  const auto alloc = centralized_allocate(graph).allocation;
  MacConfig mac;
  // Offered 100 pkt/s < both capacities: everything delivered.
  const auto p = fluid_predict(flows, alloc, 100.0, kPayload, mac, kCwMin);
  EXPECT_NEAR(p.flow_rate[0], 100.0, 1e-9);
  EXPECT_NEAR(p.loss_rate, 0.0, 1e-9);
}

TEST(Fluid, ImbalancedSharesPredictRelayLoss) {
  const Scenario sc = scenario1();
  FlowSet flows(sc.topo, sc.flow_specs);
  // Two-tier style imbalance: upstream 3/4, downstream 1/4.
  const Allocation alloc =
      make_subflow_allocation(flows, {0.75, 0.25, 0.375, 0.375});
  MacConfig mac;
  const auto p = fluid_predict(flows, alloc, 200.0, kPayload, mac, kCwMin);
  // First hop serves min(200, 264) = 200; second min(200, 88) = 88.
  EXPECT_NEAR(p.subflow_rate[0], 200.0, 0.5);
  EXPECT_NEAR(p.subflow_rate[1], 0.25 * 1e6 / 2838.0, 0.1);
  EXPECT_GT(p.loss_rate, 100.0);
}

TEST(Fluid, PacketSimTracksPredictionRatios) {
  // The packet simulator's flow-rate *ratios* match the fluid oracle's
  // within 15% on scenario 2; absolute levels sit at 65-105% of ideal.
  const Scenario sc = scenario2();
  FlowSet flows(sc.topo, sc.flow_specs);
  SimConfig cfg;
  cfg.sim_seconds = 60.0;
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  const Allocation alloc = make_subflow_allocation(flows, r.target_subflow_share);
  MacConfig mac;
  const auto p = fluid_predict(flows, alloc, cfg.cbr_pps, cfg.payload_bytes, mac, cfg.cw_min);
  for (FlowId f = 0; f < flows.flow_count(); ++f) {
    const double measured = static_cast<double>(r.end_to_end_per_flow[f]) / 60.0;
    const double frac = measured / p.flow_rate[f];
    EXPECT_GT(frac, 0.6) << "flow " << f;
    EXPECT_LT(frac, 1.07) << "flow " << f;
  }
  const double m0 = static_cast<double>(r.end_to_end_per_flow[0]);
  const double m1 = static_cast<double>(r.end_to_end_per_flow[1]);
  EXPECT_NEAR(m0 / m1, p.flow_rate[0] / p.flow_rate[1], 0.15);
}

TEST(Fluid, BasicAccessRaisesIdealRate) {
  MacConfig rts, basic;
  basic.use_rts_cts = false;
  EXPECT_GT(effective_packet_rate(kPayload, basic, kCwMin),
            effective_packet_rate(kPayload, rts, kCwMin));
}

TEST(Fluid, RejectsBadInputs) {
  MacConfig mac;
  EXPECT_THROW(per_packet_airtime(0, mac, kCwMin), ContractViolation);
  const Scenario sc = scenario1();
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph graph(sc.topo, flows);
  const auto alloc = centralized_allocate(graph).allocation;
  EXPECT_THROW(fluid_predict(flows, alloc, 0.0, 512, mac, kCwMin),
               ContractViolation);
}

}  // namespace
}  // namespace e2efa
