// Elastic transport layer: closed-loop AIMD / BBR sources atop the fair MAC.
//
// Covers the promises the subsystem makes:
//  - the transport oracle accepts a conforming source and flags
//    non-monotone sink ACKs, inflight past cwnd, and retransmissions
//    without loss evidence,
//  - scenario files and the CLI round-trip the transport kind with typed
//    errors for malformed directives,
//  - staggered-start AIMD and BBR flows on the paper's Fig. 1 topology
//    converge to a windowed Jain index >= 0.9 under both allocating
//    protocols (the fairness claim the subsystem exists to demonstrate),
//  - elastic runs are bit-identical across reruns and BatchRunner thread
//    counts, including under churn plus 15% random loss, and a checked
//    run's oracle stream stays clean.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "ctrl/messages.hpp"
#include "net/batch.hpp"
#include "net/cli.hpp"
#include "net/runner.hpp"
#include "net/scenario_file.hpp"
#include "net/scenarios.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "run_result_testing.hpp"
#include "transport/transport.hpp"
#include "util/stats.hpp"

namespace e2efa {
namespace {

// ---------- transport oracle, driven directly ----------

TEST(TransportOracle, ConformingSourcePassesClean) {
  CheckContext check;
  const TimeNs t = kMillisecond;
  check.on_transport_send(0, 0, 1, /*retransmit=*/false, 2.0, t);
  check.on_transport_send(0, 0, 2, /*retransmit=*/false, 2.0, t);
  check.on_transport_cumack(2, 0, 1, 2 * t);
  check.on_transport_ack(0, 0, 1, 3 * t);
  check.on_transport_send(0, 0, 3, /*retransmit=*/false, 2.0, 3 * t);
  EXPECT_TRUE(check.ok()) << check.report();
}

TEST(TransportOracle, SinkCumackMovingBackwardsFlagged) {
  CheckContext check;
  check.on_transport_cumack(2, 0, 5, kMillisecond);
  check.on_transport_cumack(2, 0, 3, 2 * kMillisecond);
  ASSERT_FALSE(check.ok());
  EXPECT_EQ(check.violations().front().category,
            CheckViolation::Category::kTransport);
}

TEST(TransportOracle, InflightBeyondCwndFlagged) {
  CheckContext check;
  check.on_transport_send(0, 0, 1, false, 2.0, kMillisecond);
  check.on_transport_send(0, 0, 2, false, 2.0, kMillisecond);
  EXPECT_TRUE(check.ok()) << check.report();
  check.on_transport_send(0, 0, 3, false, 2.0, kMillisecond);
  ASSERT_FALSE(check.ok());
  EXPECT_EQ(check.violations().front().category,
            CheckViolation::Category::kTransport);
}

TEST(TransportOracle, NewSendMustExtendSequenceSpace) {
  CheckContext check;
  check.on_transport_send(0, 0, 4, false, 10.0, kMillisecond);
  check.on_transport_send(0, 0, 4, false, 10.0, 2 * kMillisecond);
  ASSERT_FALSE(check.ok());
  EXPECT_EQ(check.violations().front().category,
            CheckViolation::Category::kTransport);
}

TEST(TransportOracle, RetransmitWithoutEvidenceFlagged) {
  CheckContext check;
  check.on_transport_send(0, 0, 1, false, 10.0, kMillisecond);
  check.on_transport_send(0, 0, 1, /*retransmit=*/true, 10.0, 2 * kMillisecond);
  ASSERT_FALSE(check.ok());
  EXPECT_EQ(check.violations().front().category,
            CheckViolation::Category::kTransport);
}

TEST(TransportOracle, DupackEvidenceAdmitsFastRetransmit) {
  CheckContext check;
  const TimeNs t = kMillisecond;
  for (std::int64_t seq = 1; seq <= 4; ++seq)
    check.on_transport_send(0, 0, seq, false, 10.0, t);
  check.on_transport_ack(0, 0, 1, 2 * t);  // advances: resets dupacks
  for (int i = 0; i < 3; ++i) check.on_transport_ack(0, 0, 1, 3 * t);
  check.on_transport_send(0, 0, 2, /*retransmit=*/true, 10.0, 4 * t);
  EXPECT_TRUE(check.ok()) << check.report();
  // The retransmit consumed the evidence; the same hole needs fresh proof.
  check.on_transport_send(0, 0, 2, /*retransmit=*/true, 10.0, 5 * t);
  EXPECT_FALSE(check.ok());
}

TEST(TransportOracle, TimeoutEvidenceAdmitsRetransmit) {
  CheckContext check;
  check.on_transport_send(0, 0, 1, false, 10.0, kMillisecond);
  check.on_transport_timeout(0, 0, 2 * kMillisecond);
  check.on_transport_send(0, 0, 1, /*retransmit=*/true, 10.0,
                          2 * kMillisecond);
  EXPECT_TRUE(check.ok()) << check.report();
}

TEST(TransportOracle, RetransmitOfAckedSequenceFlagged) {
  CheckContext check;
  check.on_transport_send(0, 0, 1, false, 10.0, kMillisecond);
  check.on_transport_ack(0, 0, 1, 2 * kMillisecond);
  check.on_transport_timeout(0, 0, 3 * kMillisecond);
  check.on_transport_send(0, 0, 1, /*retransmit=*/true, 10.0,
                          3 * kMillisecond);
  ASSERT_FALSE(check.ok());
  EXPECT_EQ(check.violations().front().category,
            CheckViolation::Category::kTransport);
}

// ---------- scenario file + CLI plumbing ----------

constexpr const char* kElasticText = R"(
range 250
node A 0 0
node B 200 0
node C 400 0
transport aimd
flow A B C
)";

TEST(TransportScenarioFile, DirectiveParsesAndRoundTrips) {
  const Scenario sc = parse_scenario_text(kElasticText, "elastic");
  EXPECT_EQ(sc.transport, TransportKind::kAimd);
  const std::string text = serialize_scenario_text(sc);
  EXPECT_NE(text.find("transport aimd"), std::string::npos);
  const Scenario back = parse_scenario_text(text, "back");
  EXPECT_EQ(back.transport, TransportKind::kAimd);
}

TEST(TransportScenarioFile, DefaultCbrOmittedFromSerialization) {
  const std::string text = serialize_scenario_text(scenario1());
  EXPECT_EQ(text.find("transport"), std::string::npos);
}

TEST(TransportScenarioFile, MalformedDirectivesRejected) {
  const std::string base = "range 250\nnode A 0 0\nnode B 200 0\n";
  EXPECT_THROW(parse_scenario_text(base + "transport\nflow A B\n"),
               ContractViolation);
  EXPECT_THROW(parse_scenario_text(base + "transport xtp\nflow A B\n"),
               ContractViolation);
  EXPECT_THROW(
      parse_scenario_text(base + "transport aimd extra\nflow A B\n"),
      ContractViolation);
  EXPECT_THROW(parse_scenario_text(
                   base + "transport aimd\ntransport bbr\nflow A B\n"),
               ContractViolation);
}

TEST(TransportKindNames, RoundTripAndCtrlKindInSync) {
  for (TransportKind k :
       {TransportKind::kCbr, TransportKind::kAimd, TransportKind::kBbr})
    EXPECT_EQ(parse_transport_kind(to_string(k)), k);
  EXPECT_FALSE(parse_transport_kind("reno").has_value());
  // The trace tool must label the new control-frame kind.
  const std::vector<TraceRecord> rec{
      TraceRecord{0, static_cast<std::uint16_t>(TraceEvent::kCtrlSend), 2,
                  static_cast<int>(CtrlMsg::Kind::kTransAck), 1, 1, 0, 0, 40.0,
                  3.0}};
  EXPECT_NE(format_follow(rec, -1, 0).find("node 2 sends TRANS_ACK to node 1"),
            std::string::npos);
}

TEST(TransportCli, FlagParsesAndOverridesScenario) {
  std::string err;
  std::vector<const char*> args{"sim", "--scenario", "1", "--transport", "bbr"};
  const auto opt =
      parse_cli(static_cast<int>(args.size()), args.data(), &err);
  ASSERT_TRUE(opt.has_value()) << err;
  EXPECT_EQ(opt->transport, "bbr");
  Scenario sc = scenario1();
  apply_cli_dynamics(sc, *opt);
  EXPECT_EQ(sc.transport, TransportKind::kBbr);
}

TEST(TransportCli, UnknownKindRejected) {
  std::string err;
  std::vector<const char*> args{"sim", "--transport", "cubic"};
  EXPECT_FALSE(
      parse_cli(static_cast<int>(args.size()), args.data(), &err).has_value());
  EXPECT_NE(err.find("transport"), std::string::npos);
}

// ---------- end-to-end fairness: the subsystem's reason to exist ----------

// Staggered arrivals: F2 joins 10 s after F1, so the controllers must
// surrender bandwidth a greedy start already claimed. Jain is computed
// over *target-normalized* window rates (scenario 1's weighted-fair
// allocation is deliberately 2:1, so raw rates are never equal), averaged
// over the converged tail (the last third of a 90 s run); individual 2 s
// windows may still dip during probe cycles, so the mean is the claim.
double tail_windowed_jain(const Scenario& sc, Protocol proto) {
  SimConfig cfg;
  cfg.sim_seconds = 90.0;
  cfg.metrics_period_seconds = 2.0;
  const RunResult r = run_scenario(sc, proto, cfg);
  const std::vector<MetricsSample>& win = r.metrics.samples;
  const std::size_t n = win.size();
  if (n == 0) return 0.0;
  // Staggered runs are multi-epoch: normalize by the final epoch's solve,
  // which is the allocation in force over the tail.
  std::vector<double> targets = r.target_flow_share;
  if (!r.epoch_flow_share.empty()) targets = r.epoch_flow_share.back();
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t w = 2 * n / 3; w < n; ++w) {
    std::vector<double> rates;
    for (std::size_t f = 0; f < win[w].flow_delivered.size(); ++f)
      rates.push_back(static_cast<double>(win[w].flow_delivered[f]) /
                      targets[f]);
    sum += jain_fairness_index(rates);
    ++count;
  }
  return sum / static_cast<double>(count);
}

Scenario staggered_scenario1(TransportKind kind) {
  Scenario sc = scenario1();
  sc.transport = kind;
  sc.activity.assign(sc.flow_specs.size(), FlowActivity{});
  sc.activity[1].start_s = 10.0;
  return sc;
}

TEST(TransportFairness, StaggeredAimdConvergesUnderAllocatingProtocols) {
  for (Protocol proto :
       {Protocol::k2paCentralized, Protocol::k2paDistributedCtrl}) {
    SCOPED_TRACE(to_string(proto));
    const double jain =
        tail_windowed_jain(staggered_scenario1(TransportKind::kAimd), proto);
    EXPECT_GE(jain, 0.9);
  }
}

TEST(TransportFairness, StaggeredBbrConvergesUnderAllocatingProtocols) {
  for (Protocol proto :
       {Protocol::k2paCentralized, Protocol::k2paDistributedCtrl}) {
    SCOPED_TRACE(to_string(proto));
    const double jain =
        tail_windowed_jain(staggered_scenario1(TransportKind::kBbr), proto);
    EXPECT_GE(jain, 0.9);
  }
}

// ---------- determinism ----------

// Full-field RunResult equality (bitwise on doubles, including the
// transport summary) comes from the shared run_result_testing.hpp helper.

// Churn plus 15% random loss on every link: the harshest deterministic
// envelope the ACK plane has to survive (lost ACKs, RTOs, backoff).
Scenario hostile_scenario2(TransportKind kind) {
  Scenario sc = scenario2();
  sc.transport = kind;
  sc.activity.assign(sc.flow_specs.size(), FlowActivity{});
  sc.activity[2] = {2.0, 6.0};              // F3 mid-run only
  sc.activity[4] = {3.0, kFlowNeverStops};  // F5 arrives late
  sc.faults.set_default_loss(0.15);
  return sc;
}

TEST(TransportDeterminism, RerunsBitIdenticalUnderChurnAndLoss) {
  for (TransportKind kind : {TransportKind::kAimd, TransportKind::kBbr}) {
    SCOPED_TRACE(to_string(kind));
    const Scenario sc = hostile_scenario2(kind);
    SimConfig cfg;
    cfg.sim_seconds = 8.0;
    cfg.metrics_period_seconds = 1.0;
    cfg.seed = 3;
    const RunResult a = run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);
    const RunResult b = run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);
    expect_identical(a, b);
  }
}

TEST(TransportDeterminism, BatchRunnerThreadCountInvariant) {
  const Scenario sc = hostile_scenario2(TransportKind::kAimd);
  SimConfig cfg;
  cfg.sim_seconds = 8.0;
  cfg.metrics_period_seconds = 1.0;
  cfg.seed = 3;
  const std::vector<Protocol> protos{Protocol::k2paCentralized,
                                     Protocol::k2paDistributed,
                                     Protocol::k2paDistributedCtrl};
  const std::vector<RunResult> seq =
      BatchRunner(1).run_protocols(sc, protos, cfg);
  const std::vector<RunResult> par =
      BatchRunner(4).run_protocols(sc, protos, cfg);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    SCOPED_TRACE(to_string(protos[i]));
    expect_identical(seq[i], par[i]);
  }
}

TEST(TransportDeterminism, CheckedRunCleanAndTrajectoryUnchanged) {
  for (TransportKind kind : {TransportKind::kAimd, TransportKind::kBbr}) {
    SCOPED_TRACE(to_string(kind));
    Scenario sc = scenario1();
    sc.transport = kind;
    SimConfig cfg;
    cfg.sim_seconds = 15.0;
    const RunResult plain = run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);
    CheckContext check;
    cfg.check = &check;
    const RunResult checked =
        run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);
    EXPECT_TRUE(check.ok()) << check.report();
    expect_identical(plain, checked);
  }
}

// The elastic sources actually close the loop: retransmissions happen under
// loss, and ACKs flow back against the data direction.
TEST(TransportPlumbing, AckPlaneCarriesAcksAndRecoversLoss) {
  Scenario sc = scenario1();
  sc.transport = TransportKind::kAimd;
  sc.faults.set_default_loss(0.1);
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  EXPECT_GT(r.transport.acks_sent, 0u);
  EXPECT_GT(r.transport.acks_relayed, 0u);
  EXPECT_GT(r.transport.acks_delivered, 0u);
  ASSERT_EQ(r.transport.flows.size(), 2u);
  std::int64_t retx = 0;
  for (const TransportTelemetry& t : r.transport.flows) {
    EXPECT_GT(t.cwnd, 0.0);
    EXPECT_GT(t.srtt_s, 0.0);
    retx += t.retransmits;
  }
  EXPECT_GT(retx, 0);
  EXPECT_GT(r.total_end_to_end, 0);
}

}  // namespace
}  // namespace e2efa
