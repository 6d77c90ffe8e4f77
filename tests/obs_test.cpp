// Observability layer: trace sink (filtering, binary round-trips, JSONL
// rendering, byte-determinism), metrics registry + time series, the offline
// convergence analysis, and the no-perturbation guarantee (tracing must not
// change the simulated trajectory).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "ctrl/messages.hpp"
#include "net/batch.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "route/routing.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace e2efa {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "e2efa_obs_" + name;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------- trace sink ----------

TEST(Trace, RecordsInMemory) {
  TraceSink sink;
  sink.record(from_seconds(1.5), TraceEvent::kFrameTx, 3, 1, 2,
              512.0, 0.0);
  ASSERT_EQ(sink.records().size(), 1u);
  const TraceRecord& r = sink.records()[0];
  EXPECT_EQ(r.t, from_seconds(1.5));
  EXPECT_EQ(r.event(), TraceEvent::kFrameTx);
  EXPECT_EQ(r.node, 3);
  EXPECT_EQ(r.a, 1);
  EXPECT_EQ(r.b, 2);
  EXPECT_DOUBLE_EQ(r.v0, 512.0);
  EXPECT_EQ(sink.recorded(), 1u);
}

TEST(Trace, RuntimeFilterDropsExcludedCategories) {
  TraceSink sink;
  sink.set_filter(trace_bit(TraceCat::kQueue));
  sink.record(0, TraceEvent::kFrameTx, 0, 0, 0);
  sink.record(0, TraceEvent::kQueueEnqueue, 0, 0, 1);
  // kMeta is always kept: structural records are cheap and every tool
  // needs them.
  sink.record(0, TraceEvent::kRunMeta, -1, 2, 2);
  ASSERT_EQ(sink.records().size(), 2u);
  EXPECT_EQ(sink.records()[0].event(), TraceEvent::kQueueEnqueue);
  EXPECT_EQ(sink.records()[1].event(), TraceEvent::kRunMeta);
}

TEST(Trace, EveryEventHasACategoryAndName) {
  for (std::uint16_t t = 0; t < kTraceEventCount; ++t) {
    const TraceEvent e = static_cast<TraceEvent>(t);
    EXPECT_NE(std::string(to_string(e)), "");
    EXPECT_NE(trace_bit(trace_category(e)) & kTraceAllCategories, 0u);
  }
}

TEST(Trace, ParseFilter) {
  std::uint32_t mask = 0;
  std::string err;
  ASSERT_TRUE(parse_trace_filter("phy, backoff,queue", &mask, &err)) << err;
  EXPECT_EQ(mask, trace_bit(TraceCat::kMeta) | trace_bit(TraceCat::kPhy) |
                      trace_bit(TraceCat::kBackoff) | trace_bit(TraceCat::kQueue));
  ASSERT_TRUE(parse_trace_filter("all", &mask, &err));
  EXPECT_EQ(mask, kTraceAllCategories);
  // kMeta rides along even when not asked for.
  ASSERT_TRUE(parse_trace_filter("lp", &mask, &err));
  EXPECT_NE(mask & trace_bit(TraceCat::kMeta), 0u);
  EXPECT_FALSE(parse_trace_filter("phy,bogus", &mask, &err));
  EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(Trace, BinaryRoundTrip) {
  const std::string path = tmp_path("roundtrip.trace");
  std::vector<TraceRecord> written;
  {
    TraceSink sink(/*buffer_records=*/4);  // force mid-run flushes
    std::string err;
    ASSERT_TRUE(sink.open(path, &err)) << err;
    for (int i = 0; i < 11; ++i) {
      sink.record(1000 * i, TraceEvent::kFrameRx,
                  static_cast<std::int16_t>(i), i, i + 1,
                  0.5 * i, -1.25 * i);
      written.push_back(TraceRecord{1000 * i, static_cast<std::uint16_t>(TraceEvent::kFrameRx),
                                    static_cast<std::int16_t>(i), i, i + 1, 0, 0,
                                    0, 0.5 * i, -1.25 * i});
    }
    sink.close();
  }
  std::vector<TraceRecord> read;
  std::string err;
  ASSERT_TRUE(read_trace(path, &read, &err)) << err;
  EXPECT_EQ(read, written);
  std::remove(path.c_str());
}

TEST(Trace, ReadRejectsGarbageAndTruncation) {
  const std::string path = tmp_path("bad.trace");
  std::vector<TraceRecord> out;
  std::string err;
  EXPECT_FALSE(read_trace(tmp_path("does_not_exist"), &out, &err));

  {
    std::ofstream f(path, std::ios::binary);
    f << "not a trace file at all";
  }
  EXPECT_FALSE(read_trace(path, &out, &err));

  {
    TraceSink sink;
    ASSERT_TRUE(sink.open(path, &err)) << err;
    sink.record(1, TraceEvent::kFrameTx, 0, 0, 0);
    sink.close();
    // Chop mid-record.
    std::string bytes = file_bytes(path);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 7));
  }
  EXPECT_FALSE(read_trace(path, &out, &err));
  std::remove(path.c_str());
}

TEST(Trace, JsonlRendering) {
  TraceRecord r{from_seconds(2.0), static_cast<std::uint16_t>(TraceEvent::kBackoffDraw),
                4, 17, 3, 5, 2, 0, 12.0, 7.5};
  const std::string line = trace_record_jsonl(r);
  EXPECT_NE(line.find("\"ev\":\"backoff_draw\""), std::string::npos);
  EXPECT_NE(line.find("\"node\":4"), std::string::npos);
  EXPECT_NE(line.find("\"a\":17"), std::string::npos);
  EXPECT_NE(line.find("\"span\":5"), std::string::npos);
  EXPECT_NE(line.find("\"parent\":2"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

// ---------- metrics ----------

TEST(Metrics, JsonlWriteIsByteDeterministic) {
  MetricsTimeSeries ts;
  ts.period_s = 0.5;
  MetricsSample s;
  s.t_s = 0.5;
  s.flow_delivered = {50, 51};
  s.jain = 0.987654321;
  s.queue_depth_p95 = 12.0;
  ts.samples.push_back(s);

  const std::string p1 = tmp_path("m1.jsonl"), p2 = tmp_path("m2.jsonl");
  std::string err;
  ASSERT_TRUE(write_metrics_jsonl(ts, p1, &err)) << err;
  ASSERT_TRUE(write_metrics_jsonl(ts, p2, &err)) << err;
  EXPECT_EQ(file_bytes(p1), file_bytes(p2));
  EXPECT_NE(file_bytes(p1).find("\"jain\":"), std::string::npos);
  // Deliveries print as rates: delivered / period_s.
  EXPECT_NE(file_bytes(p1).find("\"flow_goodput_pps\":[100,102]"), std::string::npos);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// ---------- end-to-end: tracing a real run ----------

SimConfig obs_config(double seconds) {
  SimConfig cfg;
  cfg.sim_seconds = seconds;
  cfg.seed = 7;
  return cfg;
}

TEST(ObsIntegration, TracingDoesNotPerturbTheRun) {
  const Scenario sc = scenario1();
  const SimConfig plain = obs_config(2.0);
  const RunResult a = run_scenario(sc, Protocol::k2paCentralized, plain);

  SimConfig traced = plain;
  TraceSink sink;
  traced.trace = &sink;
  traced.metrics_period_seconds = 0.5;
  const RunResult b = run_scenario(sc, Protocol::k2paCentralized, traced);

  EXPECT_GT(sink.recorded(), 0u);
  EXPECT_EQ(a.delivered_per_subflow, b.delivered_per_subflow);
  EXPECT_EQ(a.end_to_end_per_flow, b.end_to_end_per_flow);
  EXPECT_EQ(a.lost_packets, b.lost_packets);
  EXPECT_EQ(a.dropped_queue, b.dropped_queue);
  EXPECT_EQ(a.dropped_mac, b.dropped_mac);
  EXPECT_EQ(a.channel.frames_transmitted, b.channel.frames_transmitted);
  EXPECT_EQ(a.channel.frames_corrupted, b.channel.frames_corrupted);
  EXPECT_EQ(a.channel.airtime_ns, b.channel.airtime_ns);
  EXPECT_EQ(a.mean_delay_s, b.mean_delay_s);
}

TEST(ObsIntegration, SameSeedWritesByteIdenticalTraceFiles) {
  const Scenario sc = scenario1();
  const std::string p1 = tmp_path("det1.trace"), p2 = tmp_path("det2.trace");
  for (const std::string& path : {p1, p2}) {
    TraceSink sink;
    std::string err;
    ASSERT_TRUE(sink.open(path, &err)) << err;
    SimConfig cfg = obs_config(1.0);
    cfg.trace = &sink;
    run_scenario(sc, Protocol::k2paCentralized, cfg);
    sink.close();
  }
  const std::string b1 = file_bytes(p1);
  EXPECT_GT(b1.size(), 16u);
  EXPECT_EQ(b1, file_bytes(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(ObsIntegration, FilterKeepsOnlyRequestedCategories) {
  const Scenario sc = scenario1();
  TraceSink all, phy_only;
  std::uint32_t mask = 0;
  std::string err;
  ASSERT_TRUE(parse_trace_filter("phy", &mask, &err));
  phy_only.set_filter(mask);
  for (TraceSink* sink : {&all, &phy_only}) {
    SimConfig cfg = obs_config(1.0);
    cfg.trace = sink;
    run_scenario(sc, Protocol::k2paCentralized, cfg);
  }
  EXPECT_LT(phy_only.recorded(), all.recorded());
  for (const TraceRecord& r : phy_only.records()) {
    const TraceCat c = trace_category(r.event());
    EXPECT_TRUE(c == TraceCat::kPhy || c == TraceCat::kMeta)
        << to_string(r.event());
  }
}

TEST(ObsIntegration, MetricsSamplesCoverTheRunDeterministically) {
  const Scenario sc = scenario1();
  SimConfig cfg = obs_config(2.0);
  cfg.metrics_period_seconds = 0.5;
  const RunResult a = run_scenario(sc, Protocol::k2paCentralized, cfg);
  const RunResult b = run_scenario(sc, Protocol::k2paCentralized, cfg);
  ASSERT_EQ(a.metrics.samples.size(), 4u);
  EXPECT_DOUBLE_EQ(a.metrics.period_s, 0.5);
  EXPECT_TRUE(a.metrics == b.metrics);
  for (const MetricsSample& s : a.metrics.samples) {
    ASSERT_EQ(s.flow_delivered.size(), 2u);
    EXPECT_GT(s.jain, 0.0);
    EXPECT_LE(s.jain, 1.0 + 1e-12);
    EXPECT_GE(s.queue_depth_p95, s.queue_depth_p50);
    EXPECT_GE(s.queue_depth_max, s.queue_depth_p95);
    EXPECT_GT(s.channel_utilization, 0.0);
  }
}

// ---------- convergence analysis ----------

TEST(Convergence, SyntheticTraceConvergesWhenProportionsMatch) {
  // 1 Mbps channel, 125-byte payload: one packet = 1000 bits, so with 1-s
  // windows share = count / 1000.
  std::vector<TraceRecord> rec;
  auto push = [&rec](double t_s, TraceEvent e, int node, int a, int b,
                     double v0, double v1) {
    rec.push_back(TraceRecord{from_seconds(t_s), static_cast<std::uint16_t>(e),
                              static_cast<std::int16_t>(node), a, b, 0, 0, 0, v0,
                              v1});
  };
  push(0, TraceEvent::kRunMeta, -1, 2, 2, 1e6, 125);
  push(0, TraceEvent::kLpResolve, -1, 0, 0, 0, 0);
  push(0, TraceEvent::kFlowTarget, -1, 0, 0, 0.5, 0);
  push(0, TraceEvent::kFlowTarget, -1, 1, 0, 0.25, 0);
  // Window 0 inverts the 2:1 target split; windows 1..3 match it.
  auto deliveries = [&push](double t0, int flow, int count) {
    for (int i = 0; i < count; ++i)
      push(t0 + 1e-4 * i, TraceEvent::kDelivery, 1, flow, 0, 0.01, 0);
  };
  deliveries(0.0, 0, 100);
  deliveries(0.0, 1, 400);
  for (int w = 1; w <= 3; ++w) {
    deliveries(w * 1.0, 0, 400);
    deliveries(w * 1.0, 1, 200);
  }

  const ConvergenceReport rep = analyze_convergence(rec, 1.0, 0.1);
  EXPECT_EQ(rep.flow_count, 2);
  ASSERT_EQ(rep.epochs.size(), 1u);
  EXPECT_EQ(rep.epochs[0].target_share, (std::vector<double>{0.5, 0.25}));
  ASSERT_EQ(rep.window_share.size(), 4u);
  EXPECT_NEAR(rep.window_share[1][0], 0.4, 1e-9);
  EXPECT_NEAR(rep.window_share[1][1], 0.2, 1e-9);
  EXPECT_LT(rep.jain[0], 0.8);
  EXPECT_NEAR(rep.jain[1], 1.0, 1e-9);
  ASSERT_EQ(rep.convergence.size(), 1u);
  ASSERT_TRUE(rep.convergence[0].converged);
  EXPECT_DOUBLE_EQ(rep.convergence[0].converged_s, 2.0);
  EXPECT_GT(rep.steady_jain(0), 0.99);
}

// An epoch shorter than a window owns the window whose midpoint it holds
// (for Jain scoring) but cannot converge on it: that window began, and
// mostly ran, under its neighbours' targets.
TEST(Convergence, SubWindowEpochDoesNotConverge) {
  std::vector<TraceRecord> rec;
  auto push = [&rec](double t_s, TraceEvent e, int a, double v0) {
    rec.push_back(TraceRecord{from_seconds(t_s), static_cast<std::uint16_t>(e), -1, a, 2, 0,
                              0, 0, v0, e == TraceEvent::kRunMeta ? 125.0 : 0.0});
  };
  push(0, TraceEvent::kRunMeta, 2, 1e6);
  // Epochs at 0, 1.47 (0.1 s long) and 1.57 s, all with a 2:1 target split.
  const double starts[] = {0.0, 1.47, 1.57};
  for (int epoch = 0; epoch < 3; ++epoch) {
    const double start = starts[epoch];
    push(start, TraceEvent::kLpResolve, epoch, start);
    push(start, TraceEvent::kFlowTarget, 0, 0.5);
    push(start, TraceEvent::kFlowTarget, 1, 0.25);
  }
  // Every 1-s window delivers in the target proportions.
  for (int w = 0; w < 4; ++w)
    for (int i = 0; i < 300; ++i)
      push(w + 1e-3 * (i + 1), TraceEvent::kDelivery, i % 3 == 0 ? 1 : 0, 0.01);

  const ConvergenceReport rep = analyze_convergence(rec, 1.0, 0.1);
  ASSERT_EQ(rep.epochs.size(), 3u);
  ASSERT_EQ(rep.window_epoch, (std::vector<std::size_t>{0, 1, 2, 2}));
  ASSERT_EQ(rep.convergence.size(), 3u);
  EXPECT_TRUE(rep.convergence[0].converged);
  EXPECT_DOUBLE_EQ(rep.convergence[0].converged_s, 1.0);
  EXPECT_FALSE(rep.convergence[1].converged);  // [1, 2) began in epoch 0
  EXPECT_TRUE(rep.convergence[2].converged);
  EXPECT_DOUBLE_EQ(rep.convergence[2].converged_s, 3.0);  // [2, 3) is the first inside
  EXPECT_NEAR(rep.steady_jain(1), 1.0, 1e-9);  // still scored against its targets
}

TEST(Convergence, RealRunConvergesAndJainReachesSteadyState) {
  const Scenario sc = scenario1();
  TraceSink sink;
  SimConfig cfg = obs_config(10.0);
  cfg.trace = &sink;
  run_scenario(sc, Protocol::k2paCentralized, cfg);

  const ConvergenceReport rep = analyze_convergence(sink.records(), 2.0, 0.25);
  ASSERT_EQ(rep.epochs.size(), 1u);
  ASSERT_EQ(rep.convergence.size(), 1u);
  EXPECT_TRUE(rep.convergence[0].converged);
  EXPECT_GT(rep.convergence[0].time_to_converge_s, 0.0);
  EXPECT_LT(rep.convergence[0].time_to_converge_s, 10.0);

  const double steady = rep.steady_jain(0);
  EXPECT_GT(steady, 0.9);
  // The trajectory must actually reach (not just approach) the steady band.
  bool reached = false;
  for (double j : rep.jain) reached = reached || j >= 0.95 * steady;
  EXPECT_TRUE(reached);
}

TEST(Convergence, ReconvergesAfterFaultEpochs) {
  // The partition_heal diamond (examples/partition_heal.cpp): A→B→D with C
  // as the redundant relay. B crashes at 4 s (reroute via C), C crashes at
  // 8 s (partition, flow suspended), B recovers at 12 s (heal). Every
  // re-solved epoch with a positive target must re-converge; the partition
  // epoch must not.
  Scenario sc{"partition-heal",
              Topology({{0, 0}, {200, 150}, {200, -150}, {400, 0}}, 250.0),
              {},
              {}};
  sc.flow_specs.push_back(make_routed_flow(sc.topo, 0, 3));
  sc.faults.node_down(1, 4.0);
  sc.faults.node_down(2, 8.0);
  sc.faults.node_up(1, 12.0);

  TraceSink sink;
  SimConfig cfg = obs_config(18.0);
  cfg.trace = &sink;
  run_scenario(sc, Protocol::k2paCentralized, cfg);

  const ConvergenceReport rep = analyze_convergence(sink.records(), 2.0, 0.3);
  ASSERT_EQ(rep.epochs.size(), 4u);
  EXPECT_GT(rep.epochs[1].target_share[0], 0.0);   // rerouted via C
  EXPECT_DOUBLE_EQ(rep.epochs[2].target_share[0], 0.0);  // partitioned
  EXPECT_GT(rep.epochs[3].target_share[0], 0.0);   // healed
  ASSERT_EQ(rep.convergence.size(), 4u);
  EXPECT_TRUE(rep.convergence[0].converged);
  EXPECT_TRUE(rep.convergence[1].converged);
  EXPECT_FALSE(rep.convergence[2].converged);  // nothing to converge to
  EXPECT_TRUE(rep.convergence[3].converged);
  EXPECT_GE(rep.convergence[3].converged_s, 12.0);
  EXPECT_GT(rep.convergence[3].time_to_converge_s, 0.0);
}

// The sampler (RunResult::metrics) and the trace analysis share one window
// definition: on churn runs traced with the meta, lp and flow categories and
// sampled at the same period, every window both cover carries the same
// per-flow deliveries and the same Jain index, bit for bit. The arrivals and
// departures fall mid-window, so the midpoint epoch rule is exercised; the
// 802.11 run takes the no-target (raw-rate) path.
TEST(Convergence, TraceSeriesEqualsTheSamplerBitForBit) {
  Scenario sc = scenario2();
  sc.activity.assign(sc.flow_specs.size(), FlowActivity{});
  sc.activity[1] = {0.0, 4.3};
  sc.activity[2] = {1.7, 6.2};
  sc.activity[4] = {3.1, kFlowNeverStops};
  std::uint32_t filter = 0;
  std::string err;
  ASSERT_TRUE(parse_trace_filter("meta,lp,flow", &filter, &err)) << err;
  for (Protocol proto :
       {Protocol::k2paCentralized, Protocol::k2paDistributedCtrl, Protocol::k80211}) {
    SCOPED_TRACE(to_string(proto));
    TraceSink sink;
    sink.set_filter(filter);
    SimConfig cfg = obs_config(8.0);
    cfg.trace = &sink;
    cfg.metrics_period_seconds = 0.4;
    const RunResult r = run_scenario(sc, proto, cfg);
    const ConvergenceReport rep =
        analyze_convergence(sink.records(), cfg.metrics_period_seconds, 0.2);
    const std::vector<MetricsSample>& samples = r.metrics.samples;
    ASSERT_EQ(samples.size(), 20u);
    ASSERT_GE(rep.jain.size(), samples.size());
    ASSERT_EQ(rep.epochs.size(), 5u);  // boundaries 0, 1.7, 3.1, 4.3, 6.2
    for (std::size_t w = 0; w < samples.size(); ++w) {
      SCOPED_TRACE(w);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rep.window_end_s[w]),
                std::bit_cast<std::uint64_t>(samples[w].t_s));
      EXPECT_EQ(rep.window_delivered[w], samples[w].flow_delivered);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rep.jain[w]),
                std::bit_cast<std::uint64_t>(samples[w].jain));
    }
    // The phase-1 protocols score against their targets; 802.11 has none.
    double targets = 0.0;
    for (const ConvergenceReport::Epoch& e : rep.epochs)
      for (double t : e.target_share) targets += t;
    EXPECT_EQ(targets > 0.0, proto != Protocol::k80211);
  }
}

// ---------- causal spans (observability v2) ----------

TEST(Span, RoundTripsThroughBinaryFiles) {
  const std::string path = tmp_path("span.trace");
  std::vector<TraceRecord> written;
  written.push_back(TraceRecord{10, static_cast<std::uint16_t>(TraceEvent::kCtrlSend),
                                0, 2, -1, 7, 0, 0, 64.0, 1.0});
  written.push_back(TraceRecord{20, static_cast<std::uint16_t>(TraceEvent::kFrameTx),
                                0, 4, -1, 8, 7, 0, 64.0, 0.0});
  written.push_back(TraceRecord{30, static_cast<std::uint16_t>(TraceEvent::kFrameRx),
                                1, 4, 0, 0, 8, 0, 64.0, 0.0});
  std::string err;
  ASSERT_TRUE(write_trace_file(written, path, &err)) << err;
  std::vector<TraceRecord> read;
  ASSERT_TRUE(read_trace(path, &read, &err)) << err;
  EXPECT_EQ(read, written);  // TraceRecord == covers span/parent fields
  std::remove(path.c_str());
}

TEST(Span, NewSpanIsMonotonicAndNeverZero) {
  TraceSink sink;
  EXPECT_EQ(sink.new_span(), 1u);
  EXPECT_EQ(sink.new_span(), 2u);
  EXPECT_EQ(sink.new_span(), 3u);
}

TEST(Span, GraphRebuildsParentChildEdges) {
  std::vector<TraceRecord> rec;
  // Root span 1 -> child span 2 -> leaf (no own span); unrelated record.
  rec.push_back(TraceRecord{0, static_cast<std::uint16_t>(TraceEvent::kCtrlSend),
                            0, 2, -1, 1, 0, 0, 0, 0});
  rec.push_back(TraceRecord{1, static_cast<std::uint16_t>(TraceEvent::kFrameTx),
                            0, 4, -1, 2, 1, 0, 0, 0});
  rec.push_back(TraceRecord{2, static_cast<std::uint16_t>(TraceEvent::kFrameRx),
                            1, 4, 0, 0, 2, 0, 0, 0});
  rec.push_back(TraceRecord{3, static_cast<std::uint16_t>(TraceEvent::kMacRetry),
                            1, 1, -1, 0, 0, 0, 0, 0});
  const SpanGraph g = build_span_graph(rec);
  ASSERT_EQ(g.roots.size(), 1u);
  EXPECT_EQ(g.roots[0], 0u);
  ASSERT_EQ(g.owner.count(1u), 1u);
  ASSERT_EQ(g.owner.count(2u), 1u);
  EXPECT_EQ(g.children.at(1u), (std::vector<std::size_t>{1}));
  EXPECT_EQ(g.children.at(2u), (std::vector<std::size_t>{2}));
}

// ---------- trace read errors ----------

TEST(Trace, ReadErrorsNameTheRecordAndByteOffset) {
  const std::string path = tmp_path("detail.trace");
  std::string err;
  std::vector<TraceRecord> out;

  // Truncated mid-record: the error names the 1-based record and offset.
  {
    std::vector<TraceRecord> rec(2);
    rec[0].type = static_cast<std::uint16_t>(TraceEvent::kFrameTx);
    rec[1].type = static_cast<std::uint16_t>(TraceEvent::kFrameRx);
    ASSERT_TRUE(write_trace_file(rec, path, &err));
    std::string bytes = file_bytes(path);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 7));
  }
  ASSERT_FALSE(read_trace(path, &out, &err));
  EXPECT_NE(err.find("truncated trace record 2"), std::string::npos) << err;

  // Unknown event type: a corrupt record, rejected with its position.
  {
    std::vector<TraceRecord> rec(1);
    rec[0].type = kTraceEventCount;  // first undefined value
    ASSERT_TRUE(write_trace_file(rec, path, &err));
  }
  ASSERT_FALSE(read_trace(path, &out, &err));
  EXPECT_NE(err.find("unknown event type"), std::string::npos) << err;
  EXPECT_NE(err.find("record 1"), std::string::npos) << err;

  // Header/record-count mismatch (an interrupted writer).
  {
    std::vector<TraceRecord> rec(3);
    rec[0].type = rec[1].type = rec[2].type =
        static_cast<std::uint16_t>(TraceEvent::kFrameTx);
    ASSERT_TRUE(write_trace_file(rec, path, &err));
    std::string bytes = file_bytes(path);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size() - sizeof(TraceRecord)));
  }
  ASSERT_FALSE(read_trace(path, &out, &err));
  EXPECT_NE(err.find("incomplete"), std::string::npos) << err;
  std::remove(path.c_str());
}

// ---------- flight recorder ----------

TEST(FlightRecorder, RingKeepsTheMostRecentRecords) {
  TraceSink sink;
  sink.set_ring(4);
  EXPECT_TRUE(sink.ring_mode());
  for (int i = 0; i < 10; ++i)
    sink.record(100 * i, TraceEvent::kFrameTx,
                static_cast<std::int16_t>(i), i, -1);
  EXPECT_EQ(sink.recorded(), 10u);
  const std::vector<TraceRecord> recent = sink.recent_records();
  ASSERT_EQ(recent.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(recent[static_cast<std::size_t>(i)].t, 100 * (6 + i));
    EXPECT_EQ(recent[static_cast<std::size_t>(i)].a, 6 + i);
  }
}

TEST(FlightRecorder, OnlyRingAndInMemorySinksKeepRecentRecords) {
  // A streaming TraceSink(4) flushes every fourth record, so its buffer
  // holds 1, 2, 3, 0, ... of them: never the history, which is in the
  // file. Asking it is a contract violation; an in-memory sink keeps all.
  const std::string path = tmp_path("streaming_recent.trace");
  TraceSink streaming(4), memory(4);
  std::string err;
  ASSERT_TRUE(streaming.open(path, &err)) << err;
  for (int i = 0; i < 8; ++i) {
    streaming.record(100 * i, TraceEvent::kFrameTx, 0, i, -1);
    memory.record(100 * i, TraceEvent::kFrameTx, 0, i, -1);
    EXPECT_THROW(streaming.recent_records(), ContractViolation);
    const std::vector<TraceRecord> recent = memory.recent_records();
    ASSERT_EQ(recent.size(), static_cast<std::size_t>(i + 1));
    EXPECT_EQ(recent.back().a, i);
  }
  streaming.close();
  std::remove(path.c_str());
}

TEST(FlightRecorder, ViolationSnapshotDumpIsByteDeterministic) {
  // The deliberate off-by-one queue oracle (the fuzzer's injected bug): a
  // correct run trips the queue invariant, the armed flight recorder
  // snapshots the ring at the FIRST violation, and the dump is a loadable
  // trace file that is byte-identical across reruns of the same seed.
  const Scenario sc = scenario1();
  auto run_once = [&](const std::string& dump_path) {
    CheckConfig ccfg;
    ccfg.queue_capacity_override = 4;  // real capacity below is 5
    CheckContext check(ccfg);
    TraceSink ring;
    ring.set_ring(1u << 10);
    check.arm_flight_recorder(&ring);
    SimConfig cfg = obs_config(2.0);
    cfg.queue_capacity = 5;
    cfg.trace = &ring;
    cfg.check = &check;
    run_scenario(sc, Protocol::k2paCentralized, cfg);
    EXPECT_FALSE(check.ok());
    EXPECT_FALSE(check.flight_records().empty());
    std::string err;
    ASSERT_TRUE(write_trace_file(check.flight_records(), dump_path, &err))
        << err;
  };
  const std::string p1 = tmp_path("flight1.trace"), p2 = tmp_path("flight2.trace");
  run_once(p1);
  run_once(p2);
  EXPECT_EQ(file_bytes(p1), file_bytes(p2));
  // The dump must load cleanly through the normal reader.
  std::vector<TraceRecord> loaded;
  std::string err;
  ASSERT_TRUE(read_trace(p1, &loaded, &err)) << err;
  EXPECT_FALSE(loaded.empty());
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// ---------- self-profiler ----------

TEST(Profiler, AccumulatesScopesAndRendersBenchStyleJson) {
  Profiler p;
  { Profiler::Scope s(&p, Profiler::Phase::kSolve); }
  { Profiler::Scope s(&p, Profiler::Phase::kSolve); }
  { Profiler::Scope s(nullptr, Profiler::Phase::kSim); }  // null = no-op
  EXPECT_EQ(p.calls(Profiler::Phase::kSolve), 2);
  EXPECT_EQ(p.calls(Profiler::Phase::kSim), 0);
  const std::string json = p.json("unit");
  EXPECT_NE(json.find("\"name\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"solve_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"solve_calls\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_mb\":"), std::string::npos);
}

TEST(Profiler, PhaseCallCountsAreStableAcrossBatchThreadCounts) {
  // Wall-clock seconds vary run to run, but the *call counts* per phase are
  // pure functions of the trajectory, which is thread-count independent.
  const Scenario sc = scenario1();
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  auto run_with = [&](int jobs) {
    Profiler prof;
    SimConfig cfg = obs_config(1.0);
    cfg.profile = &prof;
    BatchRunner(jobs).run_seeds(sc, Protocol::k2paDistributedCtrl, cfg, seeds);
    std::vector<std::int64_t> calls;
    for (int ph = 0; ph < Profiler::kPhaseCount; ++ph)
      calls.push_back(prof.calls(static_cast<Profiler::Phase>(ph)));
    return calls;
  };
  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_GT(serial[static_cast<int>(Profiler::Phase::kSim)], 0);
  EXPECT_GT(serial[static_cast<int>(Profiler::Phase::kPhy)], 0);
  EXPECT_GT(serial[static_cast<int>(Profiler::Phase::kCtrl)], 0);
  EXPECT_GT(serial[static_cast<int>(Profiler::Phase::kSetup)], 0);
}

TEST(Profiler, DoesNotPerturbTheRun) {
  const Scenario sc = scenario1();
  const SimConfig plain = obs_config(1.0);
  const RunResult a = run_scenario(sc, Protocol::k2paDistributedCtrl, plain);
  Profiler prof;
  SimConfig profiled = plain;
  profiled.profile = &prof;
  const RunResult b = run_scenario(sc, Protocol::k2paDistributedCtrl, profiled);
  EXPECT_EQ(a.end_to_end_per_flow, b.end_to_end_per_flow);
  EXPECT_EQ(a.channel.frames_transmitted, b.channel.frames_transmitted);
  EXPECT_GT(prof.calls(Profiler::Phase::kSim), 0);
}

// ---------- causal chains from a real control-plane run ----------

/// Runs the paper's scenario 1 under the in-band control plane with churn
/// (flow 1 arrives mid-run, triggering an in-band ADMIT round) and link
/// loss (forcing hardened-mode retransmits); returns the trace.
std::vector<TraceRecord> ctrl_span_trace() {
  Scenario sc = scenario1();
  sc.activity.assign(sc.flow_specs.size(), FlowActivity{});
  sc.activity[1].start_s = 2.0;
  sc.activity[1].stop_s = 1e9;
  sc.faults.set_default_loss(0.25);
  TraceSink sink;
  SimConfig cfg = obs_config(8.0);
  cfg.trace = &sink;
  run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);
  return sink.records();
}

TEST(Follow, ReconstructsAdmitRoundAndSolveChainsWithRetransmits) {
  const std::vector<TraceRecord> rec = ctrl_span_trace();
  const SpanGraph g = build_span_graph(rec);

  // Collect, per causal root, which milestones the subtree contains.
  bool admit_round = false;   // ADMIT_REQ send ... ADMIT_RSP send in one tree
  bool solve_chain = false;   // CONSTRAINT send -> solve -> RATE application
  for (std::size_t root : g.roots) {
    bool req = false, rsp = false, constraint = false, solve = false,
         rate = false;
    std::vector<std::size_t> stack{root};
    while (!stack.empty()) {
      const TraceRecord& r = rec[stack.back()];
      stack.pop_back();
      if (r.event() == TraceEvent::kCtrlSend) {
        if (r.a == static_cast<int>(CtrlMsg::Kind::kAdmitReq)) req = true;
        if (r.a == static_cast<int>(CtrlMsg::Kind::kAdmitRsp)) rsp = true;
        if (r.a == static_cast<int>(CtrlMsg::Kind::kConstraint))
          constraint = true;
      }
      if (r.event() == TraceEvent::kCtrlSolve) solve = true;
      if (r.event() == TraceEvent::kCtrlRate) rate = true;
      if (r.span != 0) {
        const auto it = g.children.find(r.span);
        if (it != g.children.end())
          for (std::size_t c : it->second) stack.push_back(c);
      }
    }
    admit_round = admit_round || (req && rsp);
    solve_chain = solve_chain || (constraint && solve && rate);
  }
  EXPECT_TRUE(admit_round)
      << "no causal tree contains a full ADMIT_REQ -> ADMIT_RSP round";
  EXPECT_TRUE(solve_chain)
      << "no causal tree contains CONSTRAINT -> solve -> RATE";

  // Retransmits chain back to the original send's span.
  std::size_t retx = 0, retx_linked = 0;
  for (const TraceRecord& r : rec) {
    if (r.event() != TraceEvent::kCtrlRetransmit) continue;
    ++retx;
    const auto it = g.owner.find(r.parent);
    if (it != g.owner.end() &&
        rec[it->second].event() == TraceEvent::kCtrlSend)
      ++retx_linked;
  }
  EXPECT_GT(retx, 0u) << "25% loss over 8 s produced no ctrl retransmit";
  EXPECT_EQ(retx, retx_linked);

  // The human-facing report renders the same chains.
  const std::string report = format_follow(rec, -1, 0);
  EXPECT_NE(report.find("ADMIT_REQ"), std::string::npos);
  EXPECT_NE(report.find("retransmits"), std::string::npos);
  EXPECT_NE(report.find("causal chains"), std::string::npos);
}

TEST(Follow, SpanAllocationIsDeterministicPerSeed) {
  const std::vector<TraceRecord> a = ctrl_span_trace();
  const std::vector<TraceRecord> b = ctrl_span_trace();
  EXPECT_EQ(a, b);
}

// ---------- chrome export + ctrl-health summary ----------

TEST(Chrome, ExportCarriesTracksSlicesAndSpanArrows) {
  std::vector<TraceRecord> rec;
  rec.push_back(TraceRecord{0, static_cast<std::uint16_t>(TraceEvent::kRunMeta),
                            -1, 2, 1, 0, 0, 0, 1e6, 125.0});
  rec.push_back(TraceRecord{1000, static_cast<std::uint16_t>(TraceEvent::kFrameTx),
                            0, 2, 1, 3, 0, 0, 125.0, 0.0});
  rec.push_back(TraceRecord{2000, static_cast<std::uint16_t>(TraceEvent::kFrameRx),
                            1, 2, 0, 0, 3, 0, 125.0, 0.0});
  const std::string json = format_chrome_trace(rec);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // tx slice
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // span arrow out
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // span arrow in
  // 125 bytes at 1 Mbps = 1 ms airtime = 1000 µs.
  EXPECT_NE(json.find("\"dur\":1000.000"), std::string::npos);
}

TEST(Summary, SurfacesCtrlHealthCounters) {
  std::vector<TraceRecord> rec;
  rec.push_back(TraceRecord{0, static_cast<std::uint16_t>(TraceEvent::kCtrlRetransmit),
                            2, static_cast<int>(CtrlMsg::Kind::kConstraint), 0,
                            0, 0, 0, 1.0, 4.0});
  rec.push_back(TraceRecord{1, static_cast<std::uint16_t>(TraceEvent::kCtrlSeqGap),
                            3, 1, 2, 0, 0, 0, 5.0, 7.0});
  rec.push_back(TraceRecord{2, static_cast<std::uint16_t>(TraceEvent::kCtrlReconv),
                            -1, 1, -1, 0, 0, 0, 0.42, 5.0});
  const std::string s = format_trace_summary(rec);
  EXPECT_NE(s.find("ctrl health:"), std::string::npos);
  EXPECT_NE(s.find("retransmits"), std::string::npos);
  EXPECT_NE(s.find("CONSTRAINT 1"), std::string::npos);
  EXPECT_NE(s.find("seq gaps             1 (2 messages missed)"),
            std::string::npos);
  EXPECT_NE(s.find("reconv epoch 1"), std::string::npos);
  EXPECT_NE(s.find("0.420 s"), std::string::npos);
}

TEST(Metrics, JsonlCarriesCtrlHealthAndReconv) {
  MetricsTimeSeries ts;
  ts.period_s = 1.0;
  ts.reconv_s = {0.5, -1.0};
  MetricsSample s;
  s.ctrl_retransmits = 3.0;
  s.ctrl_seq_gaps = 1.0;
  ts.samples.push_back(s);
  const std::string path = tmp_path("ctrl_health.jsonl");
  std::string err;
  ASSERT_TRUE(write_metrics_jsonl(ts, path, &err)) << err;
  const std::string bytes = file_bytes(path);
  EXPECT_NE(bytes.find("\"reconv_s\":[0.5,-1]"), std::string::npos);
  EXPECT_NE(bytes.find("\"ctrl_retransmits\":3"), std::string::npos);
  EXPECT_NE(bytes.find("\"ctrl_seq_gaps\":1"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace e2efa
