#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "alloc/centralized.hpp"
#include "net/faults.hpp"
#include "net/runner.hpp"
#include "net/scenario_file.hpp"
#include "util/assert.hpp"

namespace e2efa {
namespace {

constexpr const char* kFig1Text = R"(
# Fig. 1 topology
range 250
node A 0 0
node B 200 0
node C 400 0
node D 800 0
node E 600 0
node F 600 -200
flow A C
flow D F
)";

TEST(ScenarioFile, ParsesFig1Equivalent) {
  const Scenario sc = parse_scenario_text(kFig1Text, "fig1");
  EXPECT_EQ(sc.topo.node_count(), 6);
  EXPECT_EQ(sc.topo.label(0), "A");
  ASSERT_EQ(sc.flow_specs.size(), 2u);
  // Routed flows found the 2-hop paths.
  EXPECT_EQ(sc.flow_specs[0].path, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(sc.flow_specs[1].path, (std::vector<NodeId>{3, 4, 5}));

  // And the allocation machinery gives the paper's Fig.-1 answer.
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph graph(sc.topo, flows);
  const auto r = centralized_allocate(graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.allocation.flow_share[0], 0.5, 1e-6);
  EXPECT_NEAR(r.allocation.flow_share[1], 0.25, 1e-6);
}

TEST(ScenarioFile, ExplicitPathAndWeight) {
  const Scenario sc = parse_scenario_text(R"(
node X 0 0
node Y 200 0
node Z 400 0
flow X Y Z weight 2.5
flow Z X weight 0.5
)");
  ASSERT_EQ(sc.flow_specs.size(), 2u);
  EXPECT_EQ(sc.flow_specs[0].path, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sc.flow_specs[0].weight, 2.5);
  EXPECT_DOUBLE_EQ(sc.flow_specs[1].weight, 0.5);
}

TEST(ScenarioFile, CustomRanges) {
  const Scenario sc = parse_scenario_text(R"(
range 100
irange 300
node A 0 0
node B 90 0
node C 200 0
flow A B
)");
  EXPECT_TRUE(sc.topo.has_link(0, 1));
  EXPECT_FALSE(sc.topo.has_link(1, 2));   // 110 m > 100 m tx range
  EXPECT_TRUE(sc.topo.interferes(1, 2));  // < 300 m interference
}

TEST(ScenarioFile, CommentsAndBlanksIgnored) {
  const Scenario sc = parse_scenario_text(R"(
# header comment

node A 0 0   # inline comment
node B 100 0
flow A B     # routed
)");
  EXPECT_EQ(sc.topo.node_count(), 2);
}

TEST(ScenarioFile, ErrorsCarryLineNumbers) {
  try {
    parse_scenario_text("node A 0 0\nnode A 1 1\n");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(ScenarioFile, RejectsMalformedInput) {
  EXPECT_THROW(parse_scenario_text("bogus A\n"), ContractViolation);
  EXPECT_THROW(parse_scenario_text("node A 0 0\nflow A\n"), ContractViolation);
  EXPECT_THROW(parse_scenario_text("node A 0 0\nnode B 10 0\nflow A Q\n"),
               ContractViolation);
  EXPECT_THROW(parse_scenario_text("range -1\nnode A 0 0\nflow A A\n"),
               ContractViolation);
  EXPECT_THROW(parse_scenario_text("node A 0 0\n"), ContractViolation);  // no flows
  EXPECT_THROW(parse_scenario_text("flow A B\n"), ContractViolation);    // no nodes
  // Unreachable routed flow.
  EXPECT_THROW(parse_scenario_text("node A 0 0\nnode B 9999 0\nflow A B\n"),
               ContractViolation);
  // Explicit path over a non-link.
  EXPECT_THROW(
      parse_scenario_text("node A 0 0\nnode B 100 0\nnode C 9999 0\nflow A B C\n"),
      ContractViolation);
  // Weight without value / extra token.
  EXPECT_THROW(parse_scenario_text("node A 0 0\nnode B 10 0\nflow A B weight\n"),
               ContractViolation);
  EXPECT_THROW(parse_scenario_text("node A 0 0\nnode B 10 0\nflow A B weight 1 x\n"),
               ContractViolation);
  // Trailing or partial tokens, each rejected with its line number.
  for (const char* bad : {"range 250x", "irange 300y", "node b 200 0 junk",
                          "flow_arrive 1.5"}) {
    try {
      parse_scenario_text(
          std::string("node A 0 0\nnode B 200 0\nflow A B\nflow B A\n") + bad);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos) << e.what();
    }
  }
}

TEST(ScenarioFile, FaultDirectivesRoundTrip) {
  const Scenario sc = parse_scenario_text(R"(
node A 0 0
node B 200 0
node C 400 0
flow A C
fault node B 10
recover node B 30
fault link A B 15
recover link A B 25
loss A B 0.05
loss default 0.01
)");
  ASSERT_EQ(sc.faults.events().size(), 4u);
  const auto& ev = sc.faults.events();
  EXPECT_EQ(ev[0].kind, FaultEvent::Kind::kNodeDown);
  EXPECT_EQ(ev[0].node, 1);
  EXPECT_DOUBLE_EQ(ev[0].at_s, 10.0);
  EXPECT_EQ(ev[1].kind, FaultEvent::Kind::kNodeUp);
  EXPECT_EQ(ev[1].node, 1);
  EXPECT_DOUBLE_EQ(ev[1].at_s, 30.0);
  EXPECT_EQ(ev[2].kind, FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(ev[2].node, 0);
  EXPECT_EQ(ev[2].peer, 1);
  EXPECT_DOUBLE_EQ(ev[2].at_s, 15.0);
  EXPECT_EQ(ev[3].kind, FaultEvent::Kind::kLinkUp);
  EXPECT_DOUBLE_EQ(ev[3].at_s, 25.0);

  ASSERT_EQ(sc.faults.loss_rules().size(), 1u);
  EXPECT_DOUBLE_EQ(sc.faults.loss(0, 1), 0.05);
  EXPECT_DOUBLE_EQ(sc.faults.loss(1, 0), 0.05);  // symmetric
  EXPECT_DOUBLE_EQ(sc.faults.loss(1, 2), 0.01);  // default
  EXPECT_DOUBLE_EQ(sc.faults.default_loss(), 0.01);

  // Epochs come back sorted and deduplicated; validation accepts the plan.
  EXPECT_EQ(sc.faults.event_times(), (std::vector<double>{10, 15, 25, 30}));
  EXPECT_NO_THROW(sc.faults.validate(sc.topo.node_count()));

  // Labels may be used before they are defined: directives resolve after
  // the whole file is read.
  const Scenario fwd = parse_scenario_text(
      "fault node B 5\nnode A 0 0\nnode B 200 0\nflow A B\n");
  ASSERT_EQ(fwd.faults.events().size(), 1u);
  EXPECT_EQ(fwd.faults.events()[0].node, 1);
}

TEST(ScenarioFile, FaultErrorsCarryLineNumbers) {
  const auto expect_fail = [](const std::string& text, int line,
                              const std::string& needle) {
    try {
      parse_scenario_text(text);
      FAIL() << "should have thrown for: " << text;
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line " + std::to_string(line)), std::string::npos)
          << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  const std::string base = "node A 0 0\nnode B 200 0\nflow A B\n";  // lines 1-3
  expect_fail(base + "fault node Q 5\n", 4, "unknown node label Q");
  expect_fail(base + "fault node B -1\n", 4, "must not be negative");
  expect_fail(base + "loss A B 1.5\n", 4, "within [0, 1]");
  expect_fail(base + "loss A B -0.1\n", 4, "within [0, 1]");
  expect_fail(base + "loss A Q 0.1\n", 4, "unknown node label Q");
  expect_fail(base + "fault link A A 5\n", 4, "endpoints must differ");
  expect_fail(base + "loss A A 0.1\n", 4, "endpoints must differ");
  expect_fail(base + "fault B 5\n", 4, "node|link");
  expect_fail(base + "fault node B\n", 4, "a node label and a time");
  expect_fail(base + "fault link A B\n", 4, "two node labels and a time");
  expect_fail(base + "recover node B 5 junk\n", 4, "unexpected token");
  expect_fail(base + "loss default\n", 4, "needs a rate");
  expect_fail(base + "loss A\n", 4, "loss needs");
}

TEST(ScenarioFile, ParsedFaultPlanMatchesProgrammatic) {
  const Scenario parsed = parse_scenario_text(R"(
node A 0 0
node B 200 0
node C 400 0
flow A C
fault node B 2
recover node B 4
loss default 0.05
)");
  Scenario programmatic{"twin", Topology({{0, 0}, {200, 0}, {400, 0}}, 250.0),
                        {}, {}, {}, {}};
  Flow f;
  f.path = {0, 1, 2};
  programmatic.flow_specs.push_back(f);
  programmatic.faults.node_down(1, 2.0);
  programmatic.faults.node_up(1, 4.0);
  programmatic.faults.set_default_loss(0.05);

  SimConfig cfg;
  cfg.sim_seconds = 6.0;
  cfg.seed = 9;
  const RunResult a = run_scenario(parsed, Protocol::k2paCentralized, cfg);
  const RunResult b = run_scenario(programmatic, Protocol::k2paCentralized, cfg);
  EXPECT_EQ(a.delivered_per_subflow, b.delivered_per_subflow);
  EXPECT_EQ(a.end_to_end_per_flow, b.end_to_end_per_flow);
  EXPECT_EQ(a.suspended_per_flow, b.suspended_per_flow);
  EXPECT_EQ(a.epoch_end_to_end, b.epoch_end_to_end);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.channel.frames_faulted, b.channel.frames_faulted);
}

TEST(ScenarioFile, ChurnAndMobilityDirectivesRoundTrip) {
  const Scenario sc = parse_scenario_text(R"(
node A 0 0
node B 200 0
node C 400 0
flow A C
flow C A
flow_arrive 1 2.5
flow_depart 1 7
mobility B speed 12 pause 0.5 seed 9
)");
  ASSERT_EQ(sc.activity.size(), 2u);
  EXPECT_DOUBLE_EQ(sc.activity[0].start_s, 0.0);
  EXPECT_EQ(sc.activity[0].stop_s, kFlowNeverStops);
  EXPECT_DOUBLE_EQ(sc.activity[1].start_s, 2.5);
  EXPECT_DOUBLE_EQ(sc.activity[1].stop_s, 7.0);
  ASSERT_EQ(sc.mobility.size(), 1u);
  EXPECT_EQ(sc.mobility[0].node, 1);
  EXPECT_DOUBLE_EQ(sc.mobility[0].speed_mps, 12.0);
  EXPECT_DOUBLE_EQ(sc.mobility[0].pause_s, 0.5);
  EXPECT_EQ(sc.mobility[0].seed, 9u);

  // Serialization carries the directives and is a fixed point.
  const std::string text = serialize_scenario_text(sc);
  EXPECT_NE(text.find("flow_arrive 1 2.5"), std::string::npos) << text;
  EXPECT_NE(text.find("flow_depart 1 7"), std::string::npos) << text;
  EXPECT_NE(text.find("mobility B speed 12"), std::string::npos) << text;
  const Scenario back = parse_scenario_text(text);
  EXPECT_EQ(back.activity, sc.activity);
  EXPECT_EQ(back.mobility, sc.mobility);
  EXPECT_EQ(serialize_scenario_text(back), text);

  // An all-default window set is normalized away: a file whose churn
  // directives cancel out parses as a churn-free scenario.
  const Scenario trivial = parse_scenario_text(
      "node A 0 0\nnode B 200 0\nflow A B\nflow_arrive 0 0\n");
  EXPECT_TRUE(trivial.activity.empty());
}

TEST(ScenarioFile, ChurnAndMobilityErrorsCarryLineNumbers) {
  const auto expect_fail = [](const std::string& text, int line,
                              const std::string& needle) {
    try {
      parse_scenario_text(text);
      FAIL() << "should have thrown for: " << text;
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line " + std::to_string(line)), std::string::npos)
          << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  const std::string base = "node A 0 0\nnode B 200 0\nflow A B\n";  // lines 1-3
  expect_fail(base + "flow_arrive 5 1\n", 4, "out of range (1 flows defined)");
  expect_fail(base + "flow_depart -1 1\n", 4, "must not be negative");
  expect_fail(base + "flow_arrive 0 -2\n", 4, "must not be negative");
  expect_fail(base + "flow_arrive 0 1 junk\n", 4, "unexpected token");
  expect_fail(base + "flow_arrive 0 1\nflow_arrive 0 2\n", 5,
              "duplicate flow_arrive for flow 0 (line 4)");
  expect_fail(base + "flow_depart 0 1\nflow_depart 0 2\n", 5,
              "duplicate flow_depart for flow 0 (line 4)");
  expect_fail(base + "flow_arrive 0 5\nflow_depart 0 3\n", 5,
              "at or before flow 0's arrival");
  expect_fail(base + "mobility Q speed 5\n", 4, "unknown node label Q");
  expect_fail(base + "mobility B\n", 4, "positive speed");
  expect_fail(base + "mobility B speed -3\n", 4, "positive speed");
  expect_fail(base + "mobility B pace 5\n", 4, "unknown mobility option");
  expect_fail(base + "mobility B speed 5\nmobility B speed 6\n", 5,
              "duplicate mobility for node B (line 4)");
  // Backwards fault times for one target are rejected at the source.
  expect_fail(base + "fault node B 30\nrecover node B 10\n", 5,
              "out-of-order time 10");
}

TEST(ScenarioFile, LoadFromDisk) {
  const std::string path = "/tmp/e2efa_scenario_test.txt";
  {
    std::ofstream out(path);
    out << kFig1Text;
  }
  const Scenario sc = load_scenario_file(path);
  EXPECT_EQ(sc.topo.node_count(), 6);
  EXPECT_EQ(sc.name, path);
  std::remove(path.c_str());
  EXPECT_THROW(load_scenario_file(path), ContractViolation);  // now gone
}

}  // namespace
}  // namespace e2efa
