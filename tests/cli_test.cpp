#include <gtest/gtest.h>

#include "net/cli.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace e2efa {
namespace {

std::optional<CliOptions> parse(std::vector<const char*> args, std::string* err) {
  args.insert(args.begin(), "e2efa-sim");
  return parse_cli(static_cast<int>(args.size()), args.data(), err);
}

TEST(Cli, DefaultsWhenNoArgs) {
  std::string err;
  const auto opt = parse({}, &err);
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(opt->scenario, "1");
  EXPECT_EQ(opt->protocol, Protocol::k2paCentralized);
  EXPECT_DOUBLE_EQ(opt->config.sim_seconds, 60.0);
  EXPECT_FALSE(opt->list_shares);
  EXPECT_FALSE(opt->check);
}

TEST(Cli, ParsesCheckFlag) {
  std::string err;
  const auto opt = parse({"--check"}, &err);
  ASSERT_TRUE(opt.has_value()) << err;
  EXPECT_TRUE(opt->check);
}

TEST(Cli, ParsesAllOptions) {
  std::string err;
  const auto opt = parse({"--scenario", "chain:4", "--protocol", "2pa-d", "--seconds",
                          "120", "--warmup", "5", "--pps", "50", "--alpha", "0.001",
                          "--seed", "42", "--queue", "10", "--shares"},
                         &err);
  ASSERT_TRUE(opt.has_value()) << err;
  EXPECT_EQ(opt->scenario, "chain:4");
  EXPECT_EQ(opt->protocol, Protocol::k2paDistributed);
  EXPECT_DOUBLE_EQ(opt->config.sim_seconds, 120.0);
  EXPECT_DOUBLE_EQ(opt->config.warmup_seconds, 5.0);
  EXPECT_DOUBLE_EQ(opt->config.cbr_pps, 50.0);
  EXPECT_DOUBLE_EQ(opt->config.alpha, 0.001);
  EXPECT_EQ(opt->config.seed, 42u);
  EXPECT_EQ(opt->config.queue_capacity, 10);
  EXPECT_TRUE(opt->list_shares);
}

TEST(Cli, HelpReturnsEmptyError) {
  std::string err = "sentinel";
  EXPECT_FALSE(parse({"--help"}, &err).has_value());
  EXPECT_TRUE(err.empty());
  EXPECT_NE(cli_usage().find("--scenario"), std::string::npos);
}

TEST(Cli, RejectsUnknownOption) {
  std::string err;
  EXPECT_FALSE(parse({"--bogus", "1"}, &err).has_value());
  EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST(Cli, RejectsMissingValue) {
  std::string err;
  EXPECT_FALSE(parse({"--seconds"}, &err).has_value());
  EXPECT_NE(err.find("missing value"), std::string::npos);
}

TEST(Cli, RejectsBadValues) {
  std::string err;
  EXPECT_FALSE(parse({"--seconds", "-5"}, &err).has_value());
  EXPECT_FALSE(parse({"--pps", "0"}, &err).has_value());
  EXPECT_FALSE(parse({"--queue", "0"}, &err).has_value());
  EXPECT_FALSE(parse({"--protocol", "tcp"}, &err).has_value());
  // Malformed numbers are rejected whole, never truncated, and name the flag.
  const std::vector<std::vector<const char*>> malformed = {
      {"--seconds", "0.1x"},  {"--seconds", "nan"},  {"--seconds", "1e400"},
      {"--warmup", "inf"},    {"--alpha", "nan"},    {"--seed", "7q"},
      {"--seed", "-5"},       {"--seed", "18446744073709551616"},
      {"--queue", "5z"},      {"--loss", "0.1.2"},
      {"--churn", "1x:2y"},   {"--mobility", "2.5:3"}};
  for (const auto& args : malformed) {
    EXPECT_FALSE(parse(args, &err).has_value()) << args[0] << " " << args[1];
    EXPECT_NE(err.find(args[0]), std::string::npos) << err;
  }
}

TEST(Cli, ParsesObservabilityOptions) {
  std::string err;
  const auto opt = parse({"--trace", "run.trace", "--trace-filter", "phy,backoff",
                          "--metrics-out", "m.jsonl", "--metrics-period", "0.5"},
                         &err);
  ASSERT_TRUE(opt.has_value()) << err;
  EXPECT_EQ(opt->trace_path, "run.trace");
  EXPECT_EQ(opt->trace_filter, trace_bit(TraceCat::kMeta) | trace_bit(TraceCat::kPhy) |
                                   trace_bit(TraceCat::kBackoff));
  EXPECT_EQ(opt->metrics_out, "m.jsonl");
  EXPECT_DOUBLE_EQ(opt->config.metrics_period_seconds, 0.5);
}

TEST(Cli, ObservabilityDisabledByDefault) {
  std::string err;
  const auto opt = parse({}, &err);
  ASSERT_TRUE(opt.has_value());
  EXPECT_TRUE(opt->trace_path.empty());
  EXPECT_TRUE(opt->metrics_out.empty());
  EXPECT_DOUBLE_EQ(opt->config.metrics_period_seconds, 0.0);
}

TEST(Cli, MetricsOutAloneDefaultsPeriodToOneSecond) {
  std::string err;
  const auto opt = parse({"--metrics-out", "m.jsonl"}, &err);
  ASSERT_TRUE(opt.has_value()) << err;
  EXPECT_DOUBLE_EQ(opt->config.metrics_period_seconds, 1.0);
}

TEST(Cli, RejectsTraceFilterWithoutTrace) {
  std::string err;
  EXPECT_FALSE(parse({"--trace-filter", "phy"}, &err).has_value());
  EXPECT_NE(err.find("--trace-filter requires --trace"), std::string::npos);
}

TEST(Cli, FlightOutExcludesTrace) {
  std::string err;
  EXPECT_TRUE(parse({"--check", "--flight-out", "f.trace"}, &err).has_value())
      << err;
  EXPECT_FALSE(parse({"--check", "--trace", "t.trace", "--flight-out", "f.trace"},
                     &err)
                   .has_value());
  EXPECT_NE(err.find("--flight-out cannot be combined with --trace"),
            std::string::npos)
      << err;
}

TEST(Cli, ParsesInBandControlProtocol) {
  std::string err;
  const auto opt = parse({"--protocol", "2pa-dctrl"}, &err);
  ASSERT_TRUE(opt.has_value()) << err;
  EXPECT_EQ(opt->protocol, Protocol::k2paDistributedCtrl);
  EXPECT_NE(cli_usage().find("2pa-dctrl"), std::string::npos);
}

// Naming the ctrl trace category only makes sense when the protocol runs a
// control plane; every other protocol would write a silently-empty stream.
TEST(Cli, RejectsCtrlTraceCategoryWithoutControlPlane) {
  std::string err;
  // Default protocol (2pa-c): no control plane.
  EXPECT_FALSE(
      parse({"--trace", "t.bin", "--trace-filter", "ctrl"}, &err).has_value());
  EXPECT_NE(err.find("no control plane"), std::string::npos);
  // Same in a comma list, with the protocol named explicitly — and option
  // order must not matter.
  EXPECT_FALSE(parse({"--trace", "t.bin", "--trace-filter", "mac,ctrl",
                      "--protocol", "2pa-d"},
                     &err)
                   .has_value());
  EXPECT_NE(err.find("no control plane"), std::string::npos);
  EXPECT_FALSE(parse({"--protocol", "802.11", "--trace", "t.bin",
                      "--trace-filter", "ctrl"},
                     &err)
                   .has_value());

  // Accepted with the in-band protocol, and "all" stays protocol-agnostic.
  EXPECT_TRUE(parse({"--protocol", "2pa-dctrl", "--trace", "t.bin",
                     "--trace-filter", "ctrl,lp"},
                    &err)
                  .has_value())
      << err;
  EXPECT_TRUE(
      parse({"--trace", "t.bin", "--trace-filter", "all"}, &err).has_value())
      << err;
  EXPECT_TRUE(
      parse({"--trace", "t.bin", "--trace-filter", "all,phy"}, &err).has_value())
      << err;
  // Naming ctrl beside "all", or in a list of every category, names it.
  std::string every;
  for (const char* name : kTraceCategoryNames) {
    if (!every.empty()) every += ',';
    every += name;
  }
  for (const std::string& list : {std::string("all,ctrl"), every}) {
    SCOPED_TRACE(list);
    EXPECT_FALSE(
        parse({"--trace", "t.bin", "--trace-filter", list.c_str()}, &err).has_value());
    EXPECT_NE(err.find("no control plane"), std::string::npos);
    EXPECT_TRUE(parse({"--protocol", "2pa-dctrl", "--trace", "t.bin", "--trace-filter",
                       list.c_str()},
                      &err)
                    .has_value())
        << err;
  }
}

// parse_cli keeps the mask its option setter computed (0 when no filter is
// given); the tool installs it as is, and check_cli tests its ctrl bit
// (RejectsCtrlTraceCategoryWithoutControlPlane).
TEST(Cli, TraceFilterIsParsedOnceIntoAMask) {
  std::string err;
  const auto opt = parse({"--trace", "t.bin", "--trace-filter", "lp,flow"}, &err);
  ASSERT_TRUE(opt.has_value()) << err;
  EXPECT_EQ(opt->trace_filter, trace_bit(TraceCat::kMeta) | trace_bit(TraceCat::kLp) |
                                   trace_bit(TraceCat::kFlow));
  const auto plain = parse({"--trace", "t.bin"}, &err);
  ASSERT_TRUE(plain.has_value()) << err;
  EXPECT_EQ(plain->trace_filter, 0u);
  // An empty list sets no filter, as if the option were not given.
  const auto empty = parse({"--trace", "t.bin", "--trace-filter", ""}, &err);
  ASSERT_TRUE(empty.has_value()) << err;
  EXPECT_EQ(empty->trace_filter, 0u);
  const auto all = parse({"--trace", "t.bin", "--trace-filter", "all"}, &err);
  ASSERT_TRUE(all.has_value()) << err;
  EXPECT_EQ(all->trace_filter, kTraceFilterAll);
}

TEST(Cli, RejectsMetricsPeriodWithoutMetricsOut) {
  std::string err;
  EXPECT_FALSE(parse({"--metrics-period", "1"}, &err).has_value());
  EXPECT_NE(err.find("--metrics-period requires --metrics-out"),
            std::string::npos);
}

TEST(Cli, RejectsBadObservabilityValues) {
  std::string err;
  EXPECT_FALSE(
      parse({"--trace", "t", "--trace-filter", "nonsense"}, &err).has_value());
  EXPECT_FALSE(
      parse({"--metrics-out", "m", "--metrics-period", "0"}, &err).has_value());
  EXPECT_FALSE(
      parse({"--metrics-out", "m", "--metrics-period", "-2"}, &err).has_value());
  EXPECT_FALSE(parse({"--trace", ""}, &err).has_value());
  EXPECT_FALSE(parse({"--metrics-out", ""}, &err).has_value());
}

TEST(Cli, ProtocolAliases) {
  EXPECT_EQ(parse_protocol("802.11"), Protocol::k80211);
  EXPECT_EQ(parse_protocol("dcf"), Protocol::k80211);
  EXPECT_EQ(parse_protocol("two-tier"), Protocol::kTwoTier);
  EXPECT_EQ(parse_protocol("two-tier-mm"), Protocol::kTwoTierBalanced);
  EXPECT_EQ(parse_protocol("2pa"), Protocol::k2paCentralized);
  EXPECT_EQ(parse_protocol("2pa-d"), Protocol::k2paDistributed);
  EXPECT_EQ(parse_protocol("maxmin"), Protocol::kMaxMin);
  EXPECT_FALSE(parse_protocol("csma").has_value());
}

TEST(Cli, ProtocolTableDrivesNamesParsingAndHelp) {
  const std::string usage = cli_usage();
  int spellings = 0;
  for (const ProtocolInfo& row : kProtocolTable) {
    EXPECT_STREQ(to_string(row.protocol), row.name);
    for (std::string_view s : row.spellings) {
      if (s.empty()) continue;
      ++spellings;
      EXPECT_EQ(parse_protocol(std::string(s)), row.protocol) << s;
    }
    if (!row.spellings[0].empty()) {
      EXPECT_NE(usage.find(std::string(row.spellings[0]) + ' '), std::string::npos)
          << row.name;
    }
  }
  EXPECT_EQ(spellings, 16);  // 802.11/80211/dcf, ..., 2pa-dctrl/2PA-Dctrl
  EXPECT_FALSE(parse_protocol("").has_value());
  EXPECT_NE(usage.find("2pa-dctrl (phase 1 in-band"), std::string::npos);

  // The --trace-filter help and the ctrl rejection name the in-band
  // protocol by a spelling that parses to it.
  const auto spelling_after = [](const std::string& text, const std::string& key) {
    const std::size_t at = text.find(key);
    if (at == std::string::npos) return std::string();
    const std::size_t from = at + key.size();
    return text.substr(from, text.find_first_of(" )\n", from) - from);
  };
  std::string err;
  EXPECT_FALSE(parse({"--trace", "t.bin", "--trace-filter", "ctrl"}, &err).has_value());
  for (const std::string& named : {spelling_after(usage, "ctrl needs --protocol "),
                                   spelling_after(err, "(use --protocol ")}) {
    const auto p = parse_protocol(named);
    ASSERT_TRUE(p.has_value()) << "'" << named << "'";
    EXPECT_TRUE(protocol_info(*p).in_band) << named;
  }
}

TEST(NamedScenario, PaperScenarios) {
  Rng rng(1);
  EXPECT_EQ(make_named_scenario("1", rng).topo.node_count(), 6);
  EXPECT_EQ(make_named_scenario("2", rng).topo.node_count(), 14);
}

TEST(NamedScenario, Chain) {
  Rng rng(1);
  const Scenario sc = make_named_scenario("chain:5", rng);
  EXPECT_EQ(sc.topo.node_count(), 6);
  ASSERT_EQ(sc.flow_specs.size(), 1u);
  EXPECT_EQ(sc.flow_specs[0].path.size(), 6u);
}

TEST(NamedScenario, Grid) {
  Rng rng(1);
  const Scenario sc = make_named_scenario("grid:3x4", rng);
  EXPECT_EQ(sc.topo.node_count(), 12);
  EXPECT_EQ(sc.flow_specs.size(), 4u);
  FlowSet flows(sc.topo, sc.flow_specs);  // validates routes
  EXPECT_TRUE(flows.all_shortcut_free());
}

TEST(NamedScenario, RandomDeterministic) {
  Rng a(7), b(7);
  const Scenario s1 = make_named_scenario("random:10", a);
  const Scenario s2 = make_named_scenario("random:10", b);
  ASSERT_EQ(s1.flow_specs.size(), s2.flow_specs.size());
  for (std::size_t i = 0; i < s1.flow_specs.size(); ++i)
    EXPECT_EQ(s1.flow_specs[i].path, s2.flow_specs[i].path);
}

TEST(NamedScenario, RejectsBadSpecs) {
  Rng rng(1);
  EXPECT_THROW(make_named_scenario("chain:0", rng), ContractViolation);
  EXPECT_THROW(make_named_scenario("grid:99x2", rng), ContractViolation);
  EXPECT_THROW(make_named_scenario("grid:4", rng), ContractViolation);
  EXPECT_THROW(make_named_scenario("random:1", rng), ContractViolation);
  EXPECT_THROW(make_named_scenario("torus:3", rng), ContractViolation);
  EXPECT_THROW(make_named_scenario("chain:3x", rng), ContractViolation);
  EXPECT_THROW(make_named_scenario("grid:3x3y", rng), ContractViolation);
  EXPECT_THROW(make_named_scenario("random:10x", rng), ContractViolation);
}

TEST(Cli, FormatRunResultContainsEssentials) {
  Rng rng(1);
  const Scenario sc = make_named_scenario("1", rng);
  SimConfig cfg;
  cfg.sim_seconds = 5.0;
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  const std::string s = format_run_result(sc, r, cfg, /*list_shares=*/true);
  EXPECT_NE(s.find("2PA-C"), std::string::npos);
  EXPECT_NE(s.find("A-B-C"), std::string::npos);
  EXPECT_NE(s.find("target share"), std::string::npos);
  EXPECT_NE(s.find("F2.2"), std::string::npos);  // share listing present
  EXPECT_GT(r.events_processed, 0u);
  EXPECT_NE(s.find(" corrupted, " + std::to_string(r.events_processed) + " events\n"),
            std::string::npos);
}

}  // namespace
}  // namespace e2efa
