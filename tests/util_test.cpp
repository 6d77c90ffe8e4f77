#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "util/assert.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace e2efa {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, Uniform01InRange) {
  Rng r(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng r(11);
  RunningStat s;
  for (int i = 0; i < 100'000; ++i) s.add(r.uniform01());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng r(5);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 31ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(r.uniform_u64(bound), bound);
  }
}

TEST(Rng, UniformU64HitsAllResidues) {
  Rng r(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_u64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformI64Inclusive) {
  Rng r(17);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_i64(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, ExponentialMean) {
  Rng r(23);
  RunningStat s;
  for (int i = 0; i < 200'000; ++i) s.add(r.exponential(5.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
}

TEST(Rng, BernoulliProbability) {
  Rng r(29);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  Rng r(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(99);
  Rng child = a.split();
  // The child must differ from a fresh copy of the parent stream.
  Rng b(99);
  (void)b.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child() == b()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformBoundZeroThrows) {
  Rng r(1);
  EXPECT_THROW(r.uniform_u64(0), ContractViolation);
}

TEST(Rng, ExponentialNonPositiveMeanThrows) {
  Rng r(1);
  EXPECT_THROW(r.exponential(0.0), ContractViolation);
  EXPECT_THROW(r.exponential(-1.0), ContractViolation);
}

// ---------- RunningStat ----------

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, KnownValues) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleSampleVarianceZero) {
  RunningStat s;
  s.add(3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

// ---------- fairness metrics ----------

TEST(Fairness, JainIndexPerfect) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({5, 5, 5, 5}), 1.0);
}

TEST(Fairness, JainIndexWorstCase) {
  // One user hogs everything: index -> 1/n.
  EXPECT_NEAR(jain_fairness_index({1, 0, 0, 0}), 0.25, 1e-12);
}

TEST(Fairness, JainIndexEmptyAndZero) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0, 0}), 1.0);
}

TEST(Fairness, NormalizedByDividesElementwise) {
  const std::vector<double> u = normalized_by({4.0, 9.0}, {2.0, 3.0});
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0], 2.0);
  EXPECT_DOUBLE_EQ(u[1], 3.0);
}

TEST(Fairness, NormalizedByDropsNonPositiveWeights) {
  // A zero target (suspended flow) must not poison the index with an inf.
  const std::vector<double> u = normalized_by({4.0, 7.0, 9.0}, {2.0, 0.0, 3.0});
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0], 2.0);
  EXPECT_DOUBLE_EQ(u[1], 3.0);
}

TEST(Fairness, NormalizedByTruncatesToShorterInput) {
  EXPECT_EQ(normalized_by({1.0, 2.0, 3.0}, {1.0}).size(), 1u);
  EXPECT_TRUE(normalized_by({1.0, 2.0}, {}).empty());
}

TEST(Fairness, PercentileNearestRank) {
  const std::vector<double> xs = {15, 20, 35, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 30), 20.0);   // rank ceil(1.5) = 2
  EXPECT_DOUBLE_EQ(percentile(xs, 40), 20.0);   // rank 2 exactly
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 35.0);   // rank ceil(2.5) = 3
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
}

TEST(Fairness, PercentileUnsortedAndEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({9, 1, 5}, 50), 5.0);  // sorts internally
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({42}, 95), 42.0);
}

// ---------- strings ----------

TEST(Strings, StrFormat) {
  EXPECT_EQ(strformat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(strformat("%s", ""), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"solo"}, ", "), "solo");
}

TEST(Strings, FormatShareOfB) {
  EXPECT_EQ(format_share_of_b(0.5), "B/2");
  EXPECT_EQ(format_share_of_b(0.75), "3B/4");
  EXPECT_EQ(format_share_of_b(1.0), "B");
  EXPECT_EQ(format_share_of_b(1.0 / 3.0), "B/3");
  EXPECT_EQ(format_share_of_b(0.7), "7B/10");
  EXPECT_EQ(format_share_of_b(0.0), "0");
  EXPECT_EQ(format_share_of_b(2.5), "5B/2");
}

TEST(Strings, FormatShareFallsBackToDecimal) {
  const std::string s = format_share_of_b(0.123456789, 8);
  EXPECT_NE(s.find("0.1235"), std::string::npos);
}

// ---------- options ----------

TEST(Options, StrictGrammarAndGeneratedUsage) {
  // The whole token is one number; %.17g output and a leading '+' read back.
  EXPECT_EQ(parse_double("0.1"), 0.1);
  EXPECT_EQ(parse_double("+2.5"), 2.5);
  EXPECT_EQ(parse_double("1.0000000000000002"), 1.0000000000000002);
  EXPECT_EQ(parse_double("4.9406564584124654e-324"), 4.9406564584124654e-324);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_uint64("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"0.1x", "1.2.3", " 5", "5 ", "", "+", "+-1", "0x10"})
    EXPECT_FALSE(parse_double(bad).has_value()) << "'" << bad << "'";
  for (const char* bad : {"inf", "-inf", "nan", "1e400", "-1e400", "1e-400"})
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
  for (const char* bad : {"2abc", "", "1.5", "2147483648", "-2147483649"})
    EXPECT_FALSE(parse_int(bad).has_value()) << "'" << bad << "'";
  for (const char* bad : {"-5", "-0", "7q", "18446744073709551616", ""})
    EXPECT_FALSE(parse_uint64(bad).has_value()) << "'" << bad << "'";
  ASSERT_TRUE(split_pair("3:4.5", ':').has_value());
  EXPECT_EQ(split_pair("3:4.5", ':')->second, "4.5");
  EXPECT_FALSE(split_pair("34.5", ':').has_value());

  // Range bounds are inclusive; every error names its option.
  int n = 0;
  double x = 0.0, p = 0.0;
  std::uint64_t seed = 0;
  bool quiet = false;
  std::string out;
  OptionTable t("prog", "usage: prog [options]\n");
  t.integer("--n", "N", "count", &n, 1, 3)
      .real("--x", "X", "fraction\nsecond line", &x, 0.0, 1.0)
      .positive("--p", "P", "rate", &p)
      .u64("--seed", "S", "seed", &seed)
      .flag("--quiet", "quiet", &quiet)
      .text("--out", "PATH", "output", &out);
  const auto run = [&](std::vector<const char*> args, std::string* err) {
    args.insert(args.begin(), "prog");
    return t.parse(static_cast<int>(args.size()), args.data(), err);
  };
  std::string err;
  EXPECT_EQ(run({"--n", "1", "--x", "0", "--p", "1e-9", "--seed", "0"}, &err),
            OptionTable::Status::kOk);
  EXPECT_EQ(run({"--n", "3", "--x", "1", "--quiet", "--out", "o"}, &err),
            OptionTable::Status::kOk);
  EXPECT_EQ(n, 3);
  EXPECT_EQ(x, 1.0);
  EXPECT_DOUBLE_EQ(p, 1e-9);
  EXPECT_TRUE(quiet);
  EXPECT_EQ(out, "o");
  const std::vector<std::vector<const char*>> rejected = {
      {"--n", "0"},     {"--n", "4"},   {"--x", "-0.1"}, {"--x", "1.01"},
      {"--p", "0"},     {"--p", "-1"},  {"--seed", "-1"}, {"--out", ""},
      {"--n", "2abc"}, {"--x", "nan"}};
  for (const auto& args : rejected) {
    EXPECT_EQ(run(args, &err), OptionTable::Status::kError) << args[0] << " " << args[1];
    EXPECT_EQ(err.rfind(std::string(args[0]) + ": ", 0), 0u) << err;
  }
  EXPECT_EQ(run({"--n"}, &err), OptionTable::Status::kError);
  EXPECT_NE(err.find("missing value for --n"), std::string::npos);
  EXPECT_EQ(run({"--bogus"}, &err), OptionTable::Status::kError);
  EXPECT_NE(err.find("unknown option: --bogus"), std::string::npos);
  EXPECT_EQ(run({"--x", "0.5", "--help", "--bogus"}, &err), OptionTable::Status::kHelp);

  // The generated usage lists every entry, continuation lines aligned.
  const std::string usage = t.usage();
  EXPECT_EQ(usage.rfind("usage: prog [options]\n", 0), 0u);
  for (const char* entry : {"--n N ", "--x X ", "--p P ", "--seed S ", "--quiet ",
                            "--out PATH ", "--help "})
    EXPECT_NE(usage.find(std::string("  ") + entry), std::string::npos) << entry;
  EXPECT_NE(usage.find("fraction\n              second line\n"), std::string::npos)
      << usage;
}

// ---------- TextTable ----------

TEST(TextTable, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("| x |"), std::string::npos);
}

// ---------- time ----------

TEST(Time, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(kMillisecond * 1000, kSecond);
  EXPECT_EQ(kMicrosecond * 1000, kMillisecond);
}

TEST(Time, TxDurationExact) {
  // 512-byte frame at 2 Mbps = 4096 bits / 2e6 bps = 2.048 ms.
  EXPECT_EQ(tx_duration(4096, 2'000'000), 2'048'000);
}

TEST(Time, TxDurationRoundsUp) {
  // 1 bit at 3 bps = 333333333.33.. ns -> rounded up.
  EXPECT_EQ(tx_duration(1, 3), 333'333'334);
}

// ---------- contract checks ----------

TEST(Assert, ThrowsWithMessage) {
  try {
    E2EFA_ASSERT_MSG(false, "custom detail");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail"), std::string::npos);
  }
}

TEST(Assert, PassesSilently) {
  EXPECT_NO_THROW(E2EFA_ASSERT(1 + 1 == 2));
}

}  // namespace
}  // namespace e2efa
