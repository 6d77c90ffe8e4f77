// Control-plane golden: pins, bit for bit, what the in-band control plane
// (src/ctrl) does on three runs that between them drive every one of its
// mechanisms — the lean static protocol, churn with loss (generation
// stamps, stale drops, retransmits, sequence gaps, ADMIT rounds, some of
// which never complete) and heavy static loss (degraded solves). Any change
// to the agent that is meant to keep behaviour must leave every figure
// here untouched: the 13 counters, the final lane shares, the admission
// records, the re-convergence times, the per-flow deliveries, the event
// count, and an FNV-1a digest of every kCtrl trace record (spans and
// parents included).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/cli.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace e2efa {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void mix(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    mix(b);
  }
};

std::vector<std::uint64_t> counters(const RunResult::CtrlSummary& c) {
  return {c.hello_sent,     c.constraint_sent, c.rate_sent,      c.msgs_received,
          c.solves,         c.ctrl_bytes,      c.ctrl_frames,    c.admit_req_sent,
          c.admit_rsp_sent, c.retransmits,     c.seq_gaps,       c.stale_dropped,
          c.forced_solves};
}

/// Digest of the run's outcome beyond the counters: final lane shares,
/// admission records, re-convergence times and per-flow deliveries.
std::uint64_t outcome_digest(const RunResult& r) {
  Fnv d;
  for (double s : r.ctrl.applied_subflow_share) d.mix(s);
  for (const RunResult::Admission& a : r.admissions) {
    d.mix(static_cast<std::uint64_t>(a.flow));
    d.mix(a.at_s);
    d.mix(static_cast<std::uint64_t>(a.admitted));
    d.mix(static_cast<std::uint64_t>(a.reason));
    d.mix(a.worst_load);
    d.mix(static_cast<std::uint64_t>(a.inband));
  }
  for (double s : r.reconv_s) d.mix(s);
  for (std::int64_t n : r.end_to_end_per_flow) d.mix(static_cast<std::uint64_t>(n));
  return d.h;
}

struct Golden {
  std::vector<std::uint64_t> counters;
  std::uint64_t events;
  std::uint64_t outcome;
  std::uint64_t trace_records;
  std::uint64_t trace_digest;
};

/// Runs 2PA-Dctrl with only the ctrl trace category recorded in memory and
/// checks every pinned figure. Returns the counters for cross-run checks.
RunResult::CtrlSummary expect_golden(const Scenario& sc, SimConfig cfg, const Golden& g) {
  TraceSink trace;
  trace.set_filter(trace_bit(TraceCat::kCtrl));
  cfg.trace = &trace;
  const RunResult r = run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);
  Fnv td;
  std::uint64_t n = 0;
  for (const TraceRecord& rec : trace.records()) {
    if (trace_category(rec.event()) != TraceCat::kCtrl) continue;
    std::uint64_t words[6];
    static_assert(sizeof words == sizeof rec);
    std::memcpy(words, &rec, sizeof rec);
    for (std::uint64_t w : words) td.mix(w);
    ++n;
  }
  EXPECT_EQ(counters(r.ctrl), g.counters);
  EXPECT_EQ(r.events_processed, g.events);
  EXPECT_EQ(outcome_digest(r), g.outcome);
  EXPECT_EQ(n, g.trace_records);
  EXPECT_EQ(td.h, g.trace_digest);
  return r.ctrl;
}

/// The scenario e2efa-sim builds for `--scenario SPEC --loss LOSS --churn
/// RATE:LIFE --seed SEED`.
Scenario cli_scenario(const std::string& spec, double loss, double churn_rate,
                      double churn_life, std::uint64_t seed) {
  Rng rng(seed);
  Scenario sc = make_named_scenario(spec, rng);
  if (loss > 0.0) sc.faults.set_default_loss(loss);
  CliOptions opt;
  opt.config.seed = seed;
  opt.churn_rate = churn_rate;
  opt.churn_life = churn_life;
  apply_cli_dynamics(sc, opt);
  return sc;
}

SimConfig config(double seconds, std::uint64_t seed) {
  SimConfig cfg;
  cfg.sim_seconds = seconds;
  cfg.seed = seed;
  return cfg;
}

TEST(CtrlGolden, ThreeRunsBitIdentical) {
  // Static Fig. 6 topology: the lean protocol, no hardened counter moves.
  const RunResult::CtrlSummary s2 =
      expect_golden(scenario2(), config(10.0, 1),
                    {{560, 42, 29, 43939, 5, 11775, 631, 0, 0, 0, 0, 0, 0},
                     833649, 0x390c8b583cccb76aULL, 44593, 0x9fc527fb9665e849ULL});
  // e2efa-sim --scenario random:30 --churn 3:1 --loss 0.2 --seed 2
  //   --protocol 2pa-dctrl --seconds 10
  const RunResult::CtrlSummary churn = expect_golden(
      cli_scenario("random:30", 0.2, 3.0, 1.0, 2), config(10.0, 2),
      {{1740, 457, 128, 58717, 8, 93940, 2405, 72, 10, 235, 463, 60, 0},
       2154214, 0x5bc068aaa0f9ac7dULL, 62005, 0x16516a656d82cecfULL});
  // e2efa-sim --scenario random:30 --loss 0.6 --protocol 2pa-dctrl --seconds 10
  const RunResult::CtrlSummary lossy = expect_golden(
      cli_scenario("random:30", 0.6, 0.0, 0.0, 1), config(10.0, 1),
      {{1200, 494, 283, 29667, 15, 153684, 1977, 0, 0, 407, 0, 0, 5},
       3030342, 0x504907db064d5abcULL, 32148, 0xf8ca250d5a077680ULL});

  // The static run stays unhardened...
  EXPECT_EQ(s2.admit_req_sent + s2.admit_rsp_sent + s2.retransmits + s2.seq_gaps +
                s2.stale_dropped + s2.forced_solves,
            0u);
  // ...and every hardened counter moves in some run, so none of the
  // mechanisms behind them is pinned only at zero.
  for (auto field : {&RunResult::CtrlSummary::admit_req_sent,
                     &RunResult::CtrlSummary::admit_rsp_sent,
                     &RunResult::CtrlSummary::retransmits, &RunResult::CtrlSummary::seq_gaps,
                     &RunResult::CtrlSummary::stale_dropped,
                     &RunResult::CtrlSummary::forced_solves})
    EXPECT_GT(churn.*field + lossy.*field, 0u);
}

}  // namespace
}  // namespace e2efa
