// Reproduces Table II: simulation results on the Fig.-1 topology for
// IEEE 802.11, two-tier fair scheduling, and 2PA.
//
// Paper reference values (ns-2, T = 1000 s):
//   parameter        802.11   two-tier   2PA
//   r1.1 T           16079    66658      111773
//   r1.2 T (r̂1 T)     952     60992      111084
//   r2.1 T           156517   65507      56404
//   r2.2 T (r̂2 T)    151533   65507      56404
//   Σ r̂i T           152485   126499     167488
//   lost packets     20111    5666       689
//   loss ratio       0.132    0.045      0.004
//
// Absolute counts depend on the substrate; the footer checks the paper's
// shapes against the table it prints: 802.11 starves F1 end to end; two-tier
// serves F1.1 > F1.2 and overflows the relay; 2PA tracks 1/2:1/2:1/4:1/4
// with the highest total effective throughput and the lowest loss.
#include <iostream>

#include "bench_util.hpp"
#include "net/batch.hpp"
#include "net/scenarios.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  const auto args = benchutil::parse_args(argc, argv);
  const Scenario sc = scenario1();

  SimConfig cfg;
  cfg.sim_seconds = args.seconds;
  cfg.seed = args.seed;
  cfg.alpha = args.alpha;

  std::cout << "Table II — simulation results, topology as in Fig. 1 (T = "
            << args.seconds << " s)\n\n";

  const std::vector<Protocol> protos = {Protocol::k80211, Protocol::kTwoTier,
                                        Protocol::k2paCentralized};
  const std::vector<RunResult> results =
      BatchRunner(args.jobs).run_protocols(sc, protos, cfg);

  TextTable t({"Parameters", "802.11", "two-tier", "2PA"});
  auto row = [&](const std::string& name, auto getter) {
    std::vector<std::string> cells{name};
    for (const RunResult& r : results) cells.push_back(getter(r));
    t.add_row(cells);
  };
  row("r1.1 T", [](const RunResult& r) { return benchutil::fmt_count(r.delivered_per_subflow[0]); });
  row("r1.2 T (r1^ T)", [](const RunResult& r) { return benchutil::fmt_count(r.delivered_per_subflow[1]); });
  row("r2.1 T", [](const RunResult& r) { return benchutil::fmt_count(r.delivered_per_subflow[2]); });
  row("r2.2 T (r2^ T)", [](const RunResult& r) { return benchutil::fmt_count(r.delivered_per_subflow[3]); });
  row("sum ri^ T", [](const RunResult& r) { return benchutil::fmt_count(r.total_end_to_end); });
  row("lost packets", [](const RunResult& r) { return benchutil::fmt_count(r.lost_packets); });
  row("loss ratio", [](const RunResult& r) { return benchutil::fmt_ratio(r.loss_ratio); });
  t.print(std::cout);

  std::cout << "\nPhase-1 target shares (units of B):\n";
  for (std::size_t i = 1; i < results.size(); ++i) {
    std::cout << "  " << to_string(results[i].protocol) << ": ";
    std::vector<std::string> shares;
    for (double s : results[i].target_subflow_share)
      shares.push_back(format_share_of_b(s));
    std::cout << join(shares, ", ") << "\n";
  }
  const RunResult& dcf = results[0];
  const RunResult& two_tier = results[1];
  const RunResult& tpa = results[2];
  const auto vs = [](std::int64_t a, std::int64_t b) {
    return benchutil::fmt_count(a) + " vs " + benchutil::fmt_count(b);
  };
  std::cout << "\nPaper shapes, checked against this table:\n";
  benchutil::print_claim(10 * dcf.end_to_end_per_flow[0] < dcf.end_to_end_per_flow[1],
                         "802.11 starves F1 (r1^ < r2^/10)",
                         vs(dcf.end_to_end_per_flow[0], dcf.end_to_end_per_flow[1]));
  benchutil::print_claim(two_tier.delivered_per_subflow[0] > two_tier.delivered_per_subflow[1],
                         "two-tier overflows the relay (r1.1 > r1.2)",
                         vs(two_tier.delivered_per_subflow[0], two_tier.delivered_per_subflow[1]));
  const double err = benchutil::tracking_error(tpa.delivered_per_subflow, tpa.target_subflow_share);
  benchutil::print_claim(err <= 0.05, "2PA tracks 1/2:1/2:1/4:1/4 within 5%",
                         strformat("largest gap %.1f%%", err * 100));
  benchutil::print_claim(tpa.total_end_to_end > two_tier.total_end_to_end,
                         "2PA total > two-tier total",
                         vs(tpa.total_end_to_end, two_tier.total_end_to_end));
  benchutil::print_claim(tpa.total_end_to_end > dcf.total_end_to_end, "2PA total > 802.11 total",
                         vs(tpa.total_end_to_end, dcf.total_end_to_end));
  benchutil::print_claim(
      tpa.loss_ratio < std::min(dcf.loss_ratio, two_tier.loss_ratio), "2PA loses least",
      strformat("loss ratio %.3f vs %.3f (802.11), %.3f (two-tier)", tpa.loss_ratio,
                dcf.loss_ratio, two_tier.loss_ratio));
  return 0;
}
