// Reproduces Table III: simulation results on the Fig.-6 topology for
// IEEE 802.11, two-tier, 2PA-C (centralized phase 1), and 2PA-D
// (distributed phase 1).
//
// Paper reference values (ns-2, T = 1000 s):
//   parameter        802.11   two-tier   2PA-C    2PA-D
//   r1.1 T           72150    49551      53992    67381
//   r1.2 T           53590    41731      53745    67189
//   r1.3 T           53127    39574      52955    67189
//   r1.4 T (r̂1 T)    53127    39574      52955    67189
//   r2.1 T (r̂2 T)    8345     14802      54694    42457
//   r3.1 T (r̂3 T)    197911   163809     112520   57321
//   r4.1 T           49966    18865      29365    62036
//   r4.2 T (r̂4 T)    24495    18053      28022    60855
//   r5.1 T (r̂5 T)    159326   157887     173971   124520
//   Σ r̂i T           443204   394125     422162   352341
//   lost packets     44494    10789      2380     1374
//   loss ratio       0.100    0.027      0.006    0.004
//
// Phase-1 targets: 2PA-C = (1/3, 1/3, 2/3, 1/8, 3/4)·B,
//                  2PA-D = (1/3, 1/5, 1/4, 1/4, 1/2)·B.
//
// The footer checks the paper's shapes against the table it prints:
// 802.11 starves F2 while F3 and F5 dominate; 2PA-C restores the shares
// and beats two-tier's total; 2PA-D is more conservative (lower total,
// lowest loss); loss ordering 802.11 > two-tier > 2PA-C >= 2PA-D.
#include <algorithm>
#include <functional>
#include <iostream>

#include "bench_util.hpp"
#include "net/batch.hpp"
#include "net/scenarios.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  const auto args = benchutil::parse_args(argc, argv);
  const Scenario sc = scenario2();

  SimConfig cfg;
  cfg.sim_seconds = args.seconds;
  cfg.seed = args.seed;
  cfg.alpha = args.alpha;

  std::cout << "Table III — simulation results, topology as in Fig. 6 (T = "
            << args.seconds << " s)\n\n";

  const std::vector<Protocol> protos = {
      Protocol::k80211, Protocol::kTwoTier, Protocol::k2paCentralized,
      Protocol::k2paDistributed};
  const std::vector<RunResult> results =
      BatchRunner(args.jobs).run_protocols(sc, protos, cfg);

  TextTable t({"Parameters", "802.11", "two-tier", "2PA-C", "2PA-D"});
  const char* labels[] = {"r1.1 T", "r1.2 T", "r1.3 T", "r1.4 T (r1^ T)",
                          "r2.1 T (r2^ T)", "r3.1 T (r3^ T)", "r4.1 T",
                          "r4.2 T (r4^ T)", "r5.1 T (r5^ T)"};
  for (int s = 0; s < 9; ++s) {
    std::vector<std::string> cells{labels[s]};
    for (const RunResult& r : results)
      cells.push_back(benchutil::fmt_count(r.delivered_per_subflow[s]));
    t.add_row(cells);
  }
  {
    std::vector<std::string> cells{"sum ri^ T"};
    for (const RunResult& r : results) cells.push_back(benchutil::fmt_count(r.total_end_to_end));
    t.add_row(cells);
    cells = {"lost packets"};
    for (const RunResult& r : results) cells.push_back(benchutil::fmt_count(r.lost_packets));
    t.add_row(cells);
    cells = {"loss ratio"};
    for (const RunResult& r : results) cells.push_back(benchutil::fmt_ratio(r.loss_ratio));
    t.add_row(cells);
  }
  t.print(std::cout);

  std::cout << "\nPhase-1 target flow shares (units of B):\n";
  for (std::size_t i = 1; i < results.size(); ++i) {
    std::cout << "  " << to_string(results[i].protocol) << ": ";
    std::vector<std::string> shares;
    for (double s : results[i].target_flow_share) shares.push_back(format_share_of_b(s));
    std::cout << join(shares, ", ") << "\n";
  }
  const RunResult& dcf = results[0];
  const RunResult& two_tier = results[1];
  const RunResult& c2pa = results[2];
  const RunResult& d2pa = results[3];
  const std::vector<std::int64_t>& dcf_e2e = dcf.end_to_end_per_flow;
  std::vector<std::int64_t> ranked = dcf_e2e;
  std::sort(ranked.begin(), ranked.end(), std::greater<>());
  const auto vs = [](std::int64_t a, std::int64_t b) {
    return benchutil::fmt_count(a) + " vs " + benchutil::fmt_count(b);
  };
  const auto loss = [](const RunResult& a, const RunResult& b) {
    return strformat("loss ratio %.3f vs %.3f", a.loss_ratio, b.loss_ratio);
  };
  std::cout << "\nPaper shapes, checked against this table:\n";
  benchutil::print_claim(10 * dcf_e2e[1] < ranked[0], "802.11 starves F2 (r2^ < max ri^/10)",
                         vs(dcf_e2e[1], ranked[0]));
  benchutil::print_claim(std::min(dcf_e2e[2], dcf_e2e[4]) >= ranked[1],
                         "802.11: F3 and F5 are the two largest flows",
                         strformat("r3^ %lld, r5^ %lld, top two %lld, %lld",
                                   static_cast<long long>(dcf_e2e[2]),
                                   static_cast<long long>(dcf_e2e[4]),
                                   static_cast<long long>(ranked[0]),
                                   static_cast<long long>(ranked[1])));
  for (const RunResult* r : {&c2pa, &d2pa}) {
    const double err = benchutil::tracking_error(r->end_to_end_per_flow, r->target_flow_share);
    benchutil::print_claim(err <= 0.05, std::string(to_string(r->protocol)) +
                                            " tracks its flow targets within 5%",
                           strformat("largest gap %.1f%%", err * 100));
  }
  benchutil::print_claim(c2pa.total_end_to_end > two_tier.total_end_to_end,
                         "2PA-C total > two-tier total",
                         vs(c2pa.total_end_to_end, two_tier.total_end_to_end));
  benchutil::print_claim(d2pa.total_end_to_end < c2pa.total_end_to_end,
                         "2PA-D total < 2PA-C total",
                         vs(d2pa.total_end_to_end, c2pa.total_end_to_end));
  benchutil::print_claim(dcf.loss_ratio > two_tier.loss_ratio, "loss 802.11 > two-tier",
                         loss(dcf, two_tier));
  benchutil::print_claim(two_tier.loss_ratio > c2pa.loss_ratio, "loss two-tier > 2PA-C",
                         loss(two_tier, c2pa));
  benchutil::print_claim(c2pa.loss_ratio >= d2pa.loss_ratio, "loss 2PA-C >= 2PA-D",
                         loss(c2pa, d2pa));
  return 0;
}
