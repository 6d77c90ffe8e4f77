// Ablation: the short-term fairness knob α (Sec. IV-C, paper uses 1e-4).
//
// α scales how strongly a node's tag lead over its neighbors stretches its
// contention window. α = 0 disables the inter-node tag mechanism entirely
// (only intra-node weighted selection remains), which degrades share
// tracking and inflates relay loss; very large α over-throttles and costs
// throughput.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "net/scenarios.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  const auto args = benchutil::parse_args(argc, argv, 200.0);
  const Scenario sc = scenario1();

  std::cout << "Ablation — tag-backoff strictness alpha (scenario 1, 2PA, T = "
            << args.seconds << " s)\n\n";
  std::cout << "Target subflow shares: 1/2, 1/2, 1/4, 1/4. Tracking error is the\n"
               "max relative deviation of measured share ratios from target ratios.\n\n";

  TextTable t({"alpha", "r1.1", "r1.2", "r2.1", "r2.2", "total e2e", "lost",
               "loss ratio", "ratio error"});
  for (double alpha : {0.0, 1e-5, 1e-4, 1e-3, 1e-2}) {
    SimConfig cfg;
    cfg.sim_seconds = args.seconds;
    cfg.seed = args.seed;
    cfg.alpha = alpha;
    const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);

    // Max deviation of measured/target ratio (normalized to subflow 2).
    double err = 0.0;
    const double base = static_cast<double>(r.delivered_per_subflow[2]);
    const double targets[4] = {2.0, 2.0, 1.0, 1.0};
    for (int s = 0; s < 4; ++s) {
      const double measured = static_cast<double>(r.delivered_per_subflow[s]) / base;
      err = std::max(err, std::abs(measured - targets[s]) / targets[s]);
    }
    t.add_row({strformat("%g", alpha), benchutil::fmt_count(r.delivered_per_subflow[0]),
               benchutil::fmt_count(r.delivered_per_subflow[1]),
               benchutil::fmt_count(r.delivered_per_subflow[2]),
               benchutil::fmt_count(r.delivered_per_subflow[3]),
               benchutil::fmt_count(r.total_end_to_end),
               benchutil::fmt_count(r.lost_packets), benchutil::fmt_ratio(r.loss_ratio),
               strformat("%.3f", err)});
  }
  t.print(std::cout);
  std::cout << "\nExpected: alpha ~ 1e-4 (paper's value) balances tracking and loss.\n";
  return 0;
}
