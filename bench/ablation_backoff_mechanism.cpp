// Ablation: what does the tag/backoff feedback loop buy over a naive
// share-proportional contention window?
//
// Both variants use the same phase-1 shares and the same intra-node
// weighted queueing; "2PA-staticCW" merely sets each node's CW to
// CW_min / node_share with no feedback, while full 2PA stretches the
// window by the measured tag lag max(Q, R, 0). The static window gets the
// long-run node ratios roughly right but cannot couple upstream and
// downstream service, so relay imbalance (and loss) creeps back in.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "net/scenarios.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  const auto args = benchutil::parse_args(argc, argv, 200.0);

  SimConfig cfg;
  cfg.sim_seconds = args.seconds;
  cfg.seed = args.seed;
  cfg.alpha = args.alpha;

  std::cout << "Ablation — tag feedback vs static weighted CW (T = " << args.seconds
            << " s)\n\n";
  for (const Scenario& sc : {scenario1(), scenario2()}) {
    std::cout << sc.name << ":\n";
    TextTable t({"variant", "total e2e", "lost", "loss ratio", "max share err"});
    for (Protocol p : {Protocol::k2paCentralized, Protocol::k2paStaticCw}) {
      const RunResult r = run_scenario(sc, p, cfg);
      // Max relative deviation of measured end-to-end ratios from targets.
      double err = 0.0;
      const double base_m = static_cast<double>(r.end_to_end_per_flow[0]);
      const double base_t = r.target_flow_share[0];
      for (std::size_t f = 1; f < r.end_to_end_per_flow.size(); ++f) {
        const double m = static_cast<double>(r.end_to_end_per_flow[f]) / base_m;
        const double tt = r.target_flow_share[f] / base_t;
        err = std::max(err, std::abs(m - tt) / tt);
      }
      t.add_row({to_string(p), benchutil::fmt_count(r.total_end_to_end),
                 benchutil::fmt_count(r.lost_packets), benchutil::fmt_ratio(r.loss_ratio),
                 strformat("%.3f", err)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Expected: the static window loses far more at relays and tracks\n"
               "the allocated ratios worse — the feedback loop is what makes the\n"
               "second phase work.\n";
  return 0;
}
