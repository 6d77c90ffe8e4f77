// Ablation: short-term fairness vs α (Sec. IV-C: "α is a tunable parameter
// to decide the strictness of short-term fairness").
//
// The metrics sampler takes per-flow end-to-end deliveries in 2-second
// windows and computes, per window, Jain's index over the share-normalized
// rates u_f / r̂_f (1.0 = every flow exactly on its allocated share in that
// window). The mean and worst post-warm-up window indices quantify
// short-term fairness; larger α tightens them at some throughput cost.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "net/scenarios.hpp"
#include "util/stats.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  const auto args = benchutil::parse_args(argc, argv, 120.0);
  const Scenario sc = scenario1();

  std::cout << "Ablation — short-term fairness vs alpha (scenario 1, 2-s windows, T = "
            << args.seconds << " s)\n\n";
  TextTable t({"alpha", "mean window Jain", "worst window Jain", "total e2e"});
  for (double alpha : {0.0, 1e-5, 1e-4, 1e-3, 1e-2}) {
    SimConfig cfg;
    cfg.sim_seconds = args.seconds;
    cfg.seed = args.seed;
    cfg.alpha = alpha;
    cfg.warmup_seconds = 10.0;
    cfg.metrics_period_seconds = 2.0;
    const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);

    RunningStat jain;
    double worst = 1.0;
    for (const MetricsSample& s : r.metrics.samples) {
      if (s.t_s <= cfg.warmup_seconds) continue;  // nothing counts in warm-up
      jain.add(s.jain);
      worst = std::min(worst, s.jain);
    }
    t.add_row({strformat("%g", alpha), strformat("%.4f", jain.mean()),
               strformat("%.4f", worst), benchutil::fmt_count(r.total_end_to_end)});
  }
  t.print(std::cout);
  std::cout << "\nExpected: window-level fairness improves monotonically with alpha;\n"
               "alpha = 0 (no tag backoff) is visibly unfair even at 2-s scale.\n";
  return 0;
}
