// Flow-churn study (extension): 2PA re-runs its first phase whenever the
// backlogged flow set changes and pushes the new shares into the running
// schedulers. On the Fig.-1 topology, F2 joins at T/3 and leaves at 2T/3;
// the windowed rates show F1 absorbing and releasing the bottleneck
// capacity at each epoch.
#include <iostream>

#include "bench_util.hpp"
#include "net/scenarios.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  const auto args = benchutil::parse_args(argc, argv, 180.0);
  Scenario sc = scenario1();

  SimConfig cfg;
  cfg.sim_seconds = args.seconds;
  cfg.seed = args.seed;
  cfg.alpha = args.alpha;
  cfg.metrics_period_seconds = args.seconds / 18.0;

  const double t1 = args.seconds / 3.0, t2 = 2.0 * args.seconds / 3.0;
  sc.activity = {{0.0, 1e300}, {t1, t2}};

  std::cout << "Dynamic churn — scenario 1, F2 active only in [" << t1 << ", " << t2
            << ") s of " << args.seconds << " s\n\n";

  for (Protocol p : {Protocol::k2paCentralized, Protocol::k80211}) {
    const RunResult r = run_scenario(sc, p, cfg);
    std::cout << to_string(p) << ":\n";
    if (r.has_target || !r.epoch_starts_s.empty()) {
      std::cout << "  epochs:";
      for (std::size_t e = 0; e < r.epoch_starts_s.size(); ++e) {
        std::cout << "  t=" << r.epoch_starts_s[e] << "s -> (";
        for (std::size_t f = 0; f < r.epoch_flow_share[e].size(); ++f)
          std::cout << (f ? ", " : "") << format_share_of_b(r.epoch_flow_share[e][f]);
        std::cout << ")";
      }
      std::cout << "\n";
    }
    TextTable t({"window", "F1 pkts", "F2 pkts"});
    for (std::size_t w = 0; w < r.metrics.samples.size(); ++w) {
      const std::vector<std::int64_t>& d = r.metrics.samples[w].flow_delivered;
      t.add_row({strformat("%2zu", w), benchutil::fmt_count(d[0]),
                 benchutil::fmt_count(d[1])});
    }
    t.print(std::cout);
    std::cout << "  totals: F1 " << r.end_to_end_per_flow[0] << ", F2 "
              << r.end_to_end_per_flow[1] << ", lost " << r.lost_packets << "\n\n";
  }
  std::cout << "Expected: under 2PA, F1's windowed rate steps down when F2 joins\n"
               "(B/2 of the bottleneck) and back up when it leaves; loss stays tiny\n"
               "across both re-allocations.\n";
  return 0;
}
