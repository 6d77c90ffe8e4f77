// Ablation: relay queue capacity vs in-network loss. 2PA keeps upstream
// and downstream rates matched, so it tolerates tiny buffers; two-tier's
// upstream surplus overflows any finite buffer (the overflow rate is set
// by the allocation imbalance, not the buffer size).
#include <iostream>

#include "bench_util.hpp"
#include "net/scenarios.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  const auto args = benchutil::parse_args(argc, argv, 120.0);
  const Scenario sc = scenario1();

  std::cout << "Ablation — relay queue capacity (scenario 1, T = " << args.seconds
            << " s)\n\n";
  TextTable t({"capacity", "2PA lost", "2PA loss ratio", "two-tier lost",
               "two-tier loss ratio"});
  for (int cap : {5, 10, 25, 50, 100, 200}) {
    SimConfig cfg;
    cfg.sim_seconds = args.seconds;
    cfg.seed = args.seed;
    cfg.alpha = args.alpha;
    cfg.queue_capacity = cap;
    const RunResult a = run_scenario(sc, Protocol::k2paCentralized, cfg);
    const RunResult b = run_scenario(sc, Protocol::kTwoTier, cfg);
    t.add_row({std::to_string(cap), benchutil::fmt_count(a.lost_packets),
               benchutil::fmt_ratio(a.loss_ratio), benchutil::fmt_count(b.lost_packets),
               benchutil::fmt_ratio(b.loss_ratio)});
  }
  t.print(std::cout);
  std::cout << "\nExpected: 2PA's loss stays small at any capacity; two-tier's loss\n"
               "is dominated by the allocation imbalance regardless of buffering.\n";
  return 0;
}
