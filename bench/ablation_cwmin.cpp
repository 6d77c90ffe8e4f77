// Ablation: the minimum contention window CW_min (paper uses 31).
// Smaller windows raise collision rates in contended cliques; larger
// windows waste idle slots. Run on scenario 2 with 2PA-C.
#include <iostream>

#include "bench_util.hpp"
#include "net/scenarios.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  const auto args = benchutil::parse_args(argc, argv, 120.0);
  const Scenario sc = scenario2();

  std::cout << "Ablation — CW_min (scenario 2, 2PA-C, T = " << args.seconds << " s)\n\n";
  TextTable t({"CW_min", "total e2e", "lost", "loss ratio", "frames tx",
               "frames corrupted"});
  for (int cw : {7, 15, 31, 63, 127, 255}) {
    SimConfig cfg;
    cfg.sim_seconds = args.seconds;
    cfg.seed = args.seed;
    cfg.alpha = args.alpha;
    cfg.cw_min = cw;
    const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
    t.add_row({std::to_string(cw), benchutil::fmt_count(r.total_end_to_end),
               benchutil::fmt_count(r.lost_packets), benchutil::fmt_ratio(r.loss_ratio),
               benchutil::fmt_count(static_cast<std::int64_t>(r.channel.frames_transmitted)),
               benchutil::fmt_count(static_cast<std::int64_t>(r.channel.frames_corrupted))});
  }
  t.print(std::cout);
  return 0;
}
