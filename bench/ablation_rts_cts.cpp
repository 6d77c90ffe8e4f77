// Ablation: RTS/CTS handshake vs basic access.
//
// The paper's scheduler builds on the RTS/CTS floor-acquisition handshake.
// This ablation shows why: with basic access, hidden terminals collide on
// whole 512-byte DATA frames instead of 20-byte RTS probes, so the
// hidden-terminal topology of Fig. 1 wastes far more airtime and the
// starved subflow collapses further.
#include <iostream>

#include "bench_util.hpp"
#include "net/scenarios.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  const auto args = benchutil::parse_args(argc, argv, 150.0);
  const Scenario sc = scenario1();

  std::cout << "Ablation — RTS/CTS vs basic access (scenario 1, T = " << args.seconds
            << " s)\n\n";
  TextTable t({"protocol", "access", "F1 e2e", "F2 e2e", "total e2e",
               "corrupted KB", "loss ratio"});
  for (Protocol p : {Protocol::k80211, Protocol::k2paCentralized}) {
    for (bool rts : {true, false}) {
      SimConfig cfg;
      cfg.sim_seconds = args.seconds;
      cfg.seed = args.seed;
      cfg.alpha = args.alpha;
      cfg.use_rts_cts = rts;
      const RunResult r = run_scenario(sc, p, cfg);
      t.add_row({to_string(p), rts ? "RTS/CTS" : "basic",
                 benchutil::fmt_count(r.end_to_end_per_flow[0]),
                 benchutil::fmt_count(r.end_to_end_per_flow[1]),
                 benchutil::fmt_count(r.total_end_to_end),
                 benchutil::fmt_count(static_cast<std::int64_t>(r.channel.bytes_corrupted / 1024)),
                 benchutil::fmt_ratio(r.loss_ratio)});
    }
  }
  t.print(std::cout);
  std::cout << "\nExpected: basic access corrupts far more airtime at the hidden\n"
               "terminal (whole DATA frames), hurting the multi-hop flow most.\n";
  return 0;
}
