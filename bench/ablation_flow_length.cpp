// Ablation: end-to-end throughput vs path length for a single flow — the
// virtual-length claim (Sec. II-D): beyond three hops, intra-flow spatial
// reuse keeps the end-to-end allocation flat at B/3; without it, a
// 1/l falloff would be expected.
#include <iostream>

#include "alloc/centralized.hpp"
#include "bench_util.hpp"
#include "net/runner.hpp"
#include "topology/builders.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  const auto args = benchutil::parse_args(argc, argv, 120.0);

  std::cout << "Ablation — single-flow chain length (T = " << args.seconds << " s)\n\n";
  TextTable t({"hops", "allocated r^", "2PA e2e pkts", "802.11 e2e pkts",
               "2PA e2e / 1-hop"});
  std::int64_t one_hop_e2e = 0;
  for (int hops : {1, 2, 3, 4, 5, 6, 8}) {
    Topology topo = make_chain(hops + 1);
    Flow f;
    for (int i = 0; i <= hops; ++i) f.path.push_back(i);
    Scenario sc{strformat("chain-%d", hops), std::move(topo), {f}};

    SimConfig cfg;
    cfg.sim_seconds = args.seconds;
    cfg.seed = args.seed;
    cfg.alpha = args.alpha;
    const RunResult tpa = run_scenario(sc, Protocol::k2paCentralized, cfg);
    const RunResult dcf = run_scenario(sc, Protocol::k80211, cfg);
    if (hops == 1) one_hop_e2e = tpa.end_to_end_per_flow[0];

    t.add_row({std::to_string(hops), format_share_of_b(tpa.target_flow_share[0]),
               benchutil::fmt_count(tpa.end_to_end_per_flow[0]),
               benchutil::fmt_count(dcf.end_to_end_per_flow[0]),
               strformat("%.3f", static_cast<double>(tpa.end_to_end_per_flow[0]) /
                                     static_cast<double>(one_hop_e2e))});
  }
  t.print(std::cout);
  std::cout << "\nExpected: the allocated share (and measured throughput) plateaus\n"
               "once l >= 3 (virtual length v = min(l, 3)).\n";
  return 0;
}
