// Ideal-case (fluid) prediction vs packet-level measurement for 2PA on
// both paper topologies — the Sec.-III "evaluate against the ideal case"
// exercise. The fluid column uses the per-packet airtime model; the
// measured column is the discrete-event simulator.
#include <iostream>

#include "bench_util.hpp"
#include "net/fluid.hpp"
#include "net/scenarios.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  const auto args = benchutil::parse_args(argc, argv, 200.0);

  SimConfig cfg;
  cfg.sim_seconds = args.seconds;
  cfg.seed = args.seed;
  cfg.alpha = args.alpha;
  MacConfig mac;

  std::cout << "Ideal (fluid) vs measured (packet) — 2PA-C, T = " << args.seconds
            << " s\n";
  std::cout << "Per-packet airtime: "
            << per_packet_airtime(cfg.payload_bytes, mac, cfg.cw_min) / 1000
            << " us  =>  "
            << strformat("%.0f", effective_packet_rate(cfg.payload_bytes, mac, cfg.cw_min))
            << " pkt/s per unit share\n\n";

  for (const Scenario& sc : {scenario1(), scenario2()}) {
    FlowSet flows(sc.topo, sc.flow_specs);
    const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
    Allocation alloc = make_subflow_allocation(flows, r.target_subflow_share);

    const FluidPrediction p =
        fluid_predict(flows, alloc, cfg.cbr_pps, cfg.payload_bytes, mac, cfg.cw_min);
    std::cout << sc.name << ":\n";
    TextTable t({"flow", "fluid pkt/s", "measured pkt/s", "measured/fluid"});
    for (FlowId f = 0; f < flows.flow_count(); ++f) {
      const double measured =
          static_cast<double>(r.end_to_end_per_flow[f]) / args.seconds;
      t.add_row({flows.flow(f).name(), strformat("%.1f", p.flow_rate[f]),
                 strformat("%.1f", measured),
                 strformat("%.2f", measured / p.flow_rate[f])});
    }
    t.add_row({"total", strformat("%.1f", p.total_flow_rate),
               strformat("%.1f", static_cast<double>(r.total_end_to_end) / args.seconds),
               ""});
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Ratios between flows should match the fluid prediction; absolute\n"
               "levels fall below it in saturated cliques (collisions, throttling).\n";
  return 0;
}
