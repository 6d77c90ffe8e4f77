// Example: node failures, route repair, and allocation re-convergence.
//
// A diamond network carries one flow A→B→D, with C as a physically
// redundant relay:
//
//   A (0,0) -- B (200,150)  -- D (400,0)    provisioned route
//   A (0,0) -- C (200,-150) -- D (400,0)    repair route
//
// Range 250 m: the links are exactly A-B, B-D, A-C, C-D (no A-D, no B-C).
//
// The fault schedule exercises the whole self-healing path:
//   t = 10 s  B crashes      → route repair: the flow re-routes via C
//   t = 20 s  C crashes too  → network partition: the flow is suspended
//   t = 30 s  B recovers     → the provisioned route heals; traffic resumes
//   t = 40 s  C recovers     → fully healed (no route change needed)
//
// Phase 1 is re-solved at every epoch; the per-epoch goodput shows service
// through B, then through C, then silence, then service again — and the
// recovery records measure fault-to-first-delivery for each disruption.
//
// Pass `--trace PATH` to also write a binary structured trace of the run;
// inspect it with `tools/trace-tool`, e.g. `trace-tool convergence PATH
// --window 2` to see the per-epoch re-convergence times, or `trace-tool
// jsonl PATH` for one JSON line per record.
#include <iostream>
#include <string>

#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "obs/trace.hpp"
#include "route/routing.hpp"
#include "util/options.hpp"
#include "util/strings.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  std::string trace_path;
  OptionTable("partition_heal", "usage: partition_heal [options]\n")
      .text("--trace", "PATH",
            "also write a binary structured trace of the run\n"
            "(read it with trace-tool)",
            &trace_path)
      .parse_or_exit(argc, argv);
  Scenario sc{"partition-heal",
              Topology({{0, 0}, {200, 150}, {200, -150}, {400, 0}}, 250.0),
              {},
              {}};
  sc.topo.set_labels({"A", "B", "C", "D"});
  sc.flow_specs.push_back(make_routed_flow(sc.topo, 0, 3));  // A→B→D

  sc.faults.node_down(1, 10.0);  // B crashes
  sc.faults.node_down(2, 20.0);  // C crashes: A and D are partitioned
  sc.faults.node_up(1, 30.0);    // B recovers: the network heals
  sc.faults.node_up(2, 40.0);    // C recovers

  SimConfig cfg;
  cfg.sim_seconds = 50.0;
  cfg.seed = 7;

  TraceSink trace;
  if (!trace_path.empty()) {
    std::string error;
    if (!trace.open(trace_path, &error)) {
      std::cerr << "cannot open trace file: " << error << "\n";
      return 1;
    }
    cfg.trace = &trace;
  }

  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  if (!trace_path.empty()) {
    trace.close();
    std::cerr << "trace: " << trace.recorded() << " records -> " << trace_path << "\n";
  }

  std::cout << "Partition & heal on the A/B/C/D diamond (flow A->B->D)\n\n";
  std::cout << "Epoch allocations and goodput:\n";
  for (std::size_t e = 0; e < r.epoch_starts_s.size(); ++e) {
    std::cout << "  t >= " << strformat("%4.0f", r.epoch_starts_s[e])
              << " s: share " << format_share_of_b(r.epoch_flow_share[e][0])
              << ", delivered " << r.epoch_end_to_end[e][0] << " pkts\n";
  }

  std::cout << "\nDisruptions healed:\n";
  for (const RunResult::Recovery& rec : r.recoveries) {
    std::cout << "  fault at " << strformat("%.2f", rec.fault_s)
              << " s -> first delivery on the repaired route at "
              << strformat("%.2f", rec.recovered_s) << " s  (recovery "
              << strformat("%.2f", rec.recovered_s - rec.fault_s) << " s)\n";
  }
  std::cout << "\nSuspended-source packets while partitioned: "
            << r.suspended_packets << "\n";
  std::cout << "Link-layer failures observed: " << r.link_failures << "\n";
  return 0;
}
