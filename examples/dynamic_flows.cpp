// Example: flow churn with live re-allocation.
//
// A video backhaul (F1) runs continuously; a bulk transfer (F2) appears for
// the middle third of the run. 2PA re-solves its first phase at each churn
// epoch and pushes the shares into the running schedulers; the windowed
// rates show the video flow yielding exactly its computed share and
// reclaiming it afterwards, with minimal relay loss throughout.
#include <iostream>

#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace e2efa;

int main() {
  Scenario sc = scenario1();

  SimConfig cfg;
  cfg.sim_seconds = 120.0;
  cfg.metrics_period_seconds = 10.0;

  sc.activity = {
      {0.0, 1e300},   // F1: always on
      {40.0, 80.0},   // F2: joins at 40 s, leaves at 80 s
  };

  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);

  std::cout << "Dynamic flows on the Fig.-1 topology (F2 active in [40, 80) s)\n\n";
  std::cout << "Re-computed allocations:\n";
  for (std::size_t e = 0; e < r.epoch_starts_s.size(); ++e) {
    std::vector<std::string> shares;
    for (double s : r.epoch_flow_share[e]) shares.push_back(format_share_of_b(s));
    std::cout << "  t >= " << r.epoch_starts_s[e] << " s: (" << join(shares, ", ")
              << ")\n";
  }

  std::cout << "\nWindowed end-to-end deliveries (10-s windows):\n";
  TextTable t({"window start s", "F1 pkts", "F2 pkts"});
  for (const MetricsSample& s : r.metrics.samples) {
    t.add_row({strformat("%.0f", s.t_s - cfg.metrics_period_seconds),
               std::to_string(s.flow_delivered[0]), std::to_string(s.flow_delivered[1])});
  }
  t.print(std::cout);
  std::cout << "\nTotals: F1 " << r.end_to_end_per_flow[0] << ", F2 "
            << r.end_to_end_per_flow[1] << "; in-network loss " << r.lost_packets
            << " packets (ratio " << strformat("%.4f", r.loss_ratio) << ")\n";
  return 0;
}
