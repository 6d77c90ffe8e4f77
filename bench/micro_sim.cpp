// Microbenchmarks: packet-level simulation speed (simulated seconds per
// wall second); the event engine alone is timed in micro_events.cpp.
#include <benchmark/benchmark.h>

#include "net/runner.hpp"
#include "net/scenarios.hpp"

namespace e2efa {
namespace {

void BM_Scenario1SimulatedSecond(benchmark::State& state) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 1.0;
  for (auto _ : state) {
    cfg.seed++;
    benchmark::DoNotOptimize(run_scenario(sc, Protocol::k2paCentralized, cfg));
  }
}
BENCHMARK(BM_Scenario1SimulatedSecond);

void BM_Scenario2SimulatedSecond(benchmark::State& state) {
  const Scenario sc = scenario2();
  SimConfig cfg;
  cfg.sim_seconds = 1.0;
  for (auto _ : state) {
    cfg.seed++;
    benchmark::DoNotOptimize(run_scenario(sc, Protocol::k2paDistributed, cfg));
  }
}
BENCHMARK(BM_Scenario2SimulatedSecond);

}  // namespace
}  // namespace e2efa
