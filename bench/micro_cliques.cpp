// Microbenchmarks: maximal-clique enumeration (Bron–Kerbosch) and related
// contention-graph machinery on chains and random flow sets.
#include <benchmark/benchmark.h>

#include "contention/cliques.hpp"
#include "contention/coloring.hpp"
#include "net/scenarios.hpp"
#include "route/routing.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace e2efa {
namespace {

/// Random connected topology with `nf` min-hop routed flows.
struct RandomNet {
  RandomNet(int nodes, int nf, std::uint64_t seed) {
    Rng rng(seed);
    // Constant node density (~5 neighbors each) so placements stay connected.
    const double side = 200.0 * std::sqrt(static_cast<double>(nodes));
    topo = std::make_unique<Topology>(make_random(nodes, side, side, rng));
    std::vector<Flow> specs;
    for (int i = 0; i < nf; ++i) {
      NodeId a, b;
      do {
        a = static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
        b = static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
      } while (a == b);
      specs.push_back(make_routed_flow(*topo, a, b, 1.0 + rng.uniform01()));
    }
    flows = std::make_unique<FlowSet>(*topo, specs);
    graph = std::make_unique<ContentionGraph>(*topo, *flows);
  }
  std::unique_ptr<Topology> topo;
  std::unique_ptr<FlowSet> flows;
  std::unique_ptr<ContentionGraph> graph;
};

void BM_MaximalCliquesChain(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  Topology topo = make_chain(hops + 1);
  Flow f;
  for (int i = 0; i <= hops; ++i) f.path.push_back(i);
  FlowSet flows(topo, {f});
  ContentionGraph g(topo, flows);
  for (auto _ : state) benchmark::DoNotOptimize(maximal_cliques(g));
  state.SetComplexityN(hops);
}
BENCHMARK(BM_MaximalCliquesChain)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_MaximalCliquesRandom(benchmark::State& state) {
  RandomNet net(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 3, 7);
  for (auto _ : state) benchmark::DoNotOptimize(maximal_cliques(*net.graph));
}
BENCHMARK(BM_MaximalCliquesRandom)->Arg(12)->Arg(24)->Arg(48);

// Before/after pair for the scaling rework: the dense-matrix subflow
// enumerator the seed shipped (O(V^2) setup, per-call allocation) vs the
// link-seeded bitset engine plus expansion behind maximal_cliques. Same
// outputs — scale_parity_test asserts element-wise equality.
void BM_MaximalCliquesDenseReference(benchmark::State& state) {
  RandomNet net(static_cast<int>(state.range(0)), 3 * static_cast<int>(state.range(0)), 7);
  for (auto _ : state)
    benchmark::DoNotOptimize(maximal_cliques_reference(*net.graph));
}
BENCHMARK(BM_MaximalCliquesDenseReference)->Arg(24)->Arg(48)->Arg(96);

void BM_MaximalCliquesSparseSeeded(benchmark::State& state) {
  RandomNet net(static_cast<int>(state.range(0)), 3 * static_cast<int>(state.range(0)), 7);
  for (auto _ : state) benchmark::DoNotOptimize(maximal_cliques(*net.graph));
}
BENCHMARK(BM_MaximalCliquesSparseSeeded)->Arg(24)->Arg(48)->Arg(96);

// Scratch reuse in the hot path: a long-lived CliqueEnumerator (what the
// incremental store holds) vs a fresh engine per run, which re-allocates
// frames, bitset rows, and relabel maps every call.
void BM_EnumeratorPooledScratch(benchmark::State& state) {
  RandomNet net(static_cast<int>(state.range(0)), 3 * static_cast<int>(state.range(0)), 7);
  std::vector<int> all;
  for (int l = 0; l < net.graph->link_count(); ++l) all.push_back(l);
  CliqueEnumerator engine(*net.graph);
  std::vector<std::vector<int>> out;
  for (auto _ : state) {
    out.clear();
    engine.enumerate(all, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_EnumeratorPooledScratch)->Arg(24)->Arg(48)->Arg(96);

void BM_EnumeratorFreshScratch(benchmark::State& state) {
  RandomNet net(static_cast<int>(state.range(0)), 3 * static_cast<int>(state.range(0)), 7);
  std::vector<int> all;
  for (int l = 0; l < net.graph->link_count(); ++l) all.push_back(l);
  std::vector<std::vector<int>> out;
  for (auto _ : state) {
    out.clear();
    CliqueEnumerator engine(*net.graph);
    engine.enumerate(all, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_EnumeratorFreshScratch)->Arg(24)->Arg(48)->Arg(96);

void BM_IndependentSetsRandom(benchmark::State& state) {
  RandomNet net(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 3, 7);
  for (auto _ : state) benchmark::DoNotOptimize(maximal_independent_sets(*net.graph));
}
BENCHMARK(BM_IndependentSetsRandom)->Arg(12)->Arg(24);

void BM_ContentionGraphBuild(benchmark::State& state) {
  RandomNet net(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 3, 7);
  for (auto _ : state)
    benchmark::DoNotOptimize(ContentionGraph(*net.topo, *net.flows));
}
BENCHMARK(BM_ContentionGraphBuild)->Arg(12)->Arg(24)->Arg(48);

void BM_GreedyColoring(benchmark::State& state) {
  RandomNet net(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 3, 7);
  for (auto _ : state) benchmark::DoNotOptimize(greedy_coloring(*net.graph));
}
BENCHMARK(BM_GreedyColoring)->Arg(24)->Arg(48);

}  // namespace
}  // namespace e2efa
