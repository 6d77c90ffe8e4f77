// Microbenchmarks: the tag scheduler's per-packet operations (selection,
// tag assignment, Q/R estimation) — these sit on the simulated fast path.
#include <benchmark/benchmark.h>

#include "sched/fifo_queue.hpp"
#include "sched/tag_scheduler.hpp"

namespace e2efa {
namespace {

Packet make_packet(std::int32_t subflow, std::int64_t seq) {
  Packet p;
  p.subflow = subflow;
  p.seq = seq;
  p.payload_bytes = 512;
  return p;
}

void BM_TagSchedulerEnqueuePop(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  std::vector<TagScheduler::SubflowConfig> cfg;
  for (int i = 0; i < lanes; ++i) cfg.push_back({i, 1.0 / lanes});
  TagScheduler s(cfg, 64, 1e-4);
  std::int64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < lanes; ++i) s.enqueue(make_packet(i, seq++), 0);
    for (int i = 0; i < lanes; ++i) benchmark::DoNotOptimize(s.pop_success(0));
  }
  state.SetItemsProcessed(state.iterations() * lanes);
}
BENCHMARK(BM_TagSchedulerEnqueuePop)->Arg(1)->Arg(4)->Arg(16);

void BM_TagSchedulerQ(benchmark::State& state) {
  TagScheduler s({{0, 0.5}}, 64, 1e-4);
  for (int n = 0; n < static_cast<int>(state.range(0)); ++n)
    s.observe_tag(100 + n, 1000.0 * n, 0);
  s.enqueue(make_packet(0, 1), 0);
  for (auto _ : state) benchmark::DoNotOptimize(s.q_slots(0));
}
BENCHMARK(BM_TagSchedulerQ)->Arg(2)->Arg(8)->Arg(32);

void BM_FifoEnqueuePop(benchmark::State& state) {
  FifoQueue q(64);
  std::int64_t seq = 0;
  for (auto _ : state) {
    q.enqueue(make_packet(0, seq++), 0);
    benchmark::DoNotOptimize(q.pop_success(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoEnqueuePop);

}  // namespace
}  // namespace e2efa
