// Microbenchmarks: events/sec of the event engine on MAC/PHY-shaped
// workloads, from the queue depths the simulator actually reaches (a few
// dozen pending) to deep queues that overflow the sorted run into the heap
// behind it. Each BM_Engine* reports items/sec = events processed/sec over
// fresh simulations of kEvents events.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace e2efa {
namespace {

constexpr int kEvents = 10'000;

// The workloads below schedule small function objects — the event shapes
// the product code actually produces ([this]-captured ticks and guard
// timers, frame-carrying end-of-reception closures).

/// Times one fresh simulation per iteration, set up and drained by
/// `body(sim, kEvents)`.
template <class Body>
void run_engine(benchmark::State& state, Body body) {
  std::int64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    body(sim, kEvents);
    events += static_cast<std::int64_t>(sim.events_processed());
  }
  state.SetItemsProcessed(events);
}

/// Bulk schedule of n empty events at increasing times, then one drain.
void BM_EngineScheduleDrain(benchmark::State& state) {
  run_engine(state, [](Simulator& sim, int count) {
    for (int i = 0; i < count; ++i) sim.schedule_at(i, [] {});
    sim.run();
  });
}
BENCHMARK(BM_EngineScheduleDrain);

/// Self-rescheduling chain: each event schedules its successor (a CBR tick
/// or backoff countdown; the closure is one `this` pointer).
struct CascadeCtx {
  Simulator* sim;
  int count = 0;
  int n;
  struct Tick {
    CascadeCtx* c;
    void operator()() const {
      if (++c->count < c->n) c->sim->schedule_in(1, Tick{c});
    }
  };
};

void BM_EngineCascade(benchmark::State& state) {
  run_engine(state, [](Simulator& sim, int count) {
    CascadeCtx ctx{&sim, 0, count};
    sim.schedule_in(1, CascadeCtx::Tick{&ctx});
    sim.run();
  });
}
BENCHMARK(BM_EngineCascade);

/// The MAC timeout pattern: every step cancels the previous guard timer and
/// arms a new one, so half the scheduled events die un-fired.
struct TimerCtx {
  Simulator* sim;
  Simulator::EventId pending = Simulator::kInvalidEvent;
  int count = 0;
  int n;
  struct Step {
    TimerCtx* c;
    void operator()() const {
      c->sim->cancel(c->pending);
      if (++c->count < c->n) {
        c->pending = c->sim->schedule_at(c->sim->now() + 1000, [] {});
        c->sim->schedule_in(7, Step{c});
      }
    }
  };
};

void BM_EngineTimerMix(benchmark::State& state) {
  run_engine(state, [](Simulator& sim, int count) {
    TimerCtx ctx{&sim, Simulator::kInvalidEvent, 0, count};
    sim.schedule_in(7, TimerCtx::Step{&ctx});
    sim.run();
  });
}
BENCHMARK(BM_EngineTimerMix);

/// The PHY shape: each "transmission" fans out four end-of-frame events
/// whose closures carry frame-sized state (~40 bytes).
struct FanCtx {
  Simulator* sim;
  int fired = 0;
  int n;
  long long sink = 0;
  struct FrameEnd {
    FanCtx* ctx;
    long long end;
    unsigned long long tx_id;
    int r;
    char body[12];
    void operator()() const {
      ++ctx->fired;
      ctx->sink += end + r;
    }
  };
  struct Tx {
    FanCtx* c;
    void operator()() const {
      if (c->fired >= c->n) return;
      for (int k = 0; k < 4; ++k)
        c->sim->schedule_at(c->sim->now() + 2048,
                            FrameEnd{c, c->sim->now() + 2048, 1, k, {}});
      c->sim->schedule_in(2048, Tx{c});
    }
  };
};

void BM_EnginePhyFanout(benchmark::State& state) {
  run_engine(state, [](Simulator& sim, int count) {
    FanCtx ctx{&sim, 0, count, 0};
    sim.schedule_in(1, FanCtx::Tx{&ctx});
    sim.run();
    benchmark::DoNotOptimize(ctx.sink);
  });
}
BENCHMARK(BM_EnginePhyFanout);

/// The regime the simulator measures: eight backoff countdowns stepping on
/// shared 20 µs slot boundaries (each step re-arms one slot ahead, behind
/// its same-instant peers) among 24 sparse far timers (source ticks, guard
/// timers) re-arming 1–5 ms ahead. About 32 events stay pending and every
/// new slot step lands among the 8 earliest.
struct MacSlotsCtx {
  static constexpr int kSlotTimers = 8;
  static constexpr int kFarTimers = 24;
  static constexpr TimeNs kSlot = 20'000;
  Simulator* sim;
  int steps = 0;
  int n;
  struct Step {
    MacSlotsCtx* c;
    void operator()() const {
      if (++c->steps < c->n) c->sim->schedule_in(kSlot, Step{c});
    }
  };
  struct Far {
    MacSlotsCtx* c;
    TimeNs period;
    void operator()() const {
      if (c->steps < c->n) c->sim->schedule_in(period, Far{c, period});
    }
  };
};

void BM_EngineMacSlots(benchmark::State& state) {
  run_engine(state, [](Simulator& sim, int count) {
    MacSlotsCtx ctx{&sim, 0, count};
    for (int k = 0; k < MacSlotsCtx::kSlotTimers; ++k)
      sim.schedule_at(MacSlotsCtx::kSlot, MacSlotsCtx::Step{&ctx});
    for (int k = 0; k < MacSlotsCtx::kFarTimers; ++k) {
      const TimeNs period = 1'000'000 + k * 173'000;
      sim.schedule_at(period, MacSlotsCtx::Far{&ctx, period});
    }
    sim.run();
  });
}
BENCHMARK(BM_EngineMacSlots);

/// The overflow path (the classic hold model): 1024 self-rescheduling
/// events, each re-arming a pseudo-random 1 ns – 1 ms ahead, keep eight
/// times the run's capacity pending until n have re-armed.
struct DeepQueueCtx {
  static constexpr int kPending = 1024;
  Simulator* sim;
  int n;
  int count = 0;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  TimeNs delay() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return 1 + static_cast<TimeNs>(rng % 1'000'000);
  }
  struct Hold {
    DeepQueueCtx* c;
    void operator()() const {
      if (++c->count < c->n) c->sim->schedule_in(c->delay(), Hold{c});
    }
  };
};

void BM_EngineDeepQueue(benchmark::State& state) {
  run_engine(state, [](Simulator& sim, int count) {
    DeepQueueCtx ctx{&sim, count};
    for (int k = 0; k < DeepQueueCtx::kPending; ++k)
      sim.schedule_in(ctx.delay(), DeepQueueCtx::Hold{&ctx});
    sim.run();
  });
}
BENCHMARK(BM_EngineDeepQueue);

}  // namespace
}  // namespace e2efa
