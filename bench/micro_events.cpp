// Scheduler-core microbenchmark: events/sec of the event engine on
// MAC/PHY-shaped workloads, from the queue depths the simulator actually
// reaches (a few dozen pending) to deep queues that overflow the sorted run
// into the heap behind it.
//
// Emits machine-readable JSON (default BENCH_events.json): one record per
// workload with {"name", "events_per_sec", "ns_per_event"}. Each workload
// keeps its best of `rounds` timed samples, so other load on the machine
// only ever lowers a figure.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/options.hpp"
#include "util/time.hpp"

namespace {

using e2efa::Simulator;
using e2efa::TimeNs;
using Clock = std::chrono::steady_clock;

// The workloads below schedule small function objects — the event shapes
// the product code actually produces ([this]-captured ticks and guard
// timers, frame-carrying end-of-reception closures).

/// Events fired per second over `reps` fresh simulations, each set up and
/// drained by `body(sim, n)`.
template <class Body>
double events_per_sec(int n, int reps, Body body) {
  std::uint64_t events = 0;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    Simulator sim;
    body(sim, n);
    events += sim.events_processed();
  }
  return events / std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Bulk schedule of n empty events at increasing times, then one drain.
double bench_schedule_drain(int n, int reps) {
  return events_per_sec(n, reps, [](Simulator& sim, int count) {
    for (int i = 0; i < count; ++i) sim.schedule_at(i, [] {});
    sim.run();
  });
}

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

double bench_cascade(int n, int reps) {
  return events_per_sec(n, reps, [](Simulator& sim, int count) {
    CascadeCtx ctx{&sim, 0, count};
    sim.schedule_in(1, CascadeCtx::Tick{&ctx});
    sim.run();
  });
}

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

double bench_timer_mix(int n, int reps) {
  return events_per_sec(n, reps, [](Simulator& sim, int count) {
    TimerCtx ctx{&sim, Simulator::kInvalidEvent, 0, count};
    sim.schedule_in(7, TimerCtx::Step{&ctx});
    sim.run();
  });
}

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

long long g_sink = 0;  // defeats whole-benchmark elision

double bench_phy_fanout(int n, int reps) {
  return events_per_sec(n, reps, [](Simulator& sim, int count) {
    FanCtx ctx{&sim, 0, count, 0};
    sim.schedule_in(1, FanCtx::Tx{&ctx});
    sim.run();
    g_sink += ctx.sink;
  });
}

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

double bench_mac_slots(int n, int reps) {
  return events_per_sec(n, reps, [](Simulator& sim, int count) {
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

double bench_deep_queue(int n, int reps) {
  return events_per_sec(n, reps, [](Simulator& sim, int count) {
    DeepQueueCtx ctx{&sim, count};
    for (int k = 0; k < DeepQueueCtx::kPending; ++k)
      sim.schedule_in(ctx.delay(), DeepQueueCtx::Hold{&ctx});
    sim.run();
  });
}

struct Options {
  int events = 10'000;
  int reps = 150;
  int rounds = 5;
  std::string out = "BENCH_events.json";
};

Options parse_options(int argc, char** argv) {
  Options o;
  e2efa::OptionTable t("micro_events", "usage: micro_events [options]\n");
  t.integer("--events", "N", "events per run (default 10000)", &o.events, 1,
            100'000'000)
      .integer("--reps", "N", "runs per timed sample (default 150)", &o.reps, 1,
               100'000'000)
      .integer("--rounds", "N", "rounds, best kept per workload (default 5)",
               &o.rounds, 1, 100'000'000)
      .text("--out", "PATH", "JSON output (default BENCH_events.json)", &o.out);
  t.parse_or_exit(argc, argv);
  return o;
}

struct Result {
  std::string name;
  double events_per_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  struct Workload {
    const char* name;
    double (*run)(int, int);
  };
  const Workload workloads[] = {
      {"schedule_drain", bench_schedule_drain},
      {"cascade", bench_cascade},
      {"timer_mix", bench_timer_mix},
      {"phy_fanout", bench_phy_fanout},
      {"mac_slots", bench_mac_slots},
      {"deep_queue", bench_deep_queue},
  };

  std::vector<Result> results;
  for (const Workload& w : workloads) {
    double best = 0.0;
    for (int r = 0; r < opt.rounds; ++r)
      best = std::max(best, w.run(opt.events, opt.reps));
    results.push_back({w.name, best});
    std::printf("%-16s %8.2f M events/s  %8.3f ns/event\n", w.name, best / 1e6,
                1e9 / best);
  }
  if (g_sink == 42) std::printf("~");

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", opt.out.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"events_per_sec\": %.0f, "
                 "\"ns_per_event\": %.3f}%s\n",
                 results[i].name.c_str(), results[i].events_per_sec,
                 1e9 / results[i].events_per_sec,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", opt.out.c_str());
  return 0;
}
