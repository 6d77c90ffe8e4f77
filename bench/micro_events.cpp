// Scheduler-core microbenchmark: events/sec of the pooled event engine on
// MAC/PHY-shaped workloads, measured against an inline copy of the seed
// engine (std::function handlers in a hash map + binary heap + lazy-cancel
// hash set) so the speedup is re-measured — not asserted — on every run.
//
// Emits machine-readable JSON (default BENCH_events.json): one record per
// (engine, workload) with {"name", "events_per_sec", "ns_per_event"}.
// Seed-engine baselines are prefixed "seed_". Both engines run the same
// workloads alternately, best-of-`rounds`, so the ratio is robust to other
// load on the machine.
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/options.hpp"
#include "util/time.hpp"

namespace seedengine {
using e2efa::TimeNs;

/// The pre-rewrite event engine, kept verbatim (minus docs) as the
/// benchmark baseline.
class Simulator {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  TimeNs now() const { return now_; }

  EventId schedule_at(TimeNs t, std::function<void()> fn) {
    const EventId id = next_id_++;
    heap_.push({t, id});
    handlers_.emplace(id, std::move(fn));
    return id;
  }

  EventId schedule_in(TimeNs delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  bool cancel(EventId id) {
    const auto it = handlers_.find(id);
    if (it == handlers_.end()) return false;
    handlers_.erase(it);
    cancelled_.insert(id);
    return true;
  }

  std::uint64_t run_until(TimeNs t_end) {
    std::uint64_t count = 0;
    while (!heap_.empty() && heap_.top().time <= t_end) {
      const Entry e = heap_.top();
      heap_.pop();
      const auto c = cancelled_.find(e.id);
      if (c != cancelled_.end()) {
        cancelled_.erase(c);
        continue;
      }
      const auto h = handlers_.find(e.id);
      auto fn = std::move(h->second);
      handlers_.erase(h);
      now_ = e.time;
      fn();
      ++count;
    }
    if (heap_.empty() || now_ < t_end) now_ = std::max(now_, t_end);
    return count;
  }

  std::uint64_t run() {
    std::uint64_t count = 0;
    while (!heap_.empty()) count += run_until(heap_.top().time);
    return count;
  }

 private:
  struct Entry {
    TimeNs time;
    EventId id;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : id > o.id;
    }
  };

  TimeNs now_ = 0;
  EventId next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_set<EventId> cancelled_;
  std::unordered_map<EventId, std::function<void()>> handlers_;
};

}  // namespace seedengine

namespace {

using Clock = std::chrono::steady_clock;

// The workloads below schedule small function objects — the event shapes
// the product code actually produces ([this]-captured ticks and guard
// timers, frame-carrying end-of-reception closures) — identically on both
// engines: the seed engine wraps them in std::function exactly as the old
// MAC/PHY did.

/// Bulk schedule of n empty events, then one drain.
template <class Sim>
double bench_schedule_drain(int n, int reps) {
  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    Sim sim;
    for (int i = 0; i < n; ++i) sim.schedule_at(i, [] {});
    sim.run();
  }
  return reps * n / std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Self-rescheduling chain: each event schedules its successor (a CBR tick
/// or backoff countdown; the closure is one `this` pointer).
template <class Sim>
struct CascadeCtx {
  Sim* sim;
  int count = 0;
  int n;
  struct Tick {
    CascadeCtx* c;
    void operator()() const {
      if (++c->count < c->n) c->sim->schedule_in(1, Tick{c});
    }
  };
};

template <class Sim>
double bench_cascade(int n, int reps) {
  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    Sim sim;
    CascadeCtx<Sim> ctx{&sim, 0, n};
    sim.schedule_in(1, typename CascadeCtx<Sim>::Tick{&ctx});
    sim.run();
  }
  return reps * n / std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The MAC timeout pattern: every step cancels the previous guard timer and
/// arms a new one, so half the scheduled events die un-fired.
template <class Sim>
struct TimerCtx {
  Sim* sim;
  std::uint64_t pending = 0;
  int count = 0;
  int n;
  struct Step {
    TimerCtx* c;
    void operator()() const {
      if (c->pending) c->sim->cancel(c->pending);
      if (++c->count < c->n) {
        c->pending = c->sim->schedule_at(c->sim->now() + 1000, [] {});
        c->sim->schedule_in(7, Step{c});
      }
    }
  };
};

template <class Sim>
double bench_timer_mix(int n, int reps) {
  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    Sim sim;
    TimerCtx<Sim> ctx{&sim, 0, 0, n};
    sim.schedule_in(7, typename TimerCtx<Sim>::Step{&ctx});
    sim.run();
  }
  return reps * n / std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The PHY shape: each "transmission" fans out four end-of-frame events
/// whose closures carry frame-sized state (~40 bytes).
template <class Sim>
struct FanCtx {
  Sim* sim;
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

template <class Sim>
double bench_phy_fanout(int n, int reps) {
  const auto t0 = Clock::now();
  long long sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Sim sim;
    FanCtx<Sim> ctx{&sim, 0, n, 0};
    sim.schedule_in(1, typename FanCtx<Sim>::Tx{&ctx});
    sim.run();
    sink += ctx.sink;
  }
  if (sink == 42) std::printf("~");  // defeat whole-benchmark elision
  return reps * n / std::chrono::duration<double>(Clock::now() - t0).count();
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
    double (*seed)(int, int);
    double (*pooled)(int, int);
  };
  const Workload workloads[] = {
      {"schedule_drain", bench_schedule_drain<seedengine::Simulator>,
       bench_schedule_drain<e2efa::Simulator>},
      {"cascade", bench_cascade<seedengine::Simulator>,
       bench_cascade<e2efa::Simulator>},
      {"timer_mix", bench_timer_mix<seedengine::Simulator>,
       bench_timer_mix<e2efa::Simulator>},
      {"phy_fanout", bench_phy_fanout<seedengine::Simulator>,
       bench_phy_fanout<e2efa::Simulator>},
  };

  // Alternate engines within every round and keep the best round per
  // (engine, workload): slowdowns from unrelated machine load hit both
  // engines alike instead of biasing the ratio.
  std::vector<Result> results;
  for (const Workload& w : workloads) {
    double seed_best = 0.0, pooled_best = 0.0;
    for (int r = 0; r < opt.rounds; ++r) {
      seed_best = std::max(seed_best, w.seed(opt.events, opt.reps));
      pooled_best = std::max(pooled_best, w.pooled(opt.events, opt.reps));
    }
    results.push_back({w.name, pooled_best});
    results.push_back({std::string("seed_") + w.name, seed_best});
    std::printf("%-16s %8.2f M events/s   (seed engine %8.2f, %.2fx)\n",
                w.name, pooled_best / 1e6, seed_best / 1e6,
                pooled_best / seed_best);
  }

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
