// Observability overhead tracker: wall-clock cost of the trace layer on a
// real simulation (scenario 1, 2PA-C), measured in three modes:
//
//   off       cfg.trace == nullptr — the default every golden runs with;
//             the only instrumentation cost left is one pointer test per
//             would-be event.
//   filtered  a sink is attached but the runtime category mask rejects
//             everything except kMeta — adds the mask test.
//   on        a sink is attached with every category enabled, recording to
//             memory — the full record cost minus disk I/O noise.
//
// Modes alternate within every round and the best round per mode is kept,
// so unrelated machine load hits all modes alike. The run *guards* the
// zero-overhead claim: `filtered` must be within --tolerance (default 1%)
// of `off`, else exit 1. The enabled cost is recorded (not guarded) in the
// JSON output (default BENCH_trace.json). Only runs as long as the default
// --seconds 60 should be read: at a few simulated seconds the best-of-rounds
// timings are noise-dominated.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "obs/trace.hpp"
#include "util/options.hpp"

using namespace e2efa;

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  double seconds = 60.0;
  int rounds = 12;  // best-of-12: rides out bursty machine load
  double tolerance = 0.01;
  std::string out = "BENCH_trace.json";
};

Options parse_options(int argc, char** argv) {
  Options o;
  OptionTable t("micro_trace", "usage: micro_trace [options]\n");
  t.positive("--seconds", "T",
             "simulated seconds per run (default 60, the length CI\n"
             "guards; shorter runs are noise-dominated: best-of-rounds\n"
             "timings of a few seconds can even show tracing as faster\n"
             "than off)",
             &o.seconds)
      .integer("--rounds", "N", "A/B rounds, best kept per mode (default 12)",
               &o.rounds, 1, INT_MAX)
      .positive("--tolerance", "F",
                "max allowed filtered-vs-off slowdown (default 0.01)", &o.tolerance)
      .text("--out", "PATH", "JSON output (default BENCH_trace.json)", &o.out);
  t.parse_or_exit(argc, argv);
  return o;
}

enum class Mode { kOff, kFiltered, kOn };

/// One timed run; returns (wall seconds, records emitted).
std::pair<double, std::uint64_t> timed_run(const Scenario& sc, double seconds,
                                           Mode mode) {
  SimConfig cfg;
  cfg.sim_seconds = seconds;
  cfg.seed = 1;
  TraceSink sink;
  if (mode == Mode::kFiltered) sink.set_filter(0);  // kMeta only
  if (mode != Mode::kOff) cfg.trace = &sink;
  const auto t0 = Clock::now();
  run_scenario(sc, Protocol::k2paCentralized, cfg);
  const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
  return {dt, sink.recorded()};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const Scenario sc = scenario1();

  // Warm-up run (page-in, allocator steady state) before any timing.
  timed_run(sc, std::min(opt.seconds, 1.0), Mode::kOff);

  double best_off = 1e300, best_filtered = 1e300, best_on = 1e300;
  std::uint64_t on_records = 0;
  for (int r = 0; r < opt.rounds; ++r) {
    best_off = std::min(best_off, timed_run(sc, opt.seconds, Mode::kOff).first);
    best_filtered =
        std::min(best_filtered, timed_run(sc, opt.seconds, Mode::kFiltered).first);
    const auto [dt, n] = timed_run(sc, opt.seconds, Mode::kOn);
    best_on = std::min(best_on, dt);
    on_records = n;
  }

  const double filtered_overhead = best_filtered / best_off - 1.0;
  const double on_overhead = best_on / best_off - 1.0;
  std::printf("off       %8.2f ms\n", best_off * 1e3);
  std::printf("filtered  %8.2f ms  (%+.2f%% vs off, guarded < %.2f%%)\n",
              best_filtered * 1e3, filtered_overhead * 1e2, opt.tolerance * 1e2);
  std::printf("on        %8.2f ms  (%+.2f%% vs off, %llu records)\n",
              best_on * 1e3, on_overhead * 1e2,
              static_cast<unsigned long long>(on_records));

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", opt.out.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(f,
               "[\n"
               "  {\"name\": \"trace_off\", \"seconds\": %.6f},\n"
               "  {\"name\": \"trace_filtered\", \"seconds\": %.6f, "
               "\"overhead_vs_off\": %.4f},\n"
               "  {\"name\": \"trace_on\", \"seconds\": %.6f, "
               "\"overhead_vs_off\": %.4f, \"records\": %llu}\n"
               "]\n",
               best_off, best_filtered, filtered_overhead, best_on, on_overhead,
               static_cast<unsigned long long>(on_records));
  std::fclose(f);
  std::printf("wrote %s\n", opt.out.c_str());

  if (filtered_overhead > opt.tolerance) {
    std::fprintf(stderr,
                 "FAIL: filtered-trace overhead %.2f%% exceeds tolerance %.2f%%\n",
                 filtered_overhead * 1e2, opt.tolerance * 1e2);
    return 1;
  }
  return 0;
}
