// Transport-layer overhead tracker: event-engine throughput (processed
// events per wall-clock second) on scenario 1 under 2PA-C, measured with
// the open-loop CBR source and with each elastic transport:
//
//   cbr    the golden path — no AckPlane is constructed, no transport
//          listeners are installed; this is the baseline the elastic
//          modes are guarded against.
//   aimd   closed-loop Reno-style source + cumulative-ACK return path.
//   bbr    closed-loop BBR-style source (paced sends) + ACK return path.
//
// The elastic modes schedule *more* events (pacing timers, RTOs, delayed
// ACKs, ACK control frames) and drive a heavier event mix (saturated
// queues, broadcast ACK receptions at every neighbor), so wall-clock per
// run is not comparable; events per second through the engine is — and
// even that sits below the CBR rate by design. What must not move is the
// *ratio*: modes alternate within every round, the best round per mode is
// kept (unrelated machine load hits all modes alike), and each elastic
// mode's events/sec-vs-CBR ratio is guarded against the baseline recorded
// below. A drop of more than --tolerance (default 10%) under the baseline
// fails the run. Absolute rates land in JSON (default
// BENCH_transport.json) for the historical record.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "transport/transport.hpp"
#include "util/options.hpp"

using namespace e2efa;

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  double seconds = 30.0;
  int rounds = 8;  // best-of-8: rides out bursty machine load
  double tolerance = 0.10;
  std::string out = "BENCH_transport.json";
};

Options parse_options(int argc, char** argv) {
  Options o;
  OptionTable t("micro_transport", "usage: micro_transport [options]\n");
  t.positive("--seconds", "T", "simulated seconds per run (default 30)", &o.seconds)
      .integer("--rounds", "N", "A/B rounds, best kept per mode (default 8)",
               &o.rounds, 1, INT_MAX)
      .positive("--tolerance", "F",
                "max allowed events/sec drop vs cbr (default 0.1)", &o.tolerance)
      .text("--out", "PATH", "JSON output (default BENCH_transport.json)", &o.out);
  t.parse_or_exit(argc, argv);
  return o;
}

struct ModeResult {
  double best_eps = 0.0;  ///< Best events/sec over the rounds.
  std::uint64_t events = 0;
};

/// Events/sec relative to the same-process CBR run, recorded at the
/// default 30 s horizon. Machine-independent (both sides scale with the
/// host): a future change that slows elastic event processing relative to
/// the open-loop path drags the measured ratio under these.
constexpr double kBaselineRatio[] = {1.0, 0.78, 0.75};  // cbr, aimd, bbr

/// One timed run; returns events/sec and the event count.
std::pair<double, std::uint64_t> timed_run(TransportKind kind, double seconds) {
  Scenario sc = scenario1();
  sc.transport = kind;
  SimConfig cfg;
  cfg.sim_seconds = seconds;
  cfg.seed = 1;
  const auto t0 = Clock::now();
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
  return {static_cast<double>(r.events_processed) / dt, r.events_processed};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const std::vector<TransportKind> kinds{
      TransportKind::kCbr, TransportKind::kAimd, TransportKind::kBbr};

  // Warm-up run (page-in, allocator steady state) before any timing.
  timed_run(TransportKind::kCbr, std::min(opt.seconds, 2.0));

  std::vector<ModeResult> results(kinds.size());
  for (int r = 0; r < opt.rounds; ++r) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto [eps, events] = timed_run(kinds[k], opt.seconds);
      results[k].best_eps = std::max(results[k].best_eps, eps);
      results[k].events = events;
    }
  }

  const double cbr_eps = results[0].best_eps;
  bool failed = false;
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", opt.out.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(f, "[\n");
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const double ratio = results[k].best_eps / cbr_eps;
    std::printf("%-5s %10.0f events/s  (%llu events, %.2fx vs cbr)\n",
                to_string(kinds[k]), results[k].best_eps,
                static_cast<unsigned long long>(results[k].events), ratio);
    std::fprintf(f,
                 "  {\"name\": \"transport_%s\", \"events_per_sec\": %.1f, "
                 "\"events\": %llu, \"ratio_vs_cbr\": %.4f}%s\n",
                 to_string(kinds[k]), results[k].best_eps,
                 static_cast<unsigned long long>(results[k].events), ratio,
                 k + 1 < kinds.size() ? "," : "");
    if (k > 0 && ratio < kBaselineRatio[k] * (1.0 - opt.tolerance)) {
      std::fprintf(stderr,
                   "FAIL: %s events/sec ratio %.3fx vs cbr regressed more "
                   "than %.0f%% under the recorded baseline %.2fx\n",
                   to_string(kinds[k]), ratio, opt.tolerance * 1e2,
                   kBaselineRatio[k]);
      failed = true;
    }
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", opt.out.c_str());
  return failed ? 1 : 0;
}
