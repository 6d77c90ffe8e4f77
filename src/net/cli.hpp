// Command-line front end for the scenario runner (used by tools/e2efa_sim).
//
// Scenario specs:  "1" | "2" (the paper's topologies), "chain:N" (one flow
// across an N-hop chain), "grid:RxC" (four corner-to-corner flows on an
// RxC grid), "random:N" (N nodes, N/3 random flows).
// Protocol specs:  the spellings in kProtocolTable (net/runner.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "util/rng.hpp"

namespace e2efa {

/// CliOptions::trace_filter for a list that reaches the ctrl category only
/// through "all": every bit, so the trace keeps whatever the run emits and
/// check_cli holds only a ctrl category named as such to the protocol.
inline constexpr std::uint32_t kTraceFilterAll = ~0u;

struct CliOptions {
  std::string scenario = "1";
  Protocol protocol = Protocol::k2paCentralized;
  SimConfig config;
  bool list_shares = false;  ///< Also print phase-1 target shares.
  /// --loss P: default packet-error rate applied to every link of the
  /// scenario (on top of any loss/fault directives a scenario file sets).
  double default_loss = 0.0;
  /// --trace PATH: binary structured-event trace output (`trace-tool jsonl`
  /// renders it as text).
  std::string trace_path;
  /// --trace-filter CATS: the category mask parse_trace_filter made of the
  /// comma-separated list (0 = no filter, also for an empty list; a parsed
  /// mask always carries the meta bit), or kTraceFilterAll. Only meaningful
  /// with --trace; rejected without it.
  std::uint32_t trace_filter = 0;
  /// --metrics-out PATH: periodic metrics JSONL. --metrics-period T sets
  /// SimConfig::metrics_period_seconds and is rejected without a path;
  /// a path alone defaults the period to 1 s.
  std::string metrics_out;
  /// --check: run with every invariant oracle armed (src/check) and report
  /// violations after the table; a violation makes the tool exit nonzero.
  /// The checked trajectory is bit-identical to an unchecked run.
  bool check = false;
  /// --profile PATH: self-profiler JSON (wall-clock phase accounting in the
  /// BENCH_scale.json row schema).
  std::string profile_out;
  /// --flight-out PATH: flight-recorder dump target. Requires --check and
  /// excludes --trace (a streamed trace already holds the history): a
  /// bounded in-memory ring is armed so a violation still yields the recent
  /// event history as a binary trace.
  std::string flight_out;
  /// --churn RATE:LIFE: open-loop flow churn over the scenario's flows.
  /// Flow 0 founds the network at t = 0; every later flow arrives after a
  /// cumulative Exp(1/RATE) gap and departs Exp(LIFE) seconds later (both
  /// seeded from --seed, so runs are reproducible). Arrivals pass through
  /// the protocol's admission gate.
  double churn_rate = 0.0;  ///< Mean arrivals per second (0 = off).
  double churn_life = 0.0;  ///< Mean flow lifetime in seconds.
  /// --mobility K:SPEED: K random-waypoint walkers at SPEED m/s (walker
  /// picks and walk seeds derived from --seed).
  int mobility_walkers = 0;
  double mobility_speed = 0.0;
  /// --transport K: override the scenario's source model (cbr | aimd | bbr).
  /// Empty (default) keeps whatever the scenario specifies.
  std::string transport;
};

/// Parses argv. On error returns nullopt and fills *error with a message
/// (also used for --help, with an empty error).
std::optional<CliOptions> parse_cli(int argc, const char* const* argv,
                                    std::string* error);

/// Usage text for the CLI tool.
std::string cli_usage();

/// Parses a protocol spec; nullopt when unknown.
std::optional<Protocol> parse_protocol(const std::string& s);

/// Builds a scenario from its spec; throws ContractViolation on a malformed
/// spec. `rng` seeds "random:N" placements.
Scenario make_named_scenario(const std::string& spec, Rng& rng);

/// Applies the --churn / --mobility / --transport options to a built
/// scenario (no-op when all are off). Churn fills sc.activity as on CliOptions;
/// mobility appends walkers for the first K nodes drawn without
/// replacement. Deterministic in (sc, opt.config.seed).
void apply_cli_dynamics(Scenario& sc, const CliOptions& opt);

/// Renders a RunResult as the standard report table.
std::string format_run_result(const Scenario& sc, const RunResult& r,
                              const SimConfig& cfg, bool list_shares);

}  // namespace e2efa
