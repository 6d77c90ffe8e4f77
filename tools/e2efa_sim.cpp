// e2efa_sim — run any scenario under any protocol from the command line.
//
//   e2efa_sim --scenario 2 --protocol 2pa-d --seconds 120 --shares
//   e2efa_sim --scenario chain:6 --protocol 802.11
//   e2efa_sim --scenario random:20 --protocol maxmin --seed 7
//   e2efa_sim --scenario 1 --trace run.trace --trace-filter lp,flow
//             --metrics-out metrics.jsonl --metrics-period 0.5  (one line)
#include <cstdint>
#include <iostream>
#include <string>

#include "check/check.hpp"
#include "net/cli.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

using namespace e2efa;

int main(int argc, char** argv) {
  std::string error;
  const auto opt = parse_cli(argc, argv, &error);
  if (!opt) {
    if (error.empty()) {
      std::cout << cli_usage();
      return 0;
    }
    std::cerr << "e2efa-sim: " << error << "\n\n" << cli_usage();
    return 2;
  }
  try {
    Rng rng(opt->config.seed);
    Scenario sc = make_named_scenario(opt->scenario, rng);
    if (opt->default_loss > 0.0) sc.faults.set_default_loss(opt->default_loss);
    apply_cli_dynamics(sc, *opt);

    SimConfig cfg = opt->config;
    TraceSink trace;
    if (!opt->trace_path.empty()) {
      if (!opt->trace_filter.empty()) {
        std::uint32_t mask = 0;
        if (!parse_trace_filter(opt->trace_filter, &mask, &error)) {
          std::cerr << "error: " << error << "\n";
          return 2;
        }
        trace.set_filter(mask);
      }
      if (!trace.open(opt->trace_path, &error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      cfg.trace = &trace;
    }

    CheckContext check;
    if (opt->check) cfg.check = &check;

    // Flight recorder: a bounded ring of recent history to dump (the CLI
    // rejects --flight-out with --trace, so no trace is streaming here).
    TraceSink flight_ring;
    if (!opt->flight_out.empty()) {
      flight_ring.set_ring(1u << 14);
      cfg.trace = &flight_ring;
      check.arm_flight_recorder(&flight_ring);
    }

    Profiler profiler;
    if (!opt->profile_out.empty()) cfg.profile = &profiler;

    const RunResult r = run_scenario(sc, opt->protocol, cfg);

    if (!opt->trace_path.empty()) {
      trace.close();
      std::cerr << "trace: " << trace.recorded() << " records -> "
                << opt->trace_path << "\n";
    }
    if (!opt->profile_out.empty()) {
      if (!write_profile_json(profiler, "e2efa-sim " + opt->scenario,
                              opt->profile_out, &error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      std::cerr << "profile: phase accounting -> " << opt->profile_out << "\n";
    }
    if (!opt->flight_out.empty() && !check.ok()) {
      const auto& dump = check.flight_records();
      if (!write_trace_file(dump, opt->flight_out, &error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      std::cerr << "flight recorder: " << dump.size() << " records -> "
                << opt->flight_out << "\n";
    }
    if (!opt->metrics_out.empty()) {
      if (!write_metrics_jsonl(r.metrics, opt->metrics_out, &error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      std::cerr << "metrics: " << r.metrics.samples.size() << " samples -> "
                << opt->metrics_out << "\n";
    }
    std::cout << format_run_result(sc, r, cfg, opt->list_shares);
    if (opt->check) {
      if (!check.ok()) {
        std::cout << "\n" << check.report();
        return 1;
      }
      std::cout << "\ninvariant checks: clean\n";
    }
  } catch (const ContractViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
