// trace-tool — offline analysis over the binary traces e2efa-sim writes
// (--trace PATH; the one trace file format).
//
//   trace-tool summary run.trace
//   trace-tool jsonl run.trace                # one JSON line per record
//   trace-tool timeline run.trace --flow 0 --limit 40
//   trace-tool convergence run.trace --window 1 --eps 0.2
//   trace-tool follow run.trace --flow 0      # causal-chain report
//   trace-tool chrome run.trace > run.json    # Chrome/Perfetto trace JSON
//
// `convergence` reconstructs the runner's fairness metrics from the trace
// alone: per-window end-to-end shares, a share-normalized Jain trajectory,
// and the time each LP epoch's allocation first lands within eps of its
// Phase-1 targets. It needs the lp and flow categories in the trace (the
// default --trace-filter keeps them).
//
// `follow` rebuilds the causal span graph (observability v2) and prints
// every root-to-leaf chain — control message sends, the frames that carried
// them, retransmits, receptions, and the solves/rate applications they
// triggered — optionally restricted to chains touching one logical flow.
//
// `chrome` converts the trace to Chrome trace-event JSON (load in Perfetto
// or chrome://tracing): one track per node, frame airtime as slices, span
// edges as flow arrows.
#include <climits>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "util/options.hpp"
#include "util/strings.hpp"

using namespace e2efa;

namespace {

void print_convergence(const ConvergenceReport& rep) {
  std::printf("flows %d, channel %.0f bps, payload %.0f bytes, window %g s\n",
              rep.flow_count, rep.channel_bps, rep.payload_bytes, rep.window_s);
  for (const ConvergenceReport::Epoch& e : rep.epochs) {
    std::printf("epoch %d @%.2f s: targets", e.index, e.start_s);
    for (double t : e.target_share) std::printf(" %.4fB", t);
    std::printf("\n");
  }
  std::printf("\nwindow end (s) | jain | per-flow share of B\n");
  for (std::size_t w = 0; w < rep.window_end_s.size(); ++w) {
    std::printf("%14.2f | %.4f |", rep.window_end_s[w], rep.jain[w]);
    for (double s : rep.window_share[w]) std::printf(" %.4f", s);
    std::printf("\n");
  }
  std::printf("\n");
  for (const ConvergenceReport::EpochConvergence& c : rep.convergence) {
    if (c.converged)
      std::printf(
          "epoch %d (start %.2f s): converged at %.2f s "
          "(time to converge %.2f s), steady jain %.4f\n",
          c.epoch, c.epoch_start_s, c.converged_s, c.time_to_converge_s,
          rep.steady_jain(c.epoch));
    else
      std::printf("epoch %d (start %.2f s): did not converge, steady jain %.4f\n",
                  c.epoch, c.epoch_start_s, rep.steady_jain(c.epoch));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  int flow = -1;
  int limit = 50;
  double window_s = 1.0;
  double eps = 0.2;
  OptionTable table(
      "trace-tool",
      "usage: trace-tool COMMAND TRACE [options]\n"
      "commands:\n"
      "  summary      per-event-type record counts\n"
      "  jsonl        dump the binary trace as JSONL on stdout\n"
      "  timeline     per-flow delivery/milestone timeline (--flow, --limit)\n"
      "  convergence  windowed shares, Jain trajectory, and per-epoch\n"
      "               convergence times against the Phase-1 targets\n"
      "               (--window, --eps)\n"
      "  follow       causal-chain report from span/parent ids (--flow, --limit)\n"
      "  chrome       Chrome trace-event JSON on stdout (Perfetto /\n"
      "               chrome://tracing; per-node tracks, span arrows)\n"
      "options:\n");
  table.integer("--flow", "F", "only flow F, or chains touching it (default: all)",
                &flow, 0, INT_MAX)
      .integer("--limit", "N", "at most N rows or chains (default 50)", &limit, 1,
               INT_MAX)
      .positive("--window", "W", "window seconds (default 1)", &window_s)
      .positive("--eps", "E", "relative tolerance (default 0.2)", &eps);
  if (command == "--help" || command == "-h") {
    std::fputs(table.usage().c_str(), stdout);
    return 0;
  }
  if (argc < 3) table.fail("need a command and a trace file");
  const std::string path = argv[2];
  if (command != "summary" && command != "jsonl" && command != "timeline" &&
      command != "convergence" && command != "follow" && command != "chrome")
    table.fail("unknown command: " + command);
  table.parse_or_exit(argc, argv, 3);
  // Which command an option applies to is this tool's rule, not the table's.
  const bool per_flow = command == "timeline" || command == "follow";
  for (int i = 3; i < argc; ++i) {
    const std::string key = argv[i];
    if (!per_flow && (key == "--flow" || key == "--limit"))
      table.fail(key + " only applies to timeline and follow");
    if (command != "convergence" && (key == "--window" || key == "--eps"))
      table.fail(key + " only applies to convergence");
  }

  std::vector<TraceRecord> records;
  std::string error;
  if (!read_trace(path, &records, &error)) {
    std::fprintf(stderr, "trace-tool: %s\n", error.c_str());
    return 1;
  }

  if (command == "summary") {
    std::printf("%zu records\n%s", records.size(),
                format_trace_summary(records).c_str());
  } else if (command == "jsonl") {
    for (const TraceRecord& r : records)
      std::printf("%s\n", trace_record_jsonl(r).c_str());
  } else if (command == "timeline") {
    std::printf("%s", format_flow_timeline(records, flow,
                                           static_cast<std::size_t>(limit))
                          .c_str());
  } else if (command == "follow") {
    std::printf("%s",
                format_follow(records, flow, static_cast<std::size_t>(limit))
                    .c_str());
  } else if (command == "chrome") {
    std::printf("%s", format_chrome_trace(records).c_str());
  } else {
    print_convergence(analyze_convergence(records, window_s, eps));
  }
  return 0;
}
