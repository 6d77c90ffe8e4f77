// Study: does two-phase fair allocation survive closed-loop sources?
//
// The paper's evaluation is CBR-only — every source is greedy at a fixed
// rate and the 2PA shares r̂_i are never probed by a congestion
// controller. This study asks ROADMAP's open question directly: sweep
// source model {cbr, aimd, bbr} × protocol {802.11 FIFO, 2PA-C,
// 2PA-Dctrl} on both paper topologies with staggered starts (flow i
// joins at 5·i seconds, so every controller must first surrender
// bandwidth an earlier flow already claimed), and report over the
// converged tail (the last third of the run):
//
//   jain      mean windowed Jain index over target-normalized flow rates
//             (the weighted-fair allocations are deliberately unequal, so
//             raw rates are never comparable). 802.11 rows are normalized
//             by the same topology's 2PA-C targets — that is exactly the
//             paper's unfairness baseline.
//   track     mean per-flow tracking error against r̂_i expressed in
//             packets/s: |rate_i/Σrate − r̂_i/Σr̂|, relative. Ratio-based
//             on purpose: on a saturated clique the MAC delivers a
//             protocol-dependent fraction of the fluid-ideal capacity,
//             and the controller's job is to hold the *proportions*.
//
// The run enforces the acceptance floor for the elastic × allocating
// cells — Jain >= 0.9 and tracking error <= 15% — and exits nonzero on a
// miss. Every cell is also emitted as a JSONL line (default
// elastic_fairness.jsonl) for the CI artifact. Deterministic per seed.
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/fluid.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "transport/transport.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace e2efa;

namespace {

struct Options {
  double seconds = 90.0;
  std::uint64_t seed = 1;
  std::string out = "elastic_fairness.jsonl";
};

Options parse_options(int argc, char** argv) {
  Options o;
  OptionTable t("elastic_fairness", "usage: elastic_fairness [options]\n");
  t.positive("--seconds", "T", "simulated seconds per cell (default 90)", &o.seconds)
      .u64("--seed", "N", "simulation seed (default 1)", &o.seed)
      .text("--out", "PATH", "JSONL artifact (default elastic_fairness.jsonl)", &o.out);
  t.parse_or_exit(argc, argv);
  return o;
}

struct CellResult {
  double jain = 0.0;       ///< Mean target-normalized windowed Jain, tail.
  double track = 0.0;      ///< Mean relative per-flow share tracking error.
  std::vector<double> rate_pps;    ///< Per-flow mean rate over the tail.
  std::vector<double> target_pps;  ///< r̂_i as fluid packets/s.
};

/// r̂ shares → fluid packets/s under the run's MAC parameters.
std::vector<double> shares_to_pps(const std::vector<double>& shares,
                                  const SimConfig& cfg) {
  const MacConfig mac;
  const double eff = effective_packet_rate(cfg.payload_bytes, mac, cfg.cw_min);
  std::vector<double> pps;
  for (double s : shares) pps.push_back(s * eff);
  return pps;
}

CellResult evaluate(const Scenario& base, TransportKind kind, Protocol proto,
                    const Options& opt, const std::vector<double>& fallback_targets) {
  Scenario sc = base;
  sc.transport = kind;
  sc.activity.assign(sc.flow_specs.size(), FlowActivity{});
  for (std::size_t f = 1; f < sc.activity.size(); ++f)
    sc.activity[f].start_s = 5.0 * static_cast<double>(f);

  SimConfig cfg;
  cfg.sim_seconds = opt.seconds;
  cfg.metrics_period_seconds = 2.0;
  cfg.seed = opt.seed;
  const RunResult r = run_scenario(sc, proto, cfg);

  std::vector<double> targets = r.target_flow_share;
  if (!r.epoch_flow_share.empty()) targets = r.epoch_flow_share.back();
  const bool own_solve = r.has_target;
  if (!own_solve) targets = fallback_targets;  // 802.11: 2PA-C's solve

  CellResult cell;
  const std::vector<MetricsSample>& samples = r.metrics.samples;
  const std::size_t n = samples.size();
  const std::size_t tail0 = 2 * n / 3;
  const std::size_t flows = sc.flow_specs.size();
  cell.rate_pps.assign(flows, 0.0);
  std::size_t windows = 0;
  for (std::size_t w = tail0; w < n; ++w, ++windows) {
    std::vector<double> normalized;
    for (std::size_t f = 0; f < flows; ++f) {
      const double pkts = static_cast<double>(samples[w].flow_delivered[f]);
      cell.rate_pps[f] += pkts / cfg.metrics_period_seconds;
      normalized.push_back(pkts / targets[f]);
    }
    cell.jain += jain_fairness_index(normalized);
  }
  cell.jain /= static_cast<double>(windows);
  double total_rate = 0.0, total_target = 0.0;
  for (std::size_t f = 0; f < flows; ++f) {
    cell.rate_pps[f] /= static_cast<double>(windows);
    total_rate += cell.rate_pps[f];
    total_target += targets[f];
  }
  // r̂_i in packets/s for the report. An 802.11 row's fallback targets are
  // already in packets/s (they came from a 2PA-C cell's conversion).
  cell.target_pps = own_solve ? shares_to_pps(targets, cfg) : targets;
  for (std::size_t f = 0; f < flows; ++f) {
    const double want = targets[f] / total_target;
    const double got = cell.rate_pps[f] / total_rate;
    cell.track += std::abs(got - want) / want;
  }
  cell.track /= static_cast<double>(flows);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  std::FILE* out = std::fopen(opt.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", opt.out.c_str(),
                 std::strerror(errno));
    return 1;
  }

  const std::vector<TransportKind> kinds{
      TransportKind::kCbr, TransportKind::kAimd, TransportKind::kBbr};
  // 2PA-C first: its solve doubles as the normalization reference for the
  // target-less 802.11 rows of the same topology.
  const std::vector<Protocol> protos{Protocol::k2paCentralized,
                                     Protocol::k2paDistributedCtrl,
                                     Protocol::k80211};

  bool failed = false;
  for (const Scenario& base : {scenario1(), scenario2()}) {
    std::printf("%s (staggered starts, %.0f s, tail = last third)\n",
                base.name.c_str(), opt.seconds);
    std::printf("  %-6s %-9s %8s %8s   per-flow pps (r̂_i pps)\n", "source",
                "protocol", "jain", "track");
    std::vector<double> ref_targets;  // 2PA-C per-kind solve, for 802.11
    for (TransportKind kind : kinds) {
      for (Protocol proto : protos) {
        const CellResult cell = evaluate(base, kind, proto, opt, ref_targets);
        if (proto == Protocol::k2paCentralized && kind == TransportKind::kCbr) {
          ref_targets.clear();
          for (std::size_t f = 0; f < cell.target_pps.size(); ++f)
            ref_targets.push_back(cell.target_pps[f]);
        }
        const bool allocating = proto != Protocol::k80211;
        const bool elastic = kind != TransportKind::kCbr;
        const bool gate = allocating && elastic;
        const bool miss = gate && (cell.jain < 0.9 || cell.track > 0.15);
        failed = failed || miss;

        std::string rates;
        for (std::size_t f = 0; f < cell.rate_pps.size(); ++f)
          rates += strformat("%s%.0f (%.0f)", f ? ", " : "", cell.rate_pps[f],
                             cell.target_pps[f]);
        std::printf("  %-6s %-9s %8.3f %8.3f   %s%s\n", to_string(kind),
                    to_string(proto), cell.jain, cell.track, rates.c_str(),
                    miss ? "  << FAIL" : "");

        std::string rate_json, target_json;
        for (std::size_t f = 0; f < cell.rate_pps.size(); ++f) {
          rate_json += strformat("%s%.2f", f ? "," : "", cell.rate_pps[f]);
          target_json += strformat("%s%.2f", f ? "," : "", cell.target_pps[f]);
        }
        std::fprintf(out,
                     "{\"topology\":\"%s\",\"transport\":\"%s\","
                     "\"protocol\":\"%s\",\"seed\":%llu,\"seconds\":%.1f,"
                     "\"tail_jain\":%.4f,\"tracking_error\":%.4f,"
                     "\"flow_rate_pps\":[%s],\"target_rate_pps\":[%s],"
                     "\"gated\":%s,\"pass\":%s}\n",
                     base.name.c_str(), to_string(kind), to_string(proto),
                     static_cast<unsigned long long>(opt.seed), opt.seconds,
                     cell.jain, cell.track, rate_json.c_str(),
                     target_json.c_str(), gate ? "true" : "false",
                     miss ? "false" : "true");
      }
    }
    std::printf("\n");
  }
  std::fclose(out);
  std::printf("wrote %s\n", opt.out.c_str());
  if (failed)
    std::fprintf(stderr,
                 "FAIL: an elastic transport missed the fairness floor "
                 "(jain >= 0.9, tracking error <= 15%%) under an allocating "
                 "protocol\n");
  return failed ? 1 : 0;
}
