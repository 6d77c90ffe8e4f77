#include "net/cli.hpp"

#include <algorithm>
#include <climits>
#include <limits>
#include <sstream>
#include <vector>

#include "ctrl/admission.hpp"
#include "net/scenario_file.hpp"
#include "obs/trace.hpp"
#include "route/routing.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"
#include "util/options.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace e2efa {

std::optional<Protocol> parse_protocol(const std::string& s) {
  for (const ProtocolInfo& row : kProtocolTable)
    for (std::string_view spelling : row.spellings)
      if (!spelling.empty() && spelling == s) return row.protocol;
  return std::nullopt;
}

namespace {

/// The --protocol help: every table row's first spelling, an in-band row's
/// on a line of its own.
std::string protocol_help() {
  std::string help;
  for (const ProtocolInfo& row : kProtocolTable) {
    if (row.spellings[0].empty()) continue;
    if (!help.empty()) help += row.in_band ? " |\n" : " | ";
    help += row.spellings[0];
    if (row.in_band) help += " (phase 1 in-band over control frames)";
  }
  return help;
}

// The e2efa-sim option table in three groups, bound to the fields of *opt.

void add_run_options(OptionTable& t, CliOptions* opt) {
  SimConfig& cfg = opt->config;
  t.text("--scenario", "S",
         "1 | 2 | chain:N | grid:RxC | random:N | file:PATH (default 1)",
         &opt->scenario);
  t.add("--protocol", "P", protocol_help(),
        [opt](const std::string& v) {
          const auto p = parse_protocol(v);
          if (!p) return "unknown protocol: " + v;
          opt->protocol = *p;
          return std::string();
        });
  t.positive("--seconds", "T", "measured simulation horizon (default 60)",
             &cfg.sim_seconds);
  t.real("--warmup", "T", "excluded transient seconds (default 0)",
         &cfg.warmup_seconds, 0.0, std::numeric_limits<double>::max());
  t.positive("--pps", "N", "CBR packets per second per flow (default 200)",
             &cfg.cbr_pps);
  t.positive("--alpha", "A", "2PA tag-backoff strictness (default 1e-4)",
             &cfg.alpha);
  t.u64("--seed", "N", "RNG seed (default 1)", &cfg.seed);
  t.integer("--queue", "N", "per-queue capacity (default 50)",
            &cfg.queue_capacity, 1, INT_MAX);
  t.real("--loss", "P", "default per-link packet-error rate in [0,1] (default 0)",
         &opt->default_loss, 0.0, 1.0);
  t.flag("--shares", "also print phase-1 target shares", &opt->list_shares);
  t.flag("--check",
         "arm every invariant oracle (src/check); violations\n"
         "are reported after the table and exit nonzero",
         &opt->check);
}

/// The --trace-filter help: the category table's names, wrapped to the
/// help column.
std::string trace_filter_help() {
  std::string help, line = "comma-separated trace categories (";
  for (const char* name : kTraceCategoryNames) {
    const std::string item = std::string(name) + ",";
    if (line.size() + 1 + item.size() > 50) {
      help += line + "\n";
      line = item;
    } else {
      line += (line.back() == '(' ? "" : " ") + item;
    }
  }
  return help + line + " all);\nrequires --trace; ctrl needs --protocol 2pa-dctrl";
}

void add_observability_options(OptionTable& t, CliOptions* opt) {
  t.text("--trace", "PATH",
         "write a binary structured event trace (read it with\n"
         "trace-tool; `trace-tool jsonl PATH` prints JSONL)",
         &opt->trace_path);
  t.add("--trace-filter", "C", trace_filter_help(),
        [opt](const std::string& v) {
          std::uint32_t mask = 0;
          std::string error;
          if (!parse_trace_filter(v, &mask, &error)) return error;
          opt->trace_filter = v;
          return std::string();
        });
  t.text("--metrics-out", "PATH", "write periodic metrics samples as JSONL",
         &opt->metrics_out);
  t.positive("--metrics-period", "T",
             "metrics sampling period in seconds (default 1;\n"
             "requires --metrics-out)",
             &opt->config.metrics_period_seconds);
  t.text("--profile", "PATH",
         "write self-profiler phase accounting as JSON\n"
         "(setup/clique/solve/sim/phy/ctrl wall seconds)",
         &opt->profile_out);
  t.text("--flight-out", "PATH",
         "with --check, without --trace: dump the flight\n"
         "recorder (recent trace records, binary) when a\n"
         "violation trips",
         &opt->flight_out);
}

void add_dynamics_options(OptionTable& t, CliOptions* opt) {
  t.add("--churn", "R:L",
        "open-loop flow churn: flow 0 founds the network,\n"
        "later flows arrive at mean rate R/s and live L s on\n"
        "average; arrivals pass the admission gate",
        [opt](const std::string& v) {
          const auto rl = split_pair(v, ':');
          const auto rate = rl ? parse_double(rl->first) : std::nullopt;
          const auto life = rl ? parse_double(rl->second) : std::nullopt;
          if (!rate || !life || *rate <= 0 || *life <= 0)
            return "expected RATE:LIFE, both positive, got '" + v + "'";
          opt->churn_rate = *rate;
          opt->churn_life = *life;
          return std::string();
        });
  t.add("--mobility", "K:S", "K random-waypoint walkers moving at S m/s",
        [opt](const std::string& v) {
          const auto ks = split_pair(v, ':');
          const auto k = ks ? parse_int(ks->first) : std::nullopt;
          const auto speed = ks ? parse_double(ks->second) : std::nullopt;
          if (!k || !speed || *k < 1 || *speed <= 0)
            return "expected K:SPEED, K >= 1 walkers and a positive speed, got '" +
                   v + "'";
          opt->mobility_walkers = *k;
          opt->mobility_speed = *speed;
          return std::string();
        });
  t.add("--transport", "K",
        "source model: cbr (open-loop, default) | aimd | bbr\n"
        "(closed-loop elastic sources over end-to-end ACKs)",
        [opt](const std::string& v) {
          if (!parse_transport_kind(v))
            return "unknown transport kind: " + v + " (cbr | aimd | bbr)";
          opt->transport = v;
          return std::string();
        });
}

OptionTable cli_table(CliOptions* opt) {
  OptionTable t("e2efa-sim", "usage: e2efa-sim [options]\n");
  add_run_options(t, opt);
  add_observability_options(t, opt);
  add_dynamics_options(t, opt);
  return t;
}

/// Cross-option rules the table cannot see one option at a time; "" = ok.
std::string check_cli(const CliOptions& opt) {
  if (!opt.trace_filter.empty() && opt.trace_path.empty())
    return "--trace-filter requires --trace";
  // Naming the ctrl category without the in-band protocol would produce a
  // silently-empty trace/metrics stream — no agent ever emits; fail loudly.
  // (Token scan is exact: no other category name contains "ctrl".)
  if (opt.trace_filter.find("ctrl") != std::string::npos && !protocol_info(opt.protocol).in_band)
    return std::string("--trace-filter names the ctrl category, but --protocol ") +
           to_string(opt.protocol) + " has no control plane (use --protocol 2pa-dctrl)";
  if (opt.config.metrics_period_seconds > 0 && opt.metrics_out.empty())
    return "--metrics-period requires --metrics-out";
  if (!opt.flight_out.empty() && !opt.check)
    return "--flight-out requires --check (the dump triggers on a violation)";
  if (!opt.flight_out.empty() && !opt.trace_path.empty())
    return "--flight-out cannot be combined with --trace (the streamed trace "
           "already holds the history)";
  return "";
}

}  // namespace

std::string cli_usage() {
  CliOptions scratch;
  return cli_table(&scratch).usage();
}

std::optional<CliOptions> parse_cli(int argc, const char* const* argv,
                                    std::string* error) {
  E2EFA_ASSERT(error != nullptr);
  CliOptions opt;
  opt.config.sim_seconds = 60.0;
  if (cli_table(&opt).parse(argc, argv, error) != OptionTable::Status::kOk)
    return std::nullopt;
  *error = check_cli(opt);
  if (!error->empty()) return std::nullopt;
  if (!opt.metrics_out.empty() && opt.config.metrics_period_seconds <= 0)
    opt.config.metrics_period_seconds = 1.0;
  return opt;
}

void apply_cli_dynamics(Scenario& sc, const CliOptions& opt) {
  if (!opt.transport.empty()) {
    const auto kind = parse_transport_kind(opt.transport);
    E2EFA_ASSERT_MSG(kind.has_value(), "unparsed transport kind survived CLI");
    sc.transport = *kind;
  }
  if (opt.churn_rate > 0.0 && sc.flow_specs.size() > 1) {
    // A salted, dedicated stream: the run's own master RNG (same seed) must
    // see the exact draw sequence it would without churn.
    Rng rng(opt.config.seed ^ 0x636875726e5f31ULL);
    sc.activity.assign(sc.flow_specs.size(), FlowActivity{});
    double t = 0.0;
    for (std::size_t f = 1; f < sc.activity.size(); ++f) {
      t += rng.exponential(1.0 / opt.churn_rate);
      sc.activity[f].start_s = t;
      sc.activity[f].stop_s = t + rng.exponential(opt.churn_life);
    }
  }
  if (opt.mobility_walkers > 0) {
    Rng rng(opt.config.seed ^ 0x6d6f625f31ULL);
    const int k = std::min(opt.mobility_walkers, sc.topo.node_count());
    std::vector<NodeId> moving;
    while (static_cast<int>(moving.size()) < k) {
      const NodeId v = static_cast<NodeId>(
          rng.uniform_u64(static_cast<std::uint64_t>(sc.topo.node_count())));
      if (std::find(moving.begin(), moving.end(), v) == moving.end())
        moving.push_back(v);
    }
    std::sort(moving.begin(), moving.end());
    for (NodeId v : moving) {
      MobilitySpec m;
      m.node = v;
      m.speed_mps = opt.mobility_speed;
      m.seed = rng.uniform_u64(1u << 20);
      sc.mobility.push_back(m);
    }
  }
}

Scenario make_named_scenario(const std::string& spec, Rng& rng) {
  const auto split = split_pair(spec, ':');
  const std::string kind(split ? split->first : spec);
  const std::string param(split ? split->second : "");
  // A strict integer parameter in [lo, hi]; anything else names the spec.
  const auto count = [&](std::string_view tok, int lo, int hi, const char* rule) {
    const auto v = parse_int(tok);
    if (!v || *v < lo || *v > hi)
      throw ContractViolation("bad scenario spec '" + spec + "': " + rule);
    return *v;
  };
  if (kind == "1") return scenario1();
  if (kind == "2") return scenario2();
  if (kind == "file") {
    E2EFA_ASSERT_MSG(!param.empty(), "file spec needs a path: file:PATH");
    return load_scenario_file(param);
  }
  if (kind == "chain") {
    const int hops = count(param, 1, 64, "chain:N needs 1 <= N <= 64");
    Scenario sc{spec, make_chain(hops + 1), {}, {}};
    sc.flow_specs.push_back(make_routed_flow(sc.topo, 0, hops));
    return sc;
  }
  if (kind == "grid") {
    const auto rc = split_pair(param, 'x');
    const char* rule = "grid:RxC needs 2..16 per side";
    const int rows = count(rc ? rc->first : "", 2, 16, rule);
    const int cols = count(rc ? rc->second : "", 2, 16, rule);
    Scenario sc{spec, make_grid(rows, cols), {}, {}};
    const NodeId n = static_cast<NodeId>(rows * cols);
    // Four corner-crossing flows.
    sc.flow_specs.push_back(make_routed_flow(sc.topo, 0, n - 1));
    sc.flow_specs.push_back(make_routed_flow(sc.topo, cols - 1, n - cols));
    sc.flow_specs.push_back(make_routed_flow(sc.topo, n - 1, 0));
    sc.flow_specs.push_back(make_routed_flow(sc.topo, n - cols, cols - 1));
    return sc;
  }
  if (kind == "random") {
    const int nodes = count(param, 4, 128, "random:N needs 4 <= N <= 128");
    const double side = 200.0 * std::sqrt(static_cast<double>(nodes));
    Scenario sc{spec, make_random(nodes, side, side, rng), {}, {}};
    const int nf = std::max(2, nodes / 3);
    for (int i = 0; i < nf; ++i) {
      NodeId a, b;
      do {
        a = static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
        b = static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
      } while (a == b);
      sc.flow_specs.push_back(make_routed_flow(sc.topo, a, b));
    }
    return sc;
  }
  throw ContractViolation("unknown scenario spec: " + spec);
}

std::string format_run_result(const Scenario& sc, const RunResult& r,
                              const SimConfig& cfg, bool list_shares) {
  std::ostringstream os;
  FlowSet flows(sc.topo, sc.flow_specs);
  os << sc.name << " | " << to_string(r.protocol) << " | T = " << cfg.sim_seconds
     << " s";
  if (cfg.warmup_seconds > 0) os << " (+" << cfg.warmup_seconds << " s warmup)";
  os << "\n\n";

  TextTable t({"flow", "route", "e2e pkts", "measured share", "target share",
               "mean delay ms"});
  for (FlowId f = 0; f < flows.flow_count(); ++f) {
    const Flow& fl = flows.flow(f);
    std::vector<std::string> hops;
    for (NodeId n : fl.path) hops.push_back(sc.topo.label(n));
    // End-to-end goodput share; aggregates every repair route the flow used
    // (identical to the last provisioned hop's share in fault-free runs).
    const double share =
        static_cast<double>(r.end_to_end_per_flow[f]) * 8.0 * cfg.payload_bytes /
        (cfg.sim_seconds * static_cast<double>(kChannelBps));
    t.add_row({fl.name(), join(hops, "-"), std::to_string(r.end_to_end_per_flow[f]),
               strformat("%.3fB", share),
               r.has_target ? format_share_of_b(r.target_flow_share[f]) : "-",
               strformat("%.1f", r.mean_delay_s[f] * 1e3)});
  }
  t.print(os);
  os << "\ntotal end-to-end " << r.total_end_to_end << " pkts, lost "
     << r.lost_packets << " (ratio " << strformat("%.4f", r.loss_ratio) << "), "
     << r.channel.frames_transmitted << " frames on air, "
     << r.channel.frames_corrupted << " corrupted, " << r.events_processed
     << " events\n";

  const bool in_band = protocol_info(r.protocol).in_band;
  if (in_band) {
    os << "\nin-band control plane: " << r.ctrl.ctrl_frames << " ctrl frames ("
       << r.ctrl.ctrl_bytes << " wire bytes), queued " << r.ctrl.hello_sent
       << " HELLO / " << r.ctrl.constraint_sent << " CONSTRAINT / "
       << r.ctrl.rate_sent << " RATE, " << r.ctrl.msgs_received
       << " payloads decoded, " << r.ctrl.solves << " source LP solves\n";
    if (r.ctrl.retransmits + r.ctrl.seq_gaps + r.ctrl.stale_dropped +
            r.ctrl.forced_solves + r.ctrl.admit_req_sent >
        0) {
      os << "  hardened: " << r.ctrl.retransmits << " retransmits, "
         << r.ctrl.seq_gaps << " sequence gaps seen, " << r.ctrl.stale_dropped
         << " stale msgs dropped, " << r.ctrl.forced_solves
         << " forced (degraded) solves, " << r.ctrl.admit_req_sent
         << " ADMIT_REQ / " << r.ctrl.admit_rsp_sent << " ADMIT_RSP\n";
    }
    if (!r.reconv_s.empty()) {
      os << "  re-convergence per epoch (s):";
      for (double v : r.reconv_s)
        os << " " << (v < 0.0 ? std::string("never") : strformat("%.1f", v));
      os << "\n";
    }
  }

  if (sc.transport != TransportKind::kCbr) {
    os << "\nelastic transport (" << to_string(sc.transport) << "): "
       << r.transport.acks_sent << " acks sent, " << r.transport.acks_relayed
       << " relayed, " << r.transport.acks_delivered << " delivered\n";
    for (std::size_t f = 0; f < r.transport.flows.size(); ++f) {
      const TransportTelemetry& tel = r.transport.flows[f];
      os << "  " << flows.flow(static_cast<FlowId>(f)).name() << ": cwnd "
         << strformat("%.1f", tel.cwnd) << ", srtt "
         << strformat("%.1f", tel.srtt_s * 1e3) << " ms, "
         << tel.retransmits << " retransmits, " << tel.timeouts
         << " timeouts\n";
    }
  }

  if (!r.admissions.empty()) {
    std::size_t admitted = 0;
    for (const RunResult::Admission& a : r.admissions) admitted += a.admitted;
    os << "\nadmission control: " << admitted << "/" << r.admissions.size()
       << " arrivals admitted\n";
    for (const RunResult::Admission& a : r.admissions) {
      os << "  " << flows.flow(a.flow).name() << " at "
         << strformat("%.2f", a.at_s) << " s: "
         << (a.admitted ? "admitted" : "rejected");
      if (!a.admitted)
        os << " (" << to_string(static_cast<AdmissionReason>(a.reason)) << ")";
      os << ", worst clique load " << strformat("%.3f", a.worst_load);
      if (a.inband >= 0)
        os << ", in-band verdict: " << (a.inband == 1 ? "admit" : "reject");
      else if (in_band)
        os << ", in-band round incomplete";
      os << "\n";
    }
  }

  if (!sc.faults.empty()) {
    os << "\nfaults: " << r.link_failures << " link-layer failures, "
       << r.channel.frames_faulted << " frames faulted ("
       << r.channel.faulted_dead << " dead node/link, " << r.channel.faulted_loss
       << " lossy channel), " << r.suspended_packets
       << " packets suppressed while suspended\n";
    for (const RunResult::Recovery& rec : r.recoveries) {
      os << "  " << flows.flow(rec.flow).name() << " disrupted at "
         << strformat("%.2f", rec.fault_s) << " s, healed at "
         << strformat("%.2f", rec.recovered_s) << " s (+"
         << strformat("%.2f", rec.recovered_s - rec.fault_s) << " s)\n";
    }
    if (!r.epoch_end_to_end.empty()) {
      os << "  per-epoch goodput (pkts):\n";
      for (std::size_t e = 0; e < r.epoch_end_to_end.size(); ++e) {
        os << "    epoch " << e << " @" << strformat("%.1f", r.epoch_starts_s[e])
           << " s:";
        for (FlowId f = 0; f < flows.flow_count(); ++f)
          os << " " << r.epoch_end_to_end[e][static_cast<std::size_t>(f)];
        os << "\n";
      }
    }
  }

  if (list_shares && r.has_target) {
    os << "\nphase-1 subflow shares:\n";
    for (int s = 0; s < flows.subflow_count(); ++s)
      os << "  " << flows.subflow(s).name() << " = "
         << format_share_of_b(r.target_subflow_share[static_cast<std::size_t>(s)])
         << "\n";
  }
  return os.str();
}

}  // namespace e2efa
