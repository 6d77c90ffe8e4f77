// e2efa_perf: the repository benchmark. One process, one thread, one
// workload per invocation; perfbench/run.py builds it and relays its last
// stdout line. See perfbench/README.md for why each workload exists and
// which layer metric should move which end-to-end metric.
//
//   e2efa_perf --workload NAME --seed N --seconds S --trace 0|1
//              [--golden FILE] [--spans FILE] [--record-golden]
//
// --trace 0 measures the end-to-end metrics with every observer off.
// --trace 1 is the separate traced run: the runner's Profiler is armed on
// alternate passes, and the workload's phase-1 pipeline is replayed through
// the layers' public calls under the benchmark's own spans, which are kept
// in memory and written to --spans at the end.
//
// Timing model. A workload is a list of jobs (scenario, protocol, config).
// One pass runs every job once in full, and before each full run times a
// "setup probe": the same run_scenario call with a zero-length horizon,
// i.e. scenario in hand to the first simulated event (plus the teardown
// both calls share). Passes repeat until --seconds have elapsed; each job's
// timing is its fastest call, and a workload's is the sum over its jobs.
// The event-loop share of a job is its fastest full run times the median,
// over passes, of the part of that pass's full run its probe did not
// cover. Probe and full run of one pass are timed within milliseconds of
// each other, so that ratio holds steady while the host's speed drifts, and
// sim_wall_per_sim_s never re-counts setup.
//
// Inputs are made from --seed before any timing starts. Outputs are
// checked after each timed call: bitwise against the first pass
// (RunResult::operator==), against the digest recorded for the seed in
// --golden when there is one, and against the workload's own invariants.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/centralized.hpp"
#include "alloc/distributed.hpp"
#include "contention/clique_store.hpp"
#include "contention/contention_graph.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "net/runner.hpp"
#include "net/scenario_gen.hpp"
#include "net/scenarios.hpp"
#include "obs/profiler.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace e2efa;

namespace {

// ---- Workload sizes. Changing any of these changes the benchmark: the
// recorded goldens and every baseline median go with them. ----

/// paper_s2: simulated seconds per protocol run (Table III's T is 1000 s;
/// 10 s keeps a pass well under a second so a run holds many passes).
constexpr double kPaperSimS = 10.0;
constexpr int kPaperSetupReps = 25;

/// cold_start: a fixed batch of generated networks (generator seeds 0 to
/// kColdNetworks - 1; see README.md for why a batch, and why fixed), flows
/// bounded to three hops so the basic shares always fit every clique
/// (n_{i,k} <= v_i), then one simulated second of light CBR traffic each.
/// --seed drives the simulation RNG only.
constexpr int kColdNetworks = 12;
constexpr int kColdNodes = 300;
constexpr int kColdFlows = 40;
constexpr double kColdDensityM = 160.0;
constexpr int kColdMaxHops = 3;
constexpr double kColdSimS = 1.0;
constexpr double kColdCbrPps = 25.0;
constexpr int kColdSetupReps = 1;

/// churn_ctrl: the Fig. 6 topology, its five flows always on, plus
/// Poisson-arriving copies of them with exponential lifetimes, 5% loss on
/// every link, CBR sources, and the in-band control plane. The churn
/// schedule is one fixed draw and --seed drives the simulation RNG only.
/// (AIMD sources, and a schedule drawn per seed, made the work vary across
/// seeds; see README.md.)
constexpr int kChurnExtraFlows = 12;
constexpr double kChurnArrivalRate = 1.0;  ///< Arrivals per simulated second.
constexpr double kChurnMeanLifeS = 4.0;
constexpr double kChurnLoss = 0.05;
constexpr double kChurnSimS = 30.0;
constexpr int kChurnSetupReps = 5;

/// Fewer passes than this and a fastest call means little; the run
/// overshoots --seconds rather than report fewer.
constexpr int kMinPasses = 3;

// ---- Clock, process counters, small statistics. ----

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  u.minflt = static_cast<double>(ru.ru_minflt);
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ---- Options. ----

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string golden;
  std::string spans;
  bool record_golden = false;
};

[[noreturn]] void usage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "e2efa_perf: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: e2efa_perf --workload paper_s2|cold_start|churn_ctrl "
               "--seed N --seconds S --trace 0|1\n"
               "                  [--golden FILE] [--spans FILE] "
               "[--record-golden]\n");
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--record-golden") {
      o.record_golden = true;
      continue;
    }
    if (i + 1 >= argc) usage(key + ": missing value");
    const char* val = argv[++i];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      if (!parse_u64(val, &o.seed)) usage("--seed: expected a non-negative integer");
      have_seed = true;
    } else if (key == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(o.seconds > 0.0))
        usage("--seconds: expected a positive number");
      have_seconds = true;
    } else if (key == "--trace") {
      const std::string v = val;
      if (v != "0" && v != "1") usage("--trace: expected 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (key == "--golden") {
      o.golden = val;
    } else if (key == "--spans") {
      o.spans = val;
    } else {
      usage("unknown flag '" + key + "'");
    }
  }
  if (o.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!o.record_golden && (!have_seconds || !have_trace))
    usage("--seconds and --trace are required");
  return o;
}

// ---- Workloads. ----

struct Job {
  std::size_t scenario = 0;  ///< Index into Workload::scenarios.
  Protocol proto = Protocol::k80211;
  SimConfig cfg;
};

struct Workload {
  std::string name;
  /// Built once from the seed, never moved afterwards (FlowSets built by
  /// the checks and the replay point into their topologies).
  std::vector<Scenario> scenarios;
  std::vector<Job> jobs;
  int setup_reps = 1;
};

SimConfig base_config(std::uint64_t seed, double sim_seconds) {
  SimConfig cfg;
  cfg.sim_seconds = sim_seconds;
  cfg.seed = seed;
  cfg.sim_threads = 1;  // single-threaded: no parallel DES, no clique-seed pool
  return cfg;
}

Workload make_paper_s2(std::uint64_t seed) {
  Workload w;
  w.name = "paper_s2";
  w.scenarios.push_back(scenario2());
  for (Protocol p : {Protocol::k80211, Protocol::kTwoTier, Protocol::k2paCentralized,
                     Protocol::k2paDistributed})
    w.jobs.push_back({0, p, base_config(seed, kPaperSimS)});
  w.setup_reps = kPaperSetupReps;
  return w;
}

Workload make_cold_start(std::uint64_t seed) {
  Workload w;
  w.name = "cold_start";
  GenConfig gen;
  gen.min_nodes = gen.max_nodes = kColdNodes;
  gen.min_flows = gen.max_flows = kColdFlows;
  gen.max_hops = kColdMaxHops;
  gen.p_faults = 0.0;
  gen.p_loss = 0.0;
  gen.density_m = kColdDensityM;
  for (int k = 0; k < kColdNetworks; ++k) {
    w.scenarios.push_back(generate_scenario(static_cast<std::uint64_t>(k), gen));
    for (Protocol p : {Protocol::k2paCentralized, Protocol::k2paDistributed}) {
      SimConfig cfg = base_config(seed, kColdSimS);
      cfg.cbr_pps = kColdCbrPps;
      w.jobs.push_back({static_cast<std::size_t>(k), p, cfg});
    }
  }
  w.setup_reps = kColdSetupReps;
  return w;
}

Workload make_churn_ctrl(std::uint64_t seed) {
  Workload w;
  w.name = "churn_ctrl";
  Scenario sc = scenario2();
  sc.name = "churn_ctrl";
  const std::size_t founders = sc.flow_specs.size();
  // A fixed stream, apart from the run's master RNG: every seed gets the
  // same schedule.
  Rng rng(0x636875726e5f6374ULL);
  sc.activity.assign(founders, FlowActivity{});
  double t = 0.0;
  for (int k = 0; k < kChurnExtraFlows; ++k) {
    t += rng.exponential(1.0 / kChurnArrivalRate);
    Flow f = sc.flow_specs[rng.uniform_u64(founders)];
    sc.flow_specs.push_back(f);
    sc.activity.push_back({t, t + rng.exponential(kChurnMeanLifeS)});
  }
  sc.faults.set_default_loss(kChurnLoss);
  w.scenarios.push_back(std::move(sc));
  w.jobs.push_back({0, Protocol::k2paDistributedCtrl, base_config(seed, kChurnSimS)});
  w.setup_reps = kChurnSetupReps;
  return w;
}

bool make_workload(const std::string& name, std::uint64_t seed, Workload* out) {
  if (name == "paper_s2") *out = make_paper_s2(seed);
  else if (name == "cold_start") *out = make_cold_start(seed);
  else if (name == "churn_ctrl") *out = make_churn_ctrl(seed);
  else return false;
  return true;
}

// ---- Output checks. ----

/// FNV-1a over the deterministic outputs the goldens pin.
std::uint64_t digest(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  mix(&r.events_processed, sizeof r.events_processed);
  for (std::int64_t v : r.end_to_end_per_flow) mix(&v, sizeof v);
  for (double v : r.target_flow_share) mix(&v, sizeof v);
  return h;
}

struct GoldenRow {
  std::uint64_t events = 0;
  std::int64_t total_e2e = 0;
  std::uint64_t digest = 0;
};
using GoldenKey = std::pair<std::uint64_t, std::size_t>;  // (seed, job)

std::map<GoldenKey, GoldenRow> load_golden(const std::string& path,
                                           const std::string& workload) {
  std::map<GoldenKey, GoldenRow> rows;
  if (path.empty()) return rows;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read --golden " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, hex;
    std::uint64_t seed = 0;
    std::size_t job = 0;
    GoldenRow row;
    if (!(ls >> name >> seed >> job >> row.events >> row.total_e2e >> hex)) continue;
    if (name != workload) continue;
    row.digest = std::strtoull(hex.c_str(), nullptr, 16);
    rows[{seed, job}] = row;
  }
  return rows;
}

/// The workload's own invariants on one job's result (empty = pass).
std::string check_invariants(const Workload& w, const Job& job, const RunResult& r) {
  const Scenario& sc = w.scenarios[job.scenario];
  if (r.events_processed == 0) return "no events processed";
  if (r.end_to_end_per_flow.size() != sc.flow_specs.size())
    return "per-flow result size mismatch";
  for (LpStatus s : r.epoch_lp_status)
    if (s != LpStatus::kOptimal) return "phase-1 epoch solve not optimal";
  if (w.name == "paper_s2" && (job.proto == Protocol::k2paCentralized ||
                                job.proto == Protocol::k2paDistributed)) {
    // The paper's phase-1 targets (Table III), to the unit suite's 1e-6.
    const bool central = job.proto == Protocol::k2paCentralized;
    const double c[] = {1.0 / 3, 1.0 / 3, 2.0 / 3, 1.0 / 8, 3.0 / 4};
    const double d[] = {1.0 / 3, 1.0 / 5, 1.0 / 4, 1.0 / 4, 1.0 / 2};
    if (r.target_flow_share.size() != 5) return "wrong target count";
    for (int i = 0; i < 5; ++i)
      if (std::abs(r.target_flow_share[static_cast<std::size_t>(i)] -
                   (central ? c[i] : d[i])) > 1e-6)
        return central ? "2PA-C targets differ from (1/3, 1/3, 2/3, 1/8, 3/4)"
                       : "2PA-D targets differ from (1/3, 1/5, 1/4, 1/4, 1/2)";
  }
  if (w.name == "cold_start") {
    const FlowSet flows(sc.topo, sc.flow_specs);
    const ContentionGraph g(sc.topo, flows);
    if (job.proto == Protocol::k2paCentralized) {
      // The repository checker's allocation tolerance.
      constexpr double kEps = 1e-6;
      if (!satisfies_clique_capacity(g, r.target_subflow_share, kEps))
        return "2PA-C: clique capacity violated";
      if (!satisfies_basic_fairness(g, r.target_flow_share, kEps))
        return "2PA-C: basic fairness violated";
    } else {
      // A source sees only its local cliques, so 2PA-D may oversubscribe a
      // global clique (loads up to 1.85 B occur at this size, past the
      // checker's 1.75 envelope). What it promises is local: the runner's
      // targets equal the public distributed_allocate, and every source's
      // solution fits every clique row it knew about.
      const DistributedResult d = distributed_allocate(sc.topo, flows, g);
      for (FlowId f = 0; f < flows.flow_count(); ++f)
        if (std::abs(d.allocation.flow_share[static_cast<std::size_t>(f)] -
                     r.target_flow_share[static_cast<std::size_t>(f)]) > 1e-12)
          return "2PA-D: runner targets differ from distributed_allocate";
      for (const LocalProblem& lp : d.locals) {
        if (lp.status != LpStatus::kOptimal) continue;  // basic-share fallback
        for (const auto& row : lp.rows) {
          double load = 0.0;
          for (std::size_t i = 0; i < row.size(); ++i) load += row[i] * lp.solution[i];
          if (load > 1.0 + 1e-6) return "2PA-D: a local solution exceeds a local clique";
        }
      }
    }
  }
  if (w.name == "churn_ctrl") {
    if (r.admissions.empty()) return "churn: no admission decisions";
    if (r.ctrl.solves == 0) return "churn: control plane never solved";
  }
  return {};
}

// ---- Deterministic output guard (jain). ----

/// Jain's index of per-flow delivery normalized by what phase 1 promised
/// the flow over its active epochs (raw deliveries when nothing was
/// promised, i.e. plain 802.11).
double run_jain(const RunResult& r) {
  const std::size_t F = r.end_to_end_per_flow.size();
  std::vector<double> xs;
  for (std::size_t f = 0; f < F; ++f) {
    double expected = 1.0;
    if (r.has_target) {
      expected = 0.0;
      if (r.epoch_flow_share.empty()) {
        expected = r.target_flow_share[f];
      } else {
        for (std::size_t e = 0; e < r.epoch_starts_s.size(); ++e) {
          const double end =
              e + 1 < r.epoch_starts_s.size() ? r.epoch_starts_s[e + 1] : r.sim_seconds;
          expected += r.epoch_flow_share[e][f] * (end - r.epoch_starts_s[e]);
        }
      }
      if (expected <= 0.0) continue;
    }
    xs.push_back(static_cast<double>(r.end_to_end_per_flow[f]) / expected);
  }
  return jain_fairness_index(xs);
}

// ---- One pass. ----

RunResult run_job(const Workload& w, const Job& job, Profiler* prof, bool probe) {
  SimConfig cfg = job.cfg;
  cfg.profile = prof;
  if (probe) cfg.sim_seconds = 0.0;
  return run_scenario(w.scenarios[job.scenario], job.proto, cfg);
}

/// Every timed call of a run, per job. Interference from other tenants of
/// a shared host only ever adds time, so each job's figure is its fastest
/// call (see README.md for the evidence); a workload's figure sums its jobs.
struct Timings {
  std::vector<std::vector<double>> full;    ///< [job][pass] full-run wall time.
  std::vector<std::vector<double>> probes;  ///< [job][pass] fastest setup probe.

  explicit Timings(std::size_t jobs) : full(jobs), probes(jobs) {}
  double wall_s() const { return sum_of_minima(full); }
  double setup_s() const { return sum_of_minima(probes); }
  /// Event-loop share: each job's fastest full run times the median over
  /// passes of 1 - probe / full within the pass.
  double loop_s() const {
    double s = 0.0;
    for (std::size_t j = 0; j < full.size(); ++j) {
      std::vector<double> loop_share;
      for (std::size_t p = 0; p < full[j].size(); ++p)
        loop_share.push_back(std::max(0.0, 1.0 - probes[j][p] / full[j][p]));
      s += *std::min_element(full[j].begin(), full[j].end()) * median(loop_share);
    }
    return s;
  }

 private:
  static double sum_of_minima(const std::vector<std::vector<double>>& xs) {
    double s = 0.0;
    for (const auto& x : xs) s += *std::min_element(x.begin(), x.end());
    return s;
  }
};

/// Times one job: `setup_reps` probes, then the full run into *result.
void time_job(const Workload& w, std::size_t j, Profiler* prof, Timings& t,
              RunResult* result) {
  const Job& job = w.jobs[j];
  double probe_s = 0.0;
  for (int i = 0; i < w.setup_reps; ++i) {
    const double t0 = now_s();
    run_job(w, job, nullptr, /*probe=*/true);
    const double dt = now_s() - t0;
    probe_s = i == 0 ? dt : std::min(probe_s, dt);
  }
  t.probes[j].push_back(probe_s);
  const double t0 = now_s();
  *result = run_job(w, job, prof, /*probe=*/false);
  t.full[j].push_back(now_s() - t0);
}

struct PassTiming {
  double wall_s = 0.0;  ///< Σ full runs of this pass.
  Usage usage;          ///< getrusage deltas over the pass.
};

struct Checker {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  std::map<GoldenKey, GoldenRow> golden;
  std::vector<RunResult> first;  ///< First pass's result per job.
  int attempted = 0;
  int failed = 0;

  void check(std::size_t j, const RunResult& r) {
    ++attempted;
    std::string err;
    if (first.size() <= j) {
      first.push_back(r);
      err = check_invariants(*w, w->jobs[j], r);
      const auto it = golden.find({seed, j});
      if (it == golden.end())
        std::fprintf(stderr, "note: no recorded digest for %s seed %llu job %zu\n",
                     w->name.c_str(), static_cast<unsigned long long>(seed), j);
      if (err.empty() && it != golden.end() &&
          (it->second.events != r.events_processed ||
           it->second.total_e2e != r.total_end_to_end || it->second.digest != digest(r)))
        err = "outputs differ from the values recorded for this seed";
    } else if (!(r == first[j])) {
      err = "result differs from the first pass (determinism)";
    }
    if (!err.empty()) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s job %zu (%s): %s\n", w->name.c_str(), j,
                   to_string(w->jobs[j].proto), err.c_str());
    }
  }
};

PassTiming run_pass(const Workload& w, Checker& checker, Profiler* prof, Timings& t) {
  PassTiming p;
  const Usage u0 = usage_now();
  std::vector<RunResult> results(w.jobs.size());
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    time_job(w, j, prof, t, &results[j]);
    p.wall_s += t.full[j].back();
  }
  const Usage u1 = usage_now();
  p.usage = {u1.user_s - u0.user_s, u1.sys_s - u0.sys_s, u1.minflt - u0.minflt};
  // Checks run outside every timed window.
  for (std::size_t j = 0; j < w.jobs.size(); ++j) checker.check(j, results[j]);
  return p;
}

double total_sim_seconds(const Workload& w) {
  double s = 0.0;
  for (const Job& j : w.jobs) s += j.cfg.sim_seconds;
  return s;
}

// ---- Result line. ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_env(const Options& opt) {
  std::printf("# e2efa_perf workload=%s seed=%llu seconds=%g trace=%d nproc=%ld cpu=\"%s\"\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              json_escape(cpu_model()).c_str());
  std::fflush(stdout);
}

// ---- End-to-end run (--trace 0). ----

int run_untraced(const Options& opt, const Workload& w, Checker& checker) {
  Timings t(w.jobs.size());
  const double sim_s = total_sim_seconds(w);
  const double start = now_s();
  int passes = 0;
  while (passes < kMinPasses || now_s() - start < opt.seconds) {
    const PassTiming p = run_pass(w, checker, nullptr, t);
    ++passes;
    std::fprintf(stderr, "pass %d: wall %.4f s user %.3f s sys %.3f s minflt %.0f\n",
                 passes, p.wall_s, p.usage.user_s, p.usage.sys_s, p.usage.minflt);
  }
  double e2e = 0.0, jain = 0.0;
  for (const RunResult& r : checker.first) {
    e2e += static_cast<double>(r.total_end_to_end);
    jain += run_jain(r);
  }
  const double ok_ratio = checker.attempted > 0
                              ? static_cast<double>(checker.attempted - checker.failed) /
                                    checker.attempted
                              : 0.0;
  std::fprintf(stderr, "passes %d, sim seconds per pass %.1f\n", passes, sim_s);
  print_result(checker.failed == 0, checker.attempted, checker.failed,
               {{"wall_s", t.wall_s(), "s"},
                {"setup_s", t.setup_s(), "s"},
                {"sim_wall_per_sim_s", t.loop_s() / sim_s, "s/sim_s"},
                {"peak_rss_mb", peak_rss_mb(), "MiB"},
                {"ok_ratio", ok_ratio, "ratio"},
                {"jain", jain / static_cast<double>(checker.first.size()), "index"},
                {"goodput_pps", e2e / sim_s, "pkt/sim_s"}});
  return checker.failed == 0 ? 0 : 1;
}

// ---- Traced run (--trace 1). ----

/// The benchmark's own spans: name, start, end, parent (index, -1 = root),
/// kept in memory and written out once the run ends.
class SpanLog {
 public:
  SpanLog() : t0_(now_s()) {}
  int open(const std::string& name, int parent) {
    spans_.push_back({name, now_s() - t0_, -1.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in seconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_s() - t0_;
    return s.end - s.start;
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i)
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   i, spans_[i].name.c_str(), spans_[i].start, spans_[i].end,
                   spans_[i].parent, i + 1 < spans_.size() ? "," : "");
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start, end;
    int parent;
  };
  double t0_;
  std::vector<Span> spans_;
};

/// Per-layer figures of one phase-1 replay (seconds unless noted).
struct Replay {
  double graph_s = 0.0, edges = 0.0;
  double clique_build_s = 0.0, cliques = 0.0, clique_delta_s = 0.0;
  double centralized_s = 0.0, distributed_s = 0.0;
  std::vector<double> local_solve_s;
  double locals = 0.0, relaxed = 0.0, fallbacks = 0.0;
  double pass1_s = 0.0, pass1_pivots = 0.0, pass1_vars_max = 0.0, iteration_limit = 0.0;
};

/// Pass 1 of solve_share_lp for a local problem, rebuilt from the problem's
/// public fields: maximize Σx over its clique rows, x_i <= 1 and the
/// (relaxed) basic-share floors.
LpProblem pass1_problem(const LocalProblem& lp) {
  const int k = static_cast<int>(lp.vars.size());
  LpProblem p(k);
  for (int i = 0; i < k; ++i) {
    p.set_objective(i, 1.0);
    p.set_lower_bound(i, lp.mins[static_cast<std::size_t>(i)] * lp.min_relaxation);
  }
  for (const auto& row : lp.rows)
    p.add_constraint(std::vector<double>(row.begin(), row.end()), Relation::kLessEq, 1.0);
  for (int i = 0; i < k; ++i) {
    std::vector<double> unit(static_cast<std::size_t>(k), 0.0);
    unit[static_cast<std::size_t>(i)] = 1.0;
    p.add_constraint(std::move(unit), Relation::kLessEq, 1.0);
  }
  return p;
}

/// The flows a run's first epoch allocates: every flow when the scenario
/// has no activity windows, else those whose window opens at t = 0.
std::vector<Flow> epoch0_flows(const Scenario& sc) {
  if (sc.activity.empty()) return sc.flow_specs;
  std::vector<Flow> out;
  for (std::size_t f = 0; f < sc.flow_specs.size(); ++f)
    if (sc.activity[f].start_s <= 0.0) out.push_back(sc.flow_specs[f]);
  return out;
}

/// Replays the first epoch's phase 1 of one scenario through the layers'
/// public calls, one span per call, accumulating into `acc`.
void replay_phase1(const Scenario& sc, SpanLog& log, int parent, Replay& acc) {
  const int root = log.open("phase1." + sc.name, parent);
  const FlowSet flows(sc.topo, epoch0_flows(sc));

  int s = log.open("contention.graph", root);
  const ContentionGraph g(sc.topo, flows);
  acc.graph_s += log.close(s);
  for (int v = 0; v < g.vertex_count(); ++v) acc.edges += g.degree(v);

  s = log.open("contention.clique_build", root);
  CliqueStore store(g);
  acc.clique_build_s += log.close(s);
  acc.cliques += store.clique_count();

  // One activity delta: a flow's subflows leave the store and come back
  // (two updates), over up to four flows spread across the id space.
  {
    const int F = flows.flow_count();
    const int rounds = std::min(F, 4);
    std::vector<double> deltas;
    for (int k = 0; k < rounds; ++k) {
      const FlowId f = static_cast<FlowId>(k * F / rounds);
      std::vector<int> subs;
      for (int h = 0; h < flows.flow(f).length(); ++h)
        subs.push_back(flows.subflow_index(f, h));
      s = log.open("contention.clique_delta", root);
      store.update({}, subs);
      store.update(subs, {});
      deltas.push_back(log.close(s) / 2.0);
    }
    acc.clique_delta_s += median(deltas);
  }

  const std::vector<std::vector<int>> cliques = store.cliques();
  s = log.open("alloc.centralized", root);
  const CentralizedResult c = centralized_allocate(g, &cliques);
  acc.centralized_s += log.close(s);
  if (c.status != LpStatus::kOptimal) acc.fallbacks += 1.0;

  s = log.open("alloc.distributed", root);
  const DistributedResult d = distributed_allocate(sc.topo, flows, g);
  acc.distributed_s += log.close(s);

  // Every source's local problem and its pass-1 LP on their own, from the
  // knowledge and local cliques distributed_allocate reported.
  const int locals = log.open("alloc.local_replay", root);
  for (FlowId f = 0; f < flows.flow_count(); ++f) {
    std::set<std::vector<int>> acc_cliques;
    const Flow& fl = flows.flow(f);
    for (int h = 0; h < fl.length(); ++h)  // the flow's transmitting nodes
      for (const auto& cl : d.node_cliques[static_cast<std::size_t>(fl.path[static_cast<std::size_t>(h)])])
        acc_cliques.insert(cl);
    const std::vector<std::vector<int>> list(acc_cliques.begin(), acc_cliques.end());
    s = log.open("alloc.local_solve", locals);
    const LocalProblem lp = solve_local_problem(
        flows, f, list, d.node_knowledge[static_cast<std::size_t>(fl.source())]);
    acc.local_solve_s.push_back(log.close(s));
    acc.locals += 1.0;
    if (lp.min_relaxation < 1.0) acc.relaxed += 1.0;
    if (lp.status != LpStatus::kOptimal) acc.fallbacks += 1.0;

    const LpProblem p1 = pass1_problem(lp);
    s = log.open("lp.pass1", locals);
    const LpSolution sol = solve_lp(p1);
    acc.pass1_s += log.close(s);
    acc.pass1_pivots += sol.iterations;
    acc.pass1_vars_max = std::max(acc.pass1_vars_max, static_cast<double>(lp.vars.size()));
    if (sol.status == LpStatus::kIterationLimit) acc.iteration_limit += 1.0;
  }
  log.close(locals);
  log.close(root);
}

int run_traced(const Options& opt, const Workload& w, Checker& checker) {
  SpanLog log;
  const double sim_s = total_sim_seconds(w);
  // Alternate untraced and profiled passes until time is up; the profiler
  // accumulates over every profiled pass.
  Profiler prof;
  Timings plain_t(w.jobs.size()), prof_t(w.jobs.size());
  std::vector<double> user, sys, minflt;
  int prof_passes = 0;
  const double start = now_s();
  while (prof_passes < 2 || now_s() - start < opt.seconds) {
    int s = log.open("pass.untraced", -1);
    const PassTiming p = run_pass(w, checker, nullptr, plain_t);
    log.close(s);
    user.push_back(p.usage.user_s);
    sys.push_back(p.usage.sys_s);
    minflt.push_back(p.usage.minflt);
    s = log.open("pass.profiled", -1);
    run_pass(w, checker, &prof, prof_t);
    ++prof_passes;
    log.close(s);
  }
  const double passes = prof_passes;
  auto per_pass = [&](Profiler::Phase ph) { return prof.seconds(ph) / passes; };
  auto calls_per_pass = [&](Profiler::Phase ph) {
    return static_cast<double>(prof.calls(ph)) / passes;
  };

  // Setup attribution: profiled zero-horizon probes (scenario in hand to the
  // first simulated event), one per job.
  Profiler setup_prof;
  {
    const int s = log.open("setup.probes", -1);
    for (const Job& job : w.jobs) run_job(w, job, &setup_prof, /*probe=*/true);
    log.close(s);
  }
  const double net_setup = setup_prof.seconds(Profiler::Phase::kSetup);
  const double net_setup_other = net_setup -
                                 setup_prof.seconds(Profiler::Phase::kClique) -
                                 setup_prof.seconds(Profiler::Phase::kSolve);

  // Phase-1 replay through public calls, repeated for a stable median.
  std::vector<Replay> replays;
  const double replay_start = now_s();
  while (replays.size() < 3 ||
         (replays.size() < 25 && now_s() - replay_start < std::min(0.25 * opt.seconds, 3.0))) {
    Replay r;
    const int s = log.open("replay", -1);
    for (const Scenario& sc : w.scenarios) replay_phase1(sc, log, s, r);
    log.close(s);
    replays.push_back(std::move(r));
  }
  auto med = [&](double Replay::*field) {
    std::vector<double> xs;
    for (const Replay& r : replays) xs.push_back(r.*field);
    return median(xs);
  };
  const Replay& r0 = replays.front();  // counts are identical across replays
  std::vector<double> p50s, maxes;
  for (const Replay& r : replays) {
    p50s.push_back(median(r.local_solve_s));
    maxes.push_back(*std::max_element(r.local_solve_s.begin(), r.local_solve_s.end()));
  }

  // Counters from the (deterministic) results.
  double events = 0, frames_tx = 0, corrupted = 0, delivered = 0, retry_drops = 0,
         queue_drops = 0, airtime_ns = 0, hop_deliveries = 0;
  double e2e = 0, lost = 0;
  double ctrl_solves = 0, ctrl_retx = 0, ctrl_forced = 0, ctrl_bytes = 0;
  double admissions = 0, rejected = 0, acks_sent = 0, acks_delivered = 0;
  for (std::size_t j = 0; j < checker.first.size(); ++j) {
    const RunResult& r = checker.first[j];
    events += static_cast<double>(r.events_processed);
    e2e += static_cast<double>(r.total_end_to_end);
    lost += static_cast<double>(r.lost_packets);
    frames_tx += static_cast<double>(r.channel.frames_transmitted);
    corrupted += static_cast<double>(r.channel.frames_corrupted);
    delivered += static_cast<double>(r.channel.frames_delivered);
    retry_drops += static_cast<double>(r.dropped_mac);
    queue_drops += static_cast<double>(r.dropped_queue);
    airtime_ns += static_cast<double>(r.channel.airtime_ns);
    for (std::int64_t d : r.delivered_per_subflow)
      hop_deliveries += static_cast<double>(d) * w.jobs[j].cfg.payload_bytes;
    ctrl_solves += static_cast<double>(r.ctrl.solves);
    ctrl_retx += static_cast<double>(r.ctrl.retransmits);
    ctrl_forced += static_cast<double>(r.ctrl.forced_solves);
    ctrl_bytes += static_cast<double>(r.ctrl.ctrl_bytes);
    for (const auto& a : r.admissions) {
      admissions += 1.0;
      if (!a.admitted) rejected += 1.0;
    }
    acks_sent += static_cast<double>(r.transport.acks_sent);
    acks_delivered += static_cast<double>(r.transport.acks_delivered);
  }
  const double loop_s = per_pass(Profiler::Phase::kSim);
  const double phy_s = per_pass(Profiler::Phase::kPhy);
  const double ctrl_s = per_pass(Profiler::Phase::kCtrl);

  std::vector<Metric> m = {
      {"contention.graph_s", med(&Replay::graph_s), "s"},
      {"contention.edges", r0.edges / 2.0, "count"},
      {"contention.clique_build_s", med(&Replay::clique_build_s), "s"},
      {"contention.cliques", r0.cliques, "count"},
      {"contention.clique_delta_s", med(&Replay::clique_delta_s), "s"},
      {"lp.pass1_s", med(&Replay::pass1_s), "s"},
      {"lp.pass1_pivots", r0.pass1_pivots, "count"},
      {"lp.pass1_vars_max", r0.pass1_vars_max, "count"},
      {"lp.iteration_limit", r0.iteration_limit, "count"},
      {"alloc.centralized_s", med(&Replay::centralized_s), "s"},
      {"alloc.distributed_s", med(&Replay::distributed_s), "s"},
      {"alloc.local_solve_p50_s", median(p50s), "s"},
      {"alloc.local_solve_max_s", median(maxes), "s"},
      {"alloc.relaxed_ratio", r0.locals > 0 ? r0.relaxed / r0.locals : 0.0, "ratio"},
      {"alloc.fallbacks", r0.fallbacks, "count"},
      {"net.setup_s", net_setup, "s"},
      {"net.setup_other_s", net_setup_other, "s"},
      {"sim.loop_s", loop_s, "s"},
      {"sim.events", events, "count"},
      {"sim.ns_per_event", events > 0 ? 1e9 * loop_s / events : 0.0, "ns"},
      {"phy.fanout_s", phy_s, "s"},
      {"phy.fanout_calls", calls_per_pass(Profiler::Phase::kPhy), "count"},
      {"sim.unattributed_s", loop_s - phy_s - ctrl_s, "s"},
      {"mac.frames_tx", frames_tx, "count"},
      {"mac.collision_ratio", corrupted + delivered > 0 ? corrupted / (corrupted + delivered) : 0.0,
       "ratio"},
      {"mac.retry_drops", retry_drops, "count"},
      {"sched.queue_drops", queue_drops, "count"},
      {"chan.utilization", airtime_ns / (1e9 * sim_s), "ratio"},
      {"ctrl.s", ctrl_s, "s"},
      {"ctrl.calls", calls_per_pass(Profiler::Phase::kCtrl), "count"},
      {"ctrl.solves", ctrl_solves, "count"},
      {"ctrl.retransmits", ctrl_retx, "count"},
      {"ctrl.forced_solves", ctrl_forced, "count"},
      {"ctrl.overhead_ratio", hop_deliveries > 0 ? ctrl_bytes / hop_deliveries : 0.0, "ratio"},
      {"ctrl.admit_reject_ratio", admissions > 0 ? rejected / admissions : 0.0, "ratio"},
      {"transport.acks_sent", acks_sent, "count"},
      {"transport.ack_delivery_ratio", acks_sent > 0 ? acks_delivered / acks_sent : 0.0,
       "ratio"},
      {"out.loss_ratio", e2e > 0 ? lost / e2e : 0.0, "ratio"},
      {"proc.user_s", median(user), "s"},
      {"proc.sys_s", median(sys), "s"},
      {"proc.minflt", median(minflt), "count"},
      {"obs.profiler_overhead", prof_t.wall_s() / plain_t.wall_s() - 1.0, "ratio"},
  };
  if (prof.calls(Profiler::Phase::kCtrl) == 0)
    std::fprintf(stderr, "note: ctrl.* read 0: %s runs no in-band control plane\n",
                 w.name.c_str());
  if (acks_sent == 0)
    std::fprintf(stderr,
                 "note: transport.* read 0: %s runs CBR sources, so no ACK plane "
                 "(elastic transport is unmeasured; see README.md)\n",
                 w.name.c_str());
  if (!opt.spans.empty() && !log.write(opt.spans))
    std::fprintf(stderr, "warning: could not write spans to %s\n", opt.spans.c_str());
  print_result(checker.failed == 0, checker.attempted, checker.failed, m);
  return checker.failed == 0 ? 0 : 1;
}

// ---- Golden recording. ----

int record_golden(const Workload& w, std::uint64_t seed) {
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    const RunResult r = run_job(w, w.jobs[j], nullptr, /*probe=*/false);
    const std::string err = check_invariants(w, w.jobs[j], r);
    if (!err.empty()) {
      std::fprintf(stderr, "CHECK FAILED: %s seed %llu job %zu: %s\n", w.name.c_str(),
                   static_cast<unsigned long long>(seed), j, err.c_str());
      return 1;
    }
    std::printf("%s %llu %zu %llu %lld %016llx\n", w.name.c_str(),
                static_cast<unsigned long long>(seed), j,
                static_cast<unsigned long long>(r.events_processed),
                static_cast<long long>(r.total_end_to_end),
                static_cast<unsigned long long>(digest(r)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  try {
    Workload w;
    if (!make_workload(opt.workload, opt.seed, &w))
      usage("unknown workload '" + opt.workload + "'");
    if (opt.record_golden) return record_golden(w, opt.seed);
    print_env(opt);
    Checker checker;
    checker.w = &w;
    checker.seed = opt.seed;
    checker.golden = load_golden(opt.golden, w.name);
    return opt.trace ? run_traced(opt, w, checker) : run_untraced(opt, w, checker);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2efa_perf: %s\n", e.what());
    return 1;
  }
}
