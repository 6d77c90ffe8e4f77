// City-scale sweep: wall-clock and peak RSS of every phase-1 scaling layer
// (spatial-grid neighbor build, sparse contention graph, clique
// enumeration, incremental clique deltas, distributed solve) plus a short
// packet-level simulation, at 50 / 200 / 1k / 5k / 10k nodes with 10
// flows per node (100k flows at the top point). Results go to
// BENCH_scale.json; the 1k-node point is *guarded* against regression.
//
// Per-size figures (seconds unless noted):
//
//   gen_s         generate_scenario: placement, grid-backed connectivity
//                 check, bounded-BFS routing (max_hops = 4).
//   neighbor_s    Topology reconstruction alone — the grid-backed
//                 neighbor/interference list build the spatial index
//                 replaced an all-pairs double loop with.
//   contention_s  FlowSet + ContentionGraph: link classes from the
//                 per-node incidence lists, then the link adjacency
//                 (endpoint-incidence rule over interference lists, no
//                 pairwise scan).
//   clique_s      CliqueStore construction = full Bron–Kerbosch over the
//                 active link graph (the from-scratch cost a re-solve
//                 used to pay every epoch).
//   links / link_edges  size of the link graph the cliques run on;
//                 contention_edges stays the subflow-level count (half
//                 the sum of ContentionGraph::degree).
//   delta_mean_s  mean cost of one fault-shaped delta: suspend every flow
//                 crossing one link (so the link switches off), re-derive
//                 only the dirtied clique neighborhood, heal it again
//                 (2 updates per round).
//   solve_s       distributed phase 1, sampled: knowledge build (steps
//                 1-2, all nodes — shared state) plus steps 3-5 for
//                 kSolveSample sources spread over the flow id space:
//                 local cliques per path node, constraint accumulation,
//                 and the source's *pass-1* local LP (maximize total
//                 share over clique rows + basic-share floors). The
//                 balanced (lexicographic max-min) refinement is
//                 excluded: it solves one LP per free variable per
//                 level — O(vars²) dense simplex solves, hours at the
//                 ~1000-variable local problems city-scale density
//                 produces — and is the offline oracle's tie-breaking
//                 post-pass, not part of the scaling path this sweep
//                 measures. In deployment every source solves
//                 concurrently, so the scaling figure is the per-source
//                 mean (solve_per_flow_s), not a serialized sum over
//                 100k flows — which is why the sweep samples instead of
//                 calling distributed_allocate outright.
//   sim_s         run_scenario, plain 802.11 DCF for sim_seconds of
//                 simulated time: exercises the event engine / channel /
//                 MAC path at scale without re-paying the solve that
//                 solve_s already measures.
//   peak_rss_mb   VmHWM from /proc/self/status (high-water mark, so the
//                 figure is cumulative across earlier sizes).
//
// Guard (same idiom as micro_events / micro_ctrl): at the default sizes,
// the 1k-node point's scalable-path total (neighbor_s + contention_s +
// clique_s + delta_total_s — the layers the scaling rework owns) must
// stay within --tolerance (default 10%) of the recorded baseline;
// --nodes N measures a custom point and skips the guard. A full (non
// --quick) run additionally checks the nodes-vs-time growth between 1k
// and 10k stays sub-quadratic for the neighbor build and the clique
// layers.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "alloc/knowledge.hpp"
#include "contention/clique_store.hpp"
#include "contention/cliques.hpp"
#include "contention/contention_graph.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "net/runner.hpp"
#include "net/scenario_gen.hpp"
#include "util/options.hpp"
#include "util/strings.hpp"

using namespace e2efa;

namespace {

struct SizeSpec {
  int nodes;
  int flows;
  double sim_seconds;  ///< Simulated horizon of the packet-sim phase.
};

// 10 flows per node throughout; the packet-sim horizon shrinks as the
// event population grows so every point stays a "short" sim.
constexpr SizeSpec kSizes[] = {
    {50, 500, 2.0}, {200, 2000, 1.0}, {1000, 10000, 0.5},
    {5000, 50000, 0.2}, {10000, 100000, 0.1},
};
constexpr int kQuickSizes = 3;  ///< --quick stops after the 1k point.
constexpr int kGuardNodes = 1000;

// Captured on the reference machine at the default sizes (single run,
// Release). The guard watches the scalable phase-1 path only — the packet
// sim is event-count-bound and too seed-sensitive to gate on. It includes
// the deltas, which switch a link off at 1k nodes (about 0.07 s of the
// total).
constexpr double kBaselineGuardTotalS = 0.341;

// Delta cost is bounded by the dirty neighborhood N[Δ] — constant in
// network size once degree saturates — so a handful of rounds averages
// out the noise without dominating the point's wall-clock.
constexpr int kDeltaRounds = 5;
// Default number of sources sampled by the solve phase. Per-source cost
// is dominated by deriving each path node's local cliques plus one pass-1
// simplex solve (~1000 variables at saturated density — fractions of a
// second each), so eight sources report a stable mean without the phase
// dominating the point's wall-clock.
constexpr int kSolveSample = 8;

struct Options {
  bool quick = false;
  int nodes = 0;  ///< > 0: single custom point (guard skipped).
  int solve_sample = kSolveSample;
  double tolerance = 0.10;
  std::string out = "BENCH_scale.json";
};

Options parse_options(int argc, char** argv) {
  Options o;
  OptionTable t("scale_sweep", "usage: scale_sweep [options]\n");
  t.flag("--quick",
         "stop after the 1k-node point (CI mode;\nthe 1k guard still runs)",
         &o.quick)
      .integer("--nodes", "N",
               "single custom point with N nodes and\n"
               "10 N flows (baseline guard skipped)",
               &o.nodes, 10, INT_MAX)
      .integer("--solve-sample", "N",
               strformat("sources sampled by the solve phase\n(default %d)",
                         kSolveSample),
               &o.solve_sample, 1, INT_MAX)
      .positive("--tolerance", "F",
                "max allowed regression vs baseline (default 0.10)", &o.tolerance)
      .text("--out", "PATH", "JSON output (default BENCH_scale.json)", &o.out);
  t.parse_or_exit(argc, argv);
  return o;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set (VmHWM) in MiB, from /proc/self/status; 0 when the
/// file is unavailable (non-Linux).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

struct PointResult {
  int nodes = 0;
  int flows = 0;
  int subflows = 0;
  std::int64_t contention_edges = 0;
  int links = 0;
  std::int64_t link_edges = 0;
  int clique_count = 0;
  double gen_s = 0.0;
  double neighbor_s = 0.0;
  double contention_s = 0.0;
  double clique_s = 0.0;
  double delta_total_s = 0.0;
  double delta_mean_s = 0.0;
  double delta_removed_mean = 0.0;
  double delta_added_mean = 0.0;
  double solve_s = 0.0;
  int solve_flows = 0;
  double solve_per_flow_s = 0.0;
  double sim_seconds = 0.0;
  double sim_s = 0.0;
  double rss_mb = 0.0;
  /// The layers the scaling rework owns: grid-backed neighbor build,
  /// sparse contention graph, from-scratch clique enumeration, and the
  /// incremental deltas. The solve phase is excluded — its cost is the
  /// (sampled) local LP, which the incremental machinery feeds but does
  /// not control.
  double guard_total_s() const {
    return neighbor_s + contention_s + clique_s + delta_total_s;
  }
};

/// Progress marker: large points run for minutes, so each phase reports as
/// it completes.
void phase_done(const char* name, double seconds) {
  std::printf("  %s %.3fs", name, seconds);
  std::fflush(stdout);
}

PointResult measure(const SizeSpec& spec, int solve_sample) {
  PointResult r;
  r.nodes = spec.nodes;
  r.flows = spec.flows;
  r.sim_seconds = spec.sim_seconds;
  std::printf("%6d nodes %7d flows:", spec.nodes, spec.flows);
  std::fflush(stdout);

  GenConfig gen;
  gen.min_nodes = gen.max_nodes = spec.nodes;
  gen.min_flows = gen.max_flows = spec.flows;
  // The synthetic-scale settings tools/fuzz.cpp uses: denser placement
  // (mean degree ~12) keeps large random geometric graphs connected, and
  // bounded-hop routing keeps per-flow setup cost local.
  gen.density_m = 130.0;
  gen.max_hops = 4;
  gen.p_faults = 0.0;
  gen.p_loss = 0.0;

  double t0 = now_s();
  const Scenario sc = generate_scenario(/*seed=*/1, gen);
  r.gen_s = now_s() - t0;
  phase_done("gen", r.gen_s);

  // Re-run the Topology constructor on the same placement to time the
  // grid-backed neighbor/interference build in isolation (gen_s above
  // already paid it once inside make_random).
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(sc.topo.node_count()));
  for (NodeId v = 0; v < sc.topo.node_count(); ++v) pts.push_back(sc.topo.position(v));
  t0 = now_s();
  const Topology rebuilt(std::move(pts), sc.topo.tx_range(), sc.topo.interference_range());
  r.neighbor_s = now_s() - t0;
  phase_done("nbr", r.neighbor_s);

  t0 = now_s();
  const FlowSet flows(sc.topo, sc.flow_specs);
  const ContentionGraph g(sc.topo, flows);
  r.contention_s = now_s() - t0;
  phase_done("graph", r.contention_s);
  r.subflows = flows.subflow_count();
  for (int v = 0; v < g.vertex_count(); ++v) r.contention_edges += g.degree(v);
  r.contention_edges /= 2;
  r.links = g.link_count();
  for (int l = 0; l < g.link_count(); ++l)
    r.link_edges += static_cast<std::int64_t>(g.link_neighbors(l).size());
  r.link_edges /= 2;

  t0 = now_s();
  CliqueStore store(g);
  r.clique_s = now_s() - t0;
  r.clique_count = store.clique_count();
  phase_done("cliques", r.clique_s);

  // Fault-shaped deltas: round k picks the link under flow (k * stride)'s
  // first hop and suspends every flow crossing it — all of their subflows
  // leave the active set, so that link switches off at every size — then
  // heals them, the toggle pattern the runner's epoch machinery feeds the
  // store. (At 10 flows per node, suspending one flow alone leaves every
  // link it touches carrying others: no link toggles, nothing is timed.)
  std::vector<int> suspend;
  std::int64_t removed = 0, added = 0;
  t0 = now_s();
  for (int round = 0; round < kDeltaRounds; ++round) {
    const FlowId f0 = static_cast<FlowId>(
        (static_cast<std::int64_t>(round) * 7919) % flows.flow_count());
    suspend.clear();
    for (int s : g.link_members(g.link_of(flows.subflow_index(f0, 0)))) {
      const FlowId f = flows.subflow(s).flow;
      for (int h = 0; h < flows.flow(f).length(); ++h)
        suspend.push_back(flows.subflow_index(f, h));
    }
    std::sort(suspend.begin(), suspend.end());
    suspend.erase(std::unique(suspend.begin(), suspend.end()), suspend.end());
    const CliqueStore::UpdateStats down = store.update({}, suspend);
    const CliqueStore::UpdateStats up = store.update(suspend, {});
    removed += down.removed + up.removed;
    added += down.added + up.added;
  }
  r.delta_total_s = now_s() - t0;
  r.delta_mean_s = r.delta_total_s / (2.0 * kDeltaRounds);
  r.delta_removed_mean = static_cast<double>(removed) / (2.0 * kDeltaRounds);
  r.delta_added_mean = static_cast<double>(added) / (2.0 * kDeltaRounds);
  phase_done("deltas", r.delta_total_s);

  // Distributed phase 1, sampled. Steps 1-2 (overhear + exchange) build
  // the shared knowledge state for every node; then kSolveSample sources
  // spread over the flow id space run steps 3-5 — local cliques of each
  // path node derived lazily (and cached: sampled paths overlap), then
  // the source's pass-1 local LP (see the solve_s note in the file-top
  // comment for why the balanced refinement is excluded).
  // distributed_allocate would serialize work that deployment runs
  // concurrently per source, so the per-source mean is the scaling
  // figure.
  t0 = now_s();
  const std::vector<std::vector<int>> own = overheard_subflow_sets(sc.topo, flows);
  const std::vector<std::vector<int>> knowledge = exchanged_knowledge(sc.topo, own);
  const double knowledge_s = now_s() - t0;
  std::vector<std::vector<std::vector<int>>> node_cliques(
      static_cast<std::size_t>(sc.topo.node_count()));
  std::vector<char> node_done(static_cast<std::size_t>(sc.topo.node_count()), 0);
  r.solve_flows = std::min(solve_sample, flows.flow_count());
  double share_sum = 0.0;
  for (int i = 0; i < r.solve_flows; ++i) {
    const FlowId fid = static_cast<FlowId>(
        static_cast<std::int64_t>(i) * flows.flow_count() / r.solve_flows);
    const Flow& fl = flows.flow(fid);
    std::set<std::vector<int>> cliques;
    for (int h = 0; h < fl.length(); ++h) {
      const NodeId v = fl.path[static_cast<std::size_t>(h)];
      if (node_done[static_cast<std::size_t>(v)] == 0) {
        node_cliques[static_cast<std::size_t>(v)] =
            maximal_cliques_in_subset(g, knowledge[static_cast<std::size_t>(v)]);
        node_done[static_cast<std::size_t>(v)] = 1;
      }
      for (const auto& c : node_cliques[static_cast<std::size_t>(v)]) cliques.insert(c);
    }
    // Pass-1 local LP: variables are the flows in any accumulated
    // clique; objective maximizes total share; floors are the local
    // basic shares from the source's two-hop knowledge; one <=1 row per
    // distinct clique (rows deduplicated after flow-level projection).
    std::set<FlowId> vars_set;
    vars_set.insert(fid);
    for (const auto& c : cliques)
      for (int s : c) vars_set.insert(flows.subflow(s).flow);
    const std::vector<FlowId> vars(vars_set.begin(), vars_set.end());
    const int k = static_cast<int>(vars.size());
    double denom = 0.0;
    {
      std::set<FlowId> known;
      for (int s : knowledge[static_cast<std::size_t>(fl.source())])
        known.insert(flows.subflow(s).flow);
      for (FlowId j : known)
        denom += flows.flow(j).weight * virtual_length(flows.flow(j).length());
    }
    LpProblem p(k);
    for (int v = 0; v < k; ++v) {
      p.set_objective(v, 1.0);
      p.set_lower_bound(
          v, flows.flow(vars[static_cast<std::size_t>(v)]).weight / denom);
    }
    std::set<std::vector<double>> rows;
    for (const auto& c : cliques) {
      std::vector<double> row(static_cast<std::size_t>(k), 0.0);
      for (int s : c) {
        const FlowId j = flows.subflow(s).flow;
        const auto pos =
            std::lower_bound(vars.begin(), vars.end(), j) - vars.begin();
        row[static_cast<std::size_t>(pos)] += 1.0;
      }
      rows.insert(std::move(row));
    }
    for (const auto& row : rows)
      p.add_constraint(std::vector<double>(row), Relation::kLessEq, 1.0);
    const LpSolution sol = solve_lp(p);
    const auto fpos =
        std::lower_bound(vars.begin(), vars.end(), fid) - vars.begin();
    share_sum += sol.status == LpStatus::kOptimal
                     ? sol.x[static_cast<std::size_t>(fpos)]
                     : fl.weight / denom;  // local basic share fallback
  }
  r.solve_s = now_s() - t0;
  r.solve_per_flow_s = (r.solve_s - knowledge_s) / r.solve_flows;
  phase_done("solve", r.solve_s);
  if (share_sum <= 0.0) std::abort();  // keep the solves live

  SimConfig cfg;
  cfg.sim_seconds = spec.sim_seconds;
  cfg.seed = 1;
  t0 = now_s();
  const RunResult run = run_scenario(sc, Protocol::k80211, cfg);
  r.sim_s = now_s() - t0;
  phase_done("sim", r.sim_s);
  if (run.sim_seconds <= 0.0) std::abort();
  std::printf("\n");

  r.rss_mb = peak_rss_mb();
  return r;
}

/// log-log slope of t(nodes) between two points; < 2 means sub-quadratic.
/// Sub-millisecond timings are clamped first — at 1k nodes some phases
/// finish in microseconds and their ratio would be pure noise.
double growth_exponent(const PointResult& a, const PointResult& b, double ta,
                       double tb) {
  const double lo = std::max(ta, 1e-3);
  const double hi = std::max(tb, 1e-3);
  return std::log(hi / lo) /
         std::log(static_cast<double>(b.nodes) / static_cast<double>(a.nodes));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  std::vector<SizeSpec> sizes;
  if (opt.nodes > 0) {
    sizes.push_back({opt.nodes, 10 * opt.nodes, 0.2});
  } else {
    const int count = opt.quick ? kQuickSizes
                                : static_cast<int>(std::size(kSizes));
    sizes.assign(kSizes, kSizes + count);
  }

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", opt.out.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(f, "[\n");

  bool failed = false;
  std::vector<PointResult> results;
  for (const SizeSpec& spec : sizes) {
    const PointResult r = measure(spec, opt.solve_sample);
    results.push_back(r);
    std::printf(
        "        -> %d subflows, %lld contention edges, %d links, %lld link "
        "edges, %d cliques, delta %.5fs mean, peak rss %.1f MB\n",
        r.subflows, static_cast<long long>(r.contention_edges), r.links,
        static_cast<long long>(r.link_edges), r.clique_count, r.delta_mean_s,
        r.rss_mb);
    std::fflush(stdout);
    std::fprintf(
        f,
        "  {\"name\": \"scale_%d\", \"nodes\": %d, \"flows\": %d, "
        "\"subflows\": %d, \"contention_edges\": %lld, \"links\": %d, "
        "\"link_edges\": %lld, \"clique_count\": %d, "
        "\"gen_s\": %.6f, \"neighbor_s\": %.6f, \"contention_s\": %.6f, "
        "\"clique_s\": %.6f, \"delta_total_s\": %.6f, \"delta_mean_s\": %.8f, "
        "\"delta_removed_mean\": %.2f, \"delta_added_mean\": %.2f, "
        "\"solve_s\": %.6f, \"solve_flows\": %d, \"solve_per_flow_s\": %.6f, "
        "\"sim_seconds\": %.2f, \"sim_s\": %.6f, "
        "\"peak_rss_mb\": %.1f},\n",
        r.nodes, r.nodes, r.flows, r.subflows,
        static_cast<long long>(r.contention_edges), r.links,
        static_cast<long long>(r.link_edges), r.clique_count, r.gen_s,
        r.neighbor_s, r.contention_s, r.clique_s, r.delta_total_s,
        r.delta_mean_s, r.delta_removed_mean, r.delta_added_mean, r.solve_s,
        r.solve_flows, r.solve_per_flow_s, r.sim_seconds, r.sim_s, r.rss_mb);
    std::fflush(f);
  }

  // --- 1k-point regression guard (default sizes only). -------------------
  const bool guard = opt.nodes == 0;
  double guard_total = 0.0;
  if (guard) {
    for (const PointResult& r : results)
      if (r.nodes == kGuardNodes) guard_total = r.guard_total_s();
    if (guard_total > kBaselineGuardTotalS * (1.0 + opt.tolerance)) {
      std::fprintf(stderr,
                   "FAIL: 1k-node scalable-path total %.2f s exceeds baseline "
                   "%.2f s by more than %.0f%%\n",
                   guard_total, kBaselineGuardTotalS, opt.tolerance * 1e2);
      failed = true;
    }
  }

  // --- Sub-quadratic growth check (full sweep only). ---------------------
  double nbr_exp = 0.0, clique_exp = 0.0;
  const bool full = guard && !opt.quick;
  if (full) {
    const PointResult& a = results[2];  // 1k
    const PointResult& b = results.back();  // 10k
    nbr_exp = growth_exponent(a, b, a.neighbor_s, b.neighbor_s);
    clique_exp = growth_exponent(a, b, a.clique_s + a.contention_s,
                                 b.clique_s + b.contention_s);
    std::printf("growth exponents 1k -> 10k: neighbor build %.2f, "
                "contention+cliques %.2f (quadratic = 2.00)\n",
                nbr_exp, clique_exp);
    if (nbr_exp >= 2.0 || clique_exp >= 2.0) {
      std::fprintf(stderr,
                   "FAIL: nodes-vs-wall-clock growth is not sub-quadratic "
                   "(neighbor %.2f, contention+cliques %.2f)\n",
                   nbr_exp, clique_exp);
      failed = true;
    }
  }

  std::fprintf(f,
               "  {\"name\": \"scale_guard\", \"guarded\": %s, "
               "\"guard_total_s\": %.6f, \"baseline_s\": %.6f, "
               "\"tolerance\": %.2f, \"neighbor_exponent\": %.3f, "
               "\"clique_exponent\": %.3f}\n]\n",
               guard ? "true" : "false", guard_total, kBaselineGuardTotalS,
               opt.tolerance, nbr_exp, clique_exp);
  std::fclose(f);
  std::printf("wrote %s%s\n", opt.out.c_str(),
              guard ? "" : " (custom --nodes point: baseline guard skipped)");
  return failed ? 1 : 0;
}
