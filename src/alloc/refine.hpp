// Shared LP construction + the one lexicographic max-min engine of phase 1.
//
// Two entry points run the same level loop:
//
// - solve_share_lp (2PA-C, 2PA-D, two-tier). The paper's allocation LPs
//   routinely have many optima (e.g. Fig. 6: (1/3,1/3,2/3,1/8,3/4) and
//   (1/3,1/8,7/8,1/8,3/4) both maximize total effective throughput). The
//   paper always reports the *balanced* optimum, so after maximizing the
//   total (pass 1) the loop refines lexicographically on the max-total
//   face, then a final re-solve returns a clean vertex. This reproduces
//   every worked example in the paper and gives deterministic output.
// - solve_maxmin_lp (the footnote-3 weighted max-min of maxmin.hpp). The
//   loop refines over the whole polytope: no pass 1, no face row, and each
//   variable's answer is w_i·t* at the level that fixed it.
//
// The loop: repeatedly maximize the minimum weighted share t among the
// still-free variables (the level LP), then fix every free variable whose
// headroom LP (maximize x_i on the level's face) cannot lift it above
// w_i·t*. A level that fixes nothing fixes only its tightest variable.
//
// Two shortcuts skip LP solves whose answers are already known:
//
// - **Witness-pruned headroom tests.** Each level keeps the points it
//   already knows lie on its face: the level LP's optimum and every
//   headroom LP optimum solved so far. When one of them has
//   x_i − w_i·t* > 100·kTol (ten times the fixing threshold), x_i
//   demonstrably has headroom and its LP is skipped. A level that fixes
//   nothing solves the skipped LPs after all, because the "fix the
//   tightest variable" guard needs exact headrooms. A skipped test decides
//   differently from the solved one only where the LP would have failed
//   (phase 1's tolerance calling a feasible face infeasible, see
//   ShareLpResult::refine_failures): its answer would have fixed the
//   variable, while the witness keeps it free.
// - **Replayed relaxation test.** Whether the floors lb·s fit is what the
//   tableau's phase 1 decides on base_problem(lp, s). The coefficients are
//   non-negative, so no structural column ever prices in, phase 1 stops
//   after zero pivots, and the verdict is the artificial sum at
//   y = 0: Σ over rows (capacity rows, then x_i <= ub_i) of max(0, −b_k)
//   with b_k = rhs_k − Σ_i c_ki·(lb_i·s), compared with
//   kSimplexEpsilon. floors_fit_at_scale computes exactly that
//   sum, in the tableau's order, so min_relaxation keeps every bit.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "contention/contention_graph.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace e2efa {

/// A phase-1 allocation LP in normalized form:
///   maximize Σ x_i  s.t.  row_k · x <= 1 (clique capacity, B == 1),
///                          lb_i <= x_i <= ub_i (basic shares, rate caps).
/// Capacity coefficients must be non-negative.
struct ShareLp {
  /// Capacity rows: coefficient vector per deduplicated maximal clique.
  std::vector<std::vector<double>> capacity_rows;
  /// Per-variable lower bound (basic shares). Same length as weights.
  std::vector<double> lower_bounds;
  /// Per-variable upper bound (rate caps, at most 1); empty means 1 for
  /// every variable — no share can exceed the full channel.
  std::vector<double> upper_bounds;
  /// Per-variable weight (for max-min normalization x_i / w_i).
  std::vector<double> weights;
};

struct ShareLpResult {
  LpStatus status = LpStatus::kInfeasible;
  std::vector<double> shares;   ///< Valid when status == kOptimal.
  double total = 0.0;           ///< Σ shares.
  /// Multiplicative scale applied to the lower bounds to restore
  /// feasibility (1.0 normally; < 1.0 when the basic shares alone exceed
  /// some clique's capacity and were proportionally relaxed).
  double min_relaxation = 1.0;
  /// Refinement LPs (level, headroom and final re-solve) that ended
  /// non-optimal. In solve_share_lp such a failure is absorbed — a failed
  /// level keeps the previous level's point, a failed headroom test fixes
  /// its variable, a failed re-solve keeps the last level's point — so
  /// `status` stays kOptimal; this count is where it shows. The usual
  /// cause is tolerance: fixed values w_j·t* can overfill a tight clique
  /// row by ~1e-9, which phase 1 then calls infeasible.
  int refine_failures = 0;
};

/// True when a solve relaxed its basic-share floors (min_relaxation < 1,
/// beyond the phase-1 tolerance).
inline bool relaxed(double min_relaxation) { return min_relaxation < 1.0 - 1e-9; }

/// Phase-1 answers that fell short of the exact program, summed over a
/// run's solves (RunResult::phase1_fallbacks) so that none passes silently.
struct Phase1Fallbacks {
  std::int64_t basic_share = 0;      ///< 2PA-D local problems answered with w·r̂₀.
  std::int64_t relaxed = 0;          ///< 2PA-D local problems with relaxed floors.
  std::int64_t refine_failures = 0;  ///< ShareLpResult::refine_failures, summed.

  Phase1Fallbacks& operator+=(const Phase1Fallbacks& o) {
    basic_share += o.basic_share;
    relaxed += o.relaxed;
    refine_failures += o.refine_failures;
    return *this;
  }
  bool operator==(const Phase1Fallbacks&) const = default;
};

/// Maximizes total share, then applies the balanced refinement. If the
/// lower bounds are by themselves infeasible, they are scaled down by the
/// largest factor that fits (bisection) before solving, and the factor is
/// reported in `min_relaxation`.
ShareLpResult solve_share_lp(const ShareLp& lp);

/// Lexicographic max-min of x_i / w_i over the whole polytope (no pass 1,
/// no max-total face); shares[i] = w_i·t* at the level that fixed x_i. The
/// floors must fit as given. A failed headroom test fixes its variable and
/// counts in refine_failures; a failed level LP throws ContractViolation.
ShareLpResult solve_maxmin_lp(const ShareLp& lp);

enum class Granularity { kFlow, kSubflow };

/// The ShareLp of a whole contention graph: one variable per flow (rows
/// n_{i,k}, weights w_i) or per subflow (0/1 rows, weights w_{i.j}), one
/// capacity row per maximal clique, deduplicated and sorted, zero floors
/// and no caps. `cliques`, when given, is the precomputed maximal-clique
/// list of `g` (identical rows, no re-enumeration).
ShareLp graph_share_lp(const ContentionGraph& g, Granularity granularity,
                       const std::vector<std::vector<int>>* cliques = nullptr);

namespace detail {

/// The relaxation and pass-1 LP: n share variables (+1 trailing variable t
/// when with_t) with floors lb_i·scale, the capacity rows, then one
/// x_i <= ub_i row per share variable. Zero objective.
LpProblem base_problem(const ShareLp& lp, double scale, bool with_t);

/// Whether the floors lb·scale satisfy every row of base_problem: exactly
/// the verdict solve_lp reaches on base_problem(lp, scale, false),
/// replayed without a tableau (see the file comment).
bool floors_fit_at_scale(const ShareLp& lp, double scale);

/// Observer of the headroom tests the witness pool skips. `headroom` is the
/// LP the test would have solved (the level's face, objective x_var) and
/// `target` is w_var·t*.
using SkippedHeadroomFn =
    std::function<void(const LpProblem& headroom, int var, double target)>;

/// solve_share_lp, reporting every skipped headroom test to `on_skip`.
ShareLpResult solve_share_lp(const ShareLp& lp, const SkippedHeadroomFn& on_skip);

}  // namespace detail

}  // namespace e2efa
