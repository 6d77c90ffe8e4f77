// Shared LP construction + balanced (lexicographic max-min) refinement.
//
// The paper's allocation LPs routinely have many optima (e.g. Fig. 6:
// (1/3,1/3,2/3,1/8,3/4) and (1/3,1/8,7/8,1/8,3/4) both maximize total
// effective throughput). The paper always reports the *balanced* optimum, so
// after maximizing the total we refine lexicographically: repeatedly
// maximize the minimum weighted share among still-free variables, fixing the
// variables that cannot rise further. This reproduces every worked example
// in the paper and gives deterministic output.
//
// Two shortcuts skip LP solves whose answers are already known:
//
// - **Witness-pruned headroom tests.** A level with optimum t* fixes every
//   free variable whose headroom LP (maximize x_i on the level's face)
//   cannot lift it above w_i·t*. Each level keeps the points it already
//   knows lie on that face: the level LP's optimum and every headroom LP
//   optimum solved so far. When one of them has x_i − w_i·t* > 100·kTol
//   (ten times the fixing threshold), x_i demonstrably has headroom and its
//   LP is skipped. A level that fixes nothing solves the skipped LPs after
//   all, because the "fix the tightest variable" guard needs exact
//   headrooms. A skipped test decides differently from the solved one only
//   where the LP would have failed (phase 1's tolerance calling a feasible
//   face infeasible, see ShareLpResult::refine_failures): its answer would
//   have fixed the variable, while the witness keeps it free.
// - **Replayed relaxation test.** Whether the floors lb·s fit is what the
//   tableau's phase 1 decides on base_problem(lp, s). The coefficients are
//   non-negative, so no structural column ever prices in, phase 1 stops
//   after zero pivots, and the verdict is the artificial sum at
//   y = 0: Σ over rows (capacity rows, then x_i <= 1) of max(0, −b_k) with
//   b_k = 1 − Σ_i c_ki·(lb_i·s), compared with SimplexOptions::epsilon.
//   floors_fit_at_scale computes exactly that sum, in the tableau's order,
//   so min_relaxation keeps every bit.
#pragma once

#include <functional>
#include <vector>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace e2efa {

/// A phase-1 allocation LP in normalized form:
///   maximize Σ x_i  s.t.  row_k · x <= 1 (clique capacity, B == 1),
///                          x_i >= lb_i (basic shares).
/// Capacity coefficients must be non-negative.
struct ShareLp {
  /// Capacity rows: coefficient vector per deduplicated maximal clique.
  std::vector<std::vector<double>> capacity_rows;
  /// Per-variable lower bound (basic shares). Same length as weights.
  std::vector<double> lower_bounds;
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
  /// non-optimal. Such a failure is absorbed — a failed level keeps the
  /// previous level's point, a failed headroom test fixes its variable, a
  /// failed re-solve keeps the last level's point — so `status` stays
  /// kOptimal; this count is where it shows. The usual cause is tolerance:
  /// fixed values w_j·t* can overfill a tight clique row by ~1e-9, which
  /// phase 1 then calls infeasible.
  int refine_failures = 0;
};

/// Maximizes total share, then applies the balanced refinement. If the
/// lower bounds are by themselves infeasible, they are scaled down by the
/// largest factor that fits (bisection) before solving, and the factor is
/// reported in `min_relaxation`.
ShareLpResult solve_share_lp(const ShareLp& lp);

namespace detail {

/// The relaxation and pass-1 LP: n share variables (+1 trailing variable t
/// when with_t) with floors lb_i·scale, the capacity rows, then one
/// x_i <= 1 row per share variable. Zero objective.
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
