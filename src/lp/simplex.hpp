// Dense two-phase primal Simplex solver.
//
// The paper notes that "in most cases it is sufficient to solve the problem
// with the Simplex algorithm"; this is that solver, built from scratch:
// a tableau implementation with Bland's anti-cycling rule, artificial
// variables for >= / == rows (phase 1), and explicit infeasible/unbounded
// detection.
//
// - **Pivot cost.** The tableau is one contiguous row-major array. A pivot
//   divides the pivot row's nonzero entries and lists them in one pass,
//   gathers the rows with a nonzero in the entering column, and updates
//   only those rows at only those columns: O(rows hit · row nonzeros), not
//   O(m·n). Once phase 1 ends, the artificial columns are dead (they can
//   never re-enter and nothing reads them), so pivots stop updating them.
//   Bland's rule still needs many pivots, so the balanced refinement's LPs
//   (alloc/refine.hpp) dominate phase-1 time — see bench/micro_simplex.
// - **LpFace.** Phase 1 (find a feasible basis) reads only the rows and
//   the lower bounds, never the objective. An LpFace runs it once; each
//   maximize(c) then runs phase 2 alone and logs the tableau rows it
//   touches, so the next maximize restores the phase-1 tableau from that
//   undo log. solve_lp(p) is LpFace(p).maximize(p.objective()) — one code
//   path, minus the log a temporary face never reads — and every maximize
//   returns the bits solve_lp returns for that objective.
// - **Buffer reuse.** load() rebuilds a face in the buffers of the
//   previous one, so a caller re-solving one LP shape (the refinement's
//   level and face LPs) allocates nothing per solve.
#pragma once

#include <vector>

#include "lp/problem.hpp"

namespace e2efa {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* to_string(LpStatus s);

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;       ///< c^T x at the returned point (valid if optimal).
  std::vector<double> x;        ///< Primal values in original variable space.
  int iterations = 0;           ///< Total pivots across both phases.
};

/// Pivot/feasibility tolerance.
inline constexpr double kSimplexEpsilon = 1e-9;

struct SimplexOptions {
  int max_iterations = 10'000;  ///< Pivots across both phases of one solve.
};

/// The feasible region of one LP (rows and lower bounds), with phase 1
/// run. Throws ContractViolation on malformed input; infeasibility and the
/// iteration limit in phase 1 are reported by every maximize().
class LpFace {
 public:
  explicit LpFace(const SimplexOptions& options = {}) : opt_(options) {}
  explicit LpFace(const LpProblem& p, const SimplexOptions& options = {})
      : opt_(options) {
    load(p);
  }

  /// Replaces the face by p's (p's objective is ignored) and runs phase 1,
  /// reusing this face's buffers.
  void load(const LpProblem& p);

  /// Maximizes objective^T x over the face (one coefficient per variable).
  /// `iterations` counts phase 1's pivots too, as solve_lp does. Logs the
  /// rows phase 2 changes, so the next maximize starts from phase 1's
  /// tableau again.
  LpSolution maximize(const std::vector<double>& objective) & {
    return phase2(objective, /*log=*/true);
  }
  /// The same on an expiring face (solve_lp's): nothing can follow, so
  /// nothing is logged — the log of a large LP is another tableau.
  LpSolution maximize(const std::vector<double>& objective) && {
    return phase2(objective, /*log=*/false);
  }

 private:
  double* row_at(int i) {
    return t_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_);
  }
  double at(int i, int j) const {
    return t_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(j)];
  }
  bool is_artificial(int col) const { return col > rhs_; }
  int live_cols() const { return artificials_dead_ ? rhs_ + 1 : cols_; }

  LpSolution phase2(const std::vector<double>& objective, bool log);
  void subtract_row(int target, int src, double factor);
  void pivot(int row, int col);
  LpStatus pivot_loop(int& iterations);
  void drive_out_artificials();
  void log_row(int i);
  void restore_phase1();

  SimplexOptions opt_;
  int m_ = 0;         ///< Constraint rows; row m_ is the objective.
  int n_struct_ = 0;  ///< Structural (user) variables.
  int rhs_ = 0;       ///< The rhs column: after the slacks, before the artificials.
  int cols_ = 0;      ///< [structural | slack/surplus | rhs | artificial].
  std::vector<double> lower_;  ///< x = lower + y with y >= 0.
  std::vector<double> t_;      ///< (m_+1) x cols_, row-major.
  std::vector<int> basis_;
  bool artificials_dead_ = false;  ///< Phase 1 is over: artificial columns are never read.

  bool phase1_kept_ = false;  ///< Loaded, and no unlogged phase 2 has run since.
  LpStatus phase1_status_ = LpStatus::kIterationLimit;
  int phase1_iterations_ = 0;
  std::vector<int> phase1_basis_;
  /// Undo log of a maximize(): each constraint row's phase-1 live columns,
  /// saved before its first change.
  bool logging_ = false;
  std::vector<char> logged_;
  std::vector<int> log_rows_;
  std::vector<double> log_data_;

  // Buffers reused by every load() and pivot.
  std::vector<double> shifted_rhs_;  ///< b = rhs − a·lb per row.
  std::vector<int> nz_cols_;         ///< The pivot row's nonzero columns.
  std::vector<int> hit_rows_;        ///< Rows with a nonzero in the entering column.
};

/// Solves `problem` (maximization). Never throws on infeasible/unbounded —
/// those are reported through the status; throws ContractViolation only on
/// malformed input.
LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options = {});

}  // namespace e2efa
