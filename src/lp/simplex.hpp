// Dense two-phase primal Simplex solver.
//
// The paper notes that "in most cases it is sufficient to solve the problem
// with the Simplex algorithm"; this is that solver, built from scratch:
// a tableau implementation with Bland's anti-cycling rule, artificial
// variables for >= / == rows (phase 1), and explicit infeasible/unbounded
// detection. The tableau is one contiguous row-major array; a pivot touches
// only the pivot row's nonzero columns, but each pivot is still O(m·n) and
// Bland's rule needs many of them, so the balanced refinement's LPs
// (alloc/refine.hpp) dominate phase-1 time — see bench/micro_simplex.
#pragma once

#include <string>
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

struct SimplexOptions {
  int max_iterations = 10'000;
  double epsilon = 1e-9;  ///< Pivot/feasibility tolerance.
};

/// Solves `problem` (maximization). Never throws on infeasible/unbounded —
/// those are reported through the status; throws ContractViolation only on
/// malformed input.
LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options = {});

}  // namespace e2efa
