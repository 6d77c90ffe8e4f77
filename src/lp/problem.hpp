// Linear program model (Sec. III-B builds its allocation LPs with this).
//
// The canonical shape solved throughout the library is
//     maximize  c^T x
//     s.t.      a_k^T x  (<= | >= | ==)  b_k      for each constraint k
//               x_i >= lb_i                        (lb defaults to 0)
//
// which covers the paper's clique capacity rows (<=) and basic-share rows
// (x_i >= basic_i, expressed as lower bounds) as well as the equality row
// used by the balanced-refinement pass.
#pragma once

#include <utility>
#include <vector>

namespace e2efa {

enum class Relation { kLessEq, kGreaterEq, kEqual };

/// One linear constraint: coeffs^T x  rel  rhs.
struct LpConstraint {
  std::vector<double> coeffs;
  Relation rel = Relation::kLessEq;
  double rhs = 0.0;
};

/// A maximization LP over `num_vars` variables with per-variable lower
/// bounds. Invalid sizes are rejected at solve time.
class LpProblem {
 public:
  explicit LpProblem(int num_vars);

  int num_vars() const { return num_vars_; }

  /// Sets the objective coefficient of variable i (default 0).
  void set_objective(int var, double coeff);
  void set_objective(const std::vector<double>& coeffs);
  const std::vector<double>& objective() const { return objective_; }

  /// Sets the lower bound of variable i (default 0; must be finite).
  void set_lower_bound(int var, double lb);
  const std::vector<double>& lower_bounds() const { return lower_bounds_; }

  /// Appends a constraint; `coeffs` must have num_vars entries.
  void add_constraint(std::vector<double> coeffs, Relation rel, double rhs);
  const std::vector<LpConstraint>& constraints() const { return constraints_; }
  /// Constraint k, for rewriting a row in place between solves (its
  /// coefficient count must stay num_vars).
  LpConstraint& constraint(int k);

  /// Convenience: adds sum_{i in vars} mult_i * x_i <= rhs.
  void add_weighted_le(const std::vector<std::pair<int, double>>& terms, double rhs);

 private:
  int num_vars_;
  std::vector<double> objective_;
  std::vector<double> lower_bounds_;
  std::vector<LpConstraint> constraints_;
};

}  // namespace e2efa
