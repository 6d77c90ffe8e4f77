#include "lp/problem.hpp"

#include "util/assert.hpp"

namespace e2efa {

LpProblem::LpProblem(int num_vars) : num_vars_(num_vars) {
  E2EFA_ASSERT(num_vars >= 1);
  objective_.assign(static_cast<std::size_t>(num_vars), 0.0);
  lower_bounds_.assign(static_cast<std::size_t>(num_vars), 0.0);
}

void LpProblem::set_objective(int var, double coeff) {
  E2EFA_ASSERT(var >= 0 && var < num_vars_);
  objective_[static_cast<std::size_t>(var)] = coeff;
}

void LpProblem::set_objective(const std::vector<double>& coeffs) {
  E2EFA_ASSERT(static_cast<int>(coeffs.size()) == num_vars_);
  objective_ = coeffs;
}

void LpProblem::set_lower_bound(int var, double lb) {
  E2EFA_ASSERT(var >= 0 && var < num_vars_);
  lower_bounds_[static_cast<std::size_t>(var)] = lb;
}

void LpProblem::add_constraint(std::vector<double> coeffs, Relation rel, double rhs) {
  E2EFA_ASSERT(static_cast<int>(coeffs.size()) == num_vars_);
  constraints_.push_back({std::move(coeffs), rel, rhs});
}

LpConstraint& LpProblem::constraint(int k) {
  E2EFA_ASSERT(k >= 0 && k < static_cast<int>(constraints_.size()));
  return constraints_[static_cast<std::size_t>(k)];
}

void LpProblem::add_weighted_le(const std::vector<std::pair<int, double>>& terms,
                                double rhs) {
  std::vector<double> coeffs(static_cast<std::size_t>(num_vars_), 0.0);
  for (const auto& [var, mult] : terms) {
    E2EFA_ASSERT(var >= 0 && var < num_vars_);
    coeffs[static_cast<std::size_t>(var)] += mult;
  }
  add_constraint(std::move(coeffs), Relation::kLessEq, rhs);
}

}  // namespace e2efa
