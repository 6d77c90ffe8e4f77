#include "alloc/refine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>

#include "contention/cliques.hpp"
#include "util/assert.hpp"

namespace e2efa {

namespace {

constexpr double kTol = 1e-7;

double upper_bound(const ShareLp& lp, std::size_t i) {
  return lp.upper_bounds.empty() ? 1.0 : lp.upper_bounds[i];
}

void check_share_lp(const ShareLp& lp) {
  const int n = static_cast<int>(lp.weights.size());
  E2EFA_ASSERT(n >= 1);
  E2EFA_ASSERT(lp.lower_bounds.size() == lp.weights.size());
  E2EFA_ASSERT(lp.upper_bounds.empty() || lp.upper_bounds.size() == lp.weights.size());
  for (double w : lp.weights) E2EFA_ASSERT(w > 0.0);
  for (const auto& row : lp.capacity_rows) {
    E2EFA_ASSERT(static_cast<int>(row.size()) == n);
    for (double c : row) E2EFA_ASSERT_MSG(c >= 0.0, "capacity coefficients must be non-negative");
  }
}

/// The level loop of both entry points (see the file comment), over the
/// floors lb·scale. With `face_total` set, every LP also keeps
/// Σx >= face_total − kTol: solve_share_lp's max-total face.
struct Refinement {
  const ShareLp& lp;
  double scale;
  std::optional<double> face_total;
  std::vector<bool> fixed = std::vector<bool>(lp.weights.size(), false);
  std::vector<double> fixed_value = std::vector<double>(lp.weights.size(), 0.0);  ///< w_i·t*
  int failures = 0;  ///< Level and headroom LPs that ended non-optimal.

  /// The refinement LP under the current fixes: fixed variables pinned to
  /// their values; free ones riding the level variable t (with_t, a
  /// trailing column) or kept at their floor w_i·t_floor − kTol.
  LpProblem problem(bool with_t, double t_floor) const;

  /// Runs levels until every variable is fixed, leaving the last level
  /// LP's point in `x`. Returns false, with the fixes made so far, when a
  /// level LP ends non-optimal.
  bool run(const detail::SkippedHeadroomFn& on_skip, std::vector<double>& x);
};

LpProblem Refinement::problem(bool with_t, double t_floor) const {
  const int n = static_cast<int>(lp.weights.size());
  LpProblem q = detail::base_problem(lp, scale, with_t);
  const int tvar = n;  // only valid when with_t
  if (face_total) {
    std::vector<double> coeffs(static_cast<std::size_t>(q.num_vars()), 0.0);
    for (int i = 0; i < n; ++i) coeffs[static_cast<std::size_t>(i)] = 1.0;
    q.add_constraint(std::move(coeffs), Relation::kGreaterEq, *face_total - kTol);
  }
  for (int i = 0; i < n; ++i) {
    std::vector<double> coeffs(static_cast<std::size_t>(q.num_vars()), 0.0);
    coeffs[static_cast<std::size_t>(i)] = 1.0;
    if (fixed[static_cast<std::size_t>(i)]) {
      q.add_constraint(std::move(coeffs), Relation::kEqual,
                       fixed_value[static_cast<std::size_t>(i)]);
    } else if (with_t) {
      // x_i - w_i t >= 0
      coeffs[static_cast<std::size_t>(tvar)] = -lp.weights[static_cast<std::size_t>(i)];
      q.add_constraint(std::move(coeffs), Relation::kGreaterEq, 0.0);
    } else {
      q.add_constraint(std::move(coeffs), Relation::kGreaterEq,
                       lp.weights[static_cast<std::size_t>(i)] * t_floor - kTol);
    }
  }
  return q;
}

bool Refinement::run(const detail::SkippedHeadroomFn& on_skip, std::vector<double>& x) {
  const int n = static_cast<int>(lp.weights.size());
  int free_count = n;
  // Per level: the largest x_i among the witness points, and the measured
  // headroom of each free variable (NaN when its test was skipped).
  std::vector<double> witness(static_cast<std::size_t>(n));
  std::vector<double> headroom(static_cast<std::size_t>(n));
  constexpr double kUnmeasured = std::numeric_limits<double>::quiet_NaN();
  while (free_count > 0) {
    // Maximize the minimum weighted share t among free variables.
    LpProblem q = problem(/*with_t=*/true, 0.0);
    q.set_objective(n, 1.0);
    LpSolution st = solve_lp(q);
    if (st.status != LpStatus::kOptimal) {
      ++failures;
      return false;
    }
    const double t_star = st.x[static_cast<std::size_t>(n)];
    std::copy_n(st.x.begin(), n, witness.begin());

    // The level's headroom LP, rebuilt only after a fix changes the face.
    // Its objective is x_i while variable i is tested, zero otherwise.
    std::optional<LpProblem> face;
    auto headroom_lp = [&](int i) -> LpProblem& {
      if (!face) face.emplace(problem(/*with_t=*/false, t_star));
      face->set_objective(i, 1.0);
      return *face;
    };
    auto measure = [&](int i) {
      const LpSolution si = solve_lp(headroom_lp(i));
      face->set_objective(i, 0.0);
      if (si.status != LpStatus::kOptimal) {
        ++failures;
        return 0.0;
      }
      for (int j = 0; j < n; ++j)
        witness[static_cast<std::size_t>(j)] =
            std::max(witness[static_cast<std::size_t>(j)], si.x[static_cast<std::size_t>(j)]);
      return si.objective - lp.weights[static_cast<std::size_t>(i)] * t_star;
    };
    auto fix = [&](int i) {
      fixed[static_cast<std::size_t>(i)] = true;
      fixed_value[static_cast<std::size_t>(i)] = lp.weights[static_cast<std::size_t>(i)] * t_star;
      --free_count;
      face.reset();
    };

    // Fix every free variable that cannot rise above w_i * t_star.
    int newly_fixed = 0;
    for (int i = 0; i < n; ++i) {
      if (fixed[static_cast<std::size_t>(i)]) continue;
      const double target = lp.weights[static_cast<std::size_t>(i)] * t_star;
      if (witness[static_cast<std::size_t>(i)] - target > 100 * kTol) {
        headroom[static_cast<std::size_t>(i)] = kUnmeasured;
        if (on_skip) {
          on_skip(headroom_lp(i), i, target);
          face->set_objective(i, 0.0);
        }
        continue;
      }
      headroom[static_cast<std::size_t>(i)] = measure(i);
      if (headroom[static_cast<std::size_t>(i)] <= 10 * kTol) {
        fix(i);
        ++newly_fixed;
      }
    }
    if (newly_fixed == 0) {
      // Numerical guard: force progress by fixing the tightest variable.
      // Nothing was fixed, so the face is unchanged and the skipped tests
      // can be measured now.
      int argmin = -1;
      double argmin_head = std::numeric_limits<double>::infinity();
      for (int i = 0; i < n; ++i) {
        if (fixed[static_cast<std::size_t>(i)]) continue;
        double& h = headroom[static_cast<std::size_t>(i)];
        if (std::isnan(h)) h = measure(i);
        if (h < argmin_head) {
          argmin_head = h;
          argmin = i;
        }
      }
      E2EFA_ASSERT(argmin >= 0);
      fix(argmin);
    }
    x = st.x;
    x.resize(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

namespace detail {

LpProblem base_problem(const ShareLp& lp, double scale, bool with_t) {
  const int n = static_cast<int>(lp.weights.size());
  const int nv = n + (with_t ? 1 : 0);
  LpProblem p(nv);
  for (int i = 0; i < n; ++i)
    p.set_lower_bound(i, lp.lower_bounds[static_cast<std::size_t>(i)] * scale);
  for (const auto& row : lp.capacity_rows) {
    E2EFA_ASSERT(static_cast<int>(row.size()) == n);
    std::vector<double> coeffs(static_cast<std::size_t>(nv), 0.0);
    std::copy(row.begin(), row.end(), coeffs.begin());
    p.add_constraint(std::move(coeffs), Relation::kLessEq, 1.0);
  }
  // Caps, at most the full channel; keeps every pass bounded.
  for (int i = 0; i < n; ++i) {
    std::vector<double> coeffs(static_cast<std::size_t>(nv), 0.0);
    coeffs[static_cast<std::size_t>(i)] = 1.0;
    p.add_constraint(std::move(coeffs), Relation::kLessEq,
                     upper_bound(lp, static_cast<std::size_t>(i)));
  }
  return p;
}

bool floors_fit_at_scale(const ShareLp& lp, double scale) {
  const std::size_t n = lp.lower_bounds.size();
  // The tableau's shifted rhs b = 1 − Σ c·lb, subtracted in column order;
  // a row with b < 0 gets an artificial of value −b, summed in row order.
  double artificial_sum = 0.0;
  for (const auto& row : lp.capacity_rows) {
    double b = 1.0;
    for (std::size_t i = 0; i < n; ++i) b -= row[i] * (lp.lower_bounds[i] * scale);
    if (b < 0) artificial_sum += -b;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double b = upper_bound(lp, i) - lp.lower_bounds[i] * scale;
    if (b < 0) artificial_sum += -b;
  }
  return !(artificial_sum > kSimplexEpsilon);
}

ShareLpResult solve_share_lp(const ShareLp& lp, const SkippedHeadroomFn& on_skip) {
  check_share_lp(lp);
  const int n = static_cast<int>(lp.weights.size());

  ShareLpResult out;

  // Relax the lower bounds if they are jointly infeasible (possible in the
  // distributed algorithm where a node over-estimates local basic shares).
  // At scale 0 every row has slack 1, so lo stays feasible throughout.
  double scale = 1.0;
  if (!floors_fit_at_scale(lp, 1.0)) {
    double lo = 0.0, hi = 1.0;
    for (int it = 0; it < 50; ++it) {
      const double mid = 0.5 * (lo + hi);
      (floors_fit_at_scale(lp, mid) ? lo : hi) = mid;
    }
    scale = lo;
  }
  out.min_relaxation = scale;

  // Pass 1: maximize total share.
  LpProblem p = base_problem(lp, scale, /*with_t=*/false);
  for (int i = 0; i < n; ++i) p.set_objective(i, 1.0);
  LpSolution best = solve_lp(p);
  if (best.status != LpStatus::kOptimal) {
    out.status = best.status;
    return out;
  }

  // Balanced refinement on the optimal face; a failed level keeps the
  // previous level's point (tolerances).
  Refinement refinement{lp, scale, best.objective};
  std::vector<double> x = best.x;
  refinement.run(on_skip, x);
  out.refine_failures = refinement.failures;

  // Final re-solve with all fixes applied for a clean vertex.
  {
    LpProblem q = refinement.problem(/*with_t=*/false, 0.0);
    for (int i = 0; i < n; ++i) q.set_objective(i, 1.0);
    LpSolution sf = solve_lp(q);
    if (sf.status == LpStatus::kOptimal) {
      x = sf.x;
      x.resize(static_cast<std::size_t>(n));
    } else {
      ++out.refine_failures;
    }
  }

  out.status = LpStatus::kOptimal;
  out.shares = std::move(x);
  out.total = 0.0;
  for (double v : out.shares) out.total += v;
  return out;
}

}  // namespace detail

ShareLpResult solve_share_lp(const ShareLp& lp) { return detail::solve_share_lp(lp, {}); }

ShareLpResult solve_maxmin_lp(const ShareLp& lp) {
  check_share_lp(lp);
  Refinement refinement{lp, 1.0, std::nullopt};
  std::vector<double> x;
  E2EFA_ASSERT_MSG(refinement.run({}, x), "max-min level LP failed");
  ShareLpResult out;
  out.status = LpStatus::kOptimal;
  out.shares = std::move(refinement.fixed_value);
  for (double v : out.shares) out.total += v;
  out.refine_failures = refinement.failures;
  return out;
}

ShareLp graph_share_lp(const ContentionGraph& g, Granularity granularity,
                       const std::vector<std::vector<int>>* cliques) {
  const FlowSet& flows = g.flows();
  const bool per_flow = granularity == Granularity::kFlow;
  const int n = per_flow ? flows.flow_count() : flows.subflow_count();
  ShareLp lp;
  lp.lower_bounds.assign(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i)
    lp.weights.push_back(per_flow ? flows.flow(i).weight : flows.subflow(i).weight);
  std::vector<std::vector<int>> local;
  if (cliques == nullptr) {
    local = maximal_cliques(g);
    cliques = &local;
  }
  std::set<std::vector<int>> rows;
  for (const auto& clique : *cliques) {
    std::vector<int> row(static_cast<std::size_t>(n), 0);
    for (int v : clique) ++row[static_cast<std::size_t>(per_flow ? flows.subflow(v).flow : v)];
    rows.insert(std::move(row));
  }
  for (const auto& row : rows) lp.capacity_rows.emplace_back(row.begin(), row.end());
  return lp;
}

}  // namespace e2efa
