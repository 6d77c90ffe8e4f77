#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace e2efa {

const char* to_string(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

namespace {

/// Dense tableau with Bland's rule, stored row-major in one contiguous
/// array. Columns: [structural | slack/surplus | artificial | rhs]. The
/// objective row stores negated reduced costs; a column enters while its
/// entry is < -eps.
class Tableau {
 public:
  Tableau(const LpProblem& p, const SimplexOptions& opt) : opt_(opt) {
    const int n = p.num_vars();
    const auto& lb = p.lower_bounds();
    for (double b : lb) E2EFA_ASSERT_MSG(std::isfinite(b), "lower bound must be finite");

    // Shift x = lb + y so y >= 0; record the objective constant.
    obj_shift_ = 0.0;
    for (int i = 0; i < n; ++i) obj_shift_ += p.objective()[i] * lb[i];

    // Shifted right-hand sides, normalized to be nonnegative: a row with a
    // negative rhs is negated and its relation flipped.
    struct Row {
      Relation rel;
      double b;
      bool negated;
    };
    const auto& cons = p.constraints();
    std::vector<Row> rows;
    rows.reserve(cons.size());
    int n_slack = 0, n_art = 0;
    for (const auto& c : cons) {
      E2EFA_ASSERT_MSG(static_cast<int>(c.coeffs.size()) == n, "constraint arity mismatch");
      Row r{c.rel, c.rhs, false};
      for (int i = 0; i < n; ++i) r.b -= c.coeffs[i] * lb[i];
      if (r.b < 0) {
        r.b = -r.b;
        r.negated = true;
        r.rel = r.rel == Relation::kLessEq    ? Relation::kGreaterEq
                : r.rel == Relation::kGreaterEq ? Relation::kLessEq
                                                : Relation::kEqual;
      }
      if (r.rel != Relation::kEqual) ++n_slack;
      if (r.rel != Relation::kLessEq) ++n_art;
      rows.push_back(r);
    }

    m_ = static_cast<int>(rows.size());
    n_struct_ = n;
    n_slack_ = n_slack;
    n_art_ = n_art;
    cols_ = n_struct_ + n_slack_ + n_art_ + 1;  // + rhs
    t_.assign(static_cast<std::size_t>(m_ + 1) * static_cast<std::size_t>(cols_), 0.0);
    basis_.assign(static_cast<std::size_t>(m_), -1);

    int slack_at = n_struct_;
    int art_at = n_struct_ + n_slack_;
    for (int i = 0; i < m_; ++i) {
      const Row& r = rows[static_cast<std::size_t>(i)];
      const auto& a = cons[static_cast<std::size_t>(i)].coeffs;
      double* row = row_at(i);
      for (int j = 0; j < n_struct_; ++j) row[j] = r.negated ? -a[static_cast<std::size_t>(j)] : a[static_cast<std::size_t>(j)];
      row[cols_ - 1] = r.b;
      switch (r.rel) {
        case Relation::kLessEq:
          row[slack_at] = 1.0;
          basis_[static_cast<std::size_t>(i)] = slack_at++;
          break;
        case Relation::kGreaterEq:
          row[slack_at] = -1.0;
          ++slack_at;
          row[art_at] = 1.0;
          basis_[static_cast<std::size_t>(i)] = art_at++;
          break;
        case Relation::kEqual:
          row[art_at] = 1.0;
          basis_[static_cast<std::size_t>(i)] = art_at++;
          break;
      }
    }
  }

  /// Runs both phases. Returns the status; fills x/objective on optimal.
  LpStatus solve(const LpProblem& p, LpSolution& out) {
    double* obj = row_at(m_);
    // ---- Phase 1: minimize the sum of artificials. ----
    if (n_art_ > 0) {
      std::fill(obj, obj + cols_, 0.0);
      for (int j = art_begin(); j < art_end(); ++j) obj[j] = 1.0;
      // Zero out reduced costs of the (artificial) basis.
      for (int i = 0; i < m_; ++i) {
        if (is_artificial(basis_[static_cast<std::size_t>(i)])) subtract_row(m_, i, 1.0);
      }
      const LpStatus s = pivot_loop(out);
      if (s != LpStatus::kOptimal) return s;  // iteration limit (phase 1 can't be unbounded)
      const double art_sum = -obj[cols_ - 1];
      if (art_sum > kSimplexEpsilon) return LpStatus::kInfeasible;
      drive_out_artificials();
    }

    // ---- Phase 2: maximize the real objective. ----
    std::fill(obj, obj + cols_, 0.0);
    for (int j = 0; j < n_struct_; ++j) obj[j] = -p.objective()[static_cast<std::size_t>(j)];
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (b >= 0 && std::abs(obj[b]) > 0.0) subtract_row(m_, i, obj[b]);
    }
    const LpStatus s = pivot_loop(out);
    if (s != LpStatus::kOptimal) return s;

    out.x.assign(static_cast<std::size_t>(n_struct_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (b >= 0 && b < n_struct_) out.x[static_cast<std::size_t>(b)] = row_at(i)[cols_ - 1];
    }
    // Undo the lower-bound shift.
    for (int j = 0; j < n_struct_; ++j) out.x[static_cast<std::size_t>(j)] += p.lower_bounds()[static_cast<std::size_t>(j)];
    out.objective = obj[cols_ - 1] + obj_shift_;
    return LpStatus::kOptimal;
  }

 private:
  int art_begin() const { return n_struct_ + n_slack_; }
  int art_end() const { return n_struct_ + n_slack_ + n_art_; }
  bool is_artificial(int col) const { return col >= art_begin() && col < art_end(); }

  double* row_at(int i) { return t_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_); }
  double at(int i, int j) const { return t_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) + static_cast<std::size_t>(j)]; }

  /// row[target] -= factor * row[src]
  void subtract_row(int target, int src, double factor) {
    double* tr = row_at(target);
    const double* sr = row_at(src);
    for (int j = 0; j < cols_; ++j) tr[j] -= factor * sr[j];
  }

  /// Eliminates `col` from every other row. Only the pivot row's nonzero
  /// columns are touched: subtracting f·0 leaves an entry's value as is.
  void pivot(int row, int col) {
    double* pr = row_at(row);
    const double pv = pr[col];
    for (int j = 0; j < cols_; ++j) pr[j] /= pv;
    nonzero_.clear();
    for (int j = 0; j < cols_; ++j)
      if (pr[j] != 0.0) nonzero_.push_back(j);
    for (int i = 0; i <= m_; ++i) {
      if (i == row) continue;
      double* r = row_at(i);
      const double f = r[col];
      if (std::abs(f) > 0.0)
        for (int j : nonzero_) r[j] -= f * pr[j];
    }
    basis_[static_cast<std::size_t>(row)] = col;
  }

  /// In phase 2, artificial columns must not re-enter the basis.
  bool column_blocked(int col) const { return phase2_block_artificials_ && is_artificial(col); }

  LpStatus pivot_loop(LpSolution& out) {
    const double* obj = row_at(m_);
    for (;;) {
      if (out.iterations >= opt_.max_iterations) return LpStatus::kIterationLimit;
      // Bland's rule: entering column = smallest index with negative cost.
      int enter = -1;
      for (int j = 0; j < cols_ - 1; ++j) {
        if (column_blocked(j)) continue;
        if (obj[j] < -kSimplexEpsilon) {
          enter = j;
          break;
        }
      }
      if (enter == -1) return LpStatus::kOptimal;

      // Ratio test; ties broken by smallest basis index (Bland).
      int leave = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (int i = 0; i < m_; ++i) {
        const double a = at(i, enter);
        if (a > kSimplexEpsilon) {
          const double ratio = at(i, cols_ - 1) / a;
          if (ratio < best_ratio - kSimplexEpsilon ||
              (ratio < best_ratio + kSimplexEpsilon &&
               (leave == -1 || basis_[static_cast<std::size_t>(i)] < basis_[static_cast<std::size_t>(leave)]))) {
            best_ratio = ratio;
            leave = i;
          }
        }
      }
      if (leave == -1) return LpStatus::kUnbounded;
      pivot(leave, enter);
      ++out.iterations;
    }
  }

  /// After phase 1, swap any artificial still in the basis for a structural
  /// or slack column; rows where no such column exists are redundant (all
  /// zero) and are left with the artificial basic at value zero, but the
  /// artificial columns are blocked from re-entering in phase 2.
  void drive_out_artificials() {
    for (int i = 0; i < m_; ++i) {
      if (!is_artificial(basis_[static_cast<std::size_t>(i)])) continue;
      int col = -1;
      for (int j = 0; j < art_begin(); ++j) {
        if (std::abs(at(i, j)) > kSimplexEpsilon) {
          col = j;
          break;
        }
      }
      if (col >= 0) pivot(i, col);
    }
    phase2_block_artificials_ = true;
  }

  SimplexOptions opt_;
  int m_ = 0;         ///< Constraint rows.
  int n_struct_ = 0;  ///< Structural (user) variables.
  int n_slack_ = 0;
  int n_art_ = 0;
  int cols_ = 0;  ///< Total columns incl. rhs.
  double obj_shift_ = 0.0;
  std::vector<double> t_;  ///< (m_+1) x cols_, row-major (last row = objective).
  std::vector<int> nonzero_;  ///< The pivot row's nonzero columns (reused buffer).
  std::vector<int> basis_;
  bool phase2_block_artificials_ = false;
};

}  // namespace

LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options) {
  LpSolution out;
  Tableau tab(problem, options);
  out.status = tab.solve(problem, out);
  return out;
}

}  // namespace e2efa
