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

// The tableau stores negated reduced costs in its objective row; a column
// enters while its entry is < -eps. Its columns are laid out
// [structural | slack/surplus | rhs | artificial] so that, once phase 1
// ends, every live column is a prefix of the row; Bland's rule still scans
// them in the order structural, slack, artificial.
void LpFace::load(const LpProblem& p) {
  const int n = p.num_vars();
  lower_ = p.lower_bounds();
  for (double b : lower_) E2EFA_ASSERT_MSG(std::isfinite(b), "lower bound must be finite");
  const auto& cons = p.constraints();
  m_ = static_cast<int>(cons.size());
  n_struct_ = n;

  // Shift x = lb + y so y >= 0: b = rhs − a·lb. A row with b < 0 is
  // negated and its relation flipped, so every rhs is nonnegative.
  auto normalized = [](Relation rel, bool negated) {
    if (!negated) return rel;
    return rel == Relation::kLessEq    ? Relation::kGreaterEq
           : rel == Relation::kGreaterEq ? Relation::kLessEq
                                         : Relation::kEqual;
  };
  std::vector<double>& b = shifted_rhs_;
  b.resize(static_cast<std::size_t>(m_));
  int n_slack = 0, n_art = 0;
  for (int k = 0; k < m_; ++k) {
    const LpConstraint& c = cons[static_cast<std::size_t>(k)];
    E2EFA_ASSERT_MSG(static_cast<int>(c.coeffs.size()) == n, "constraint arity mismatch");
    double bk = c.rhs;
    for (int i = 0; i < n; ++i)
      bk -= c.coeffs[static_cast<std::size_t>(i)] * lower_[static_cast<std::size_t>(i)];
    b[static_cast<std::size_t>(k)] = bk;
    const Relation rel = normalized(c.rel, bk < 0);
    if (rel != Relation::kEqual) ++n_slack;
    if (rel != Relation::kLessEq) ++n_art;
  }

  rhs_ = n + n_slack;
  cols_ = rhs_ + 1 + n_art;
  t_.assign(static_cast<std::size_t>(m_ + 1) * static_cast<std::size_t>(cols_), 0.0);
  basis_.assign(static_cast<std::size_t>(m_), -1);
  nz_cols_.resize(static_cast<std::size_t>(cols_));
  hit_rows_.resize(static_cast<std::size_t>(m_ + 1));
  int slack_at = n;
  int art_at = rhs_ + 1;
  for (int k = 0; k < m_; ++k) {
    const auto& a = cons[static_cast<std::size_t>(k)].coeffs;
    const double bk = b[static_cast<std::size_t>(k)];
    const bool negated = bk < 0;
    double* row = row_at(k);
    for (int j = 0; j < n; ++j)
      row[j] = negated ? -a[static_cast<std::size_t>(j)] : a[static_cast<std::size_t>(j)];
    row[rhs_] = negated ? -bk : bk;
    switch (normalized(cons[static_cast<std::size_t>(k)].rel, negated)) {
      case Relation::kLessEq:
        row[slack_at] = 1.0;
        basis_[static_cast<std::size_t>(k)] = slack_at++;
        break;
      case Relation::kGreaterEq:
        row[slack_at++] = -1.0;
        row[art_at] = 1.0;
        basis_[static_cast<std::size_t>(k)] = art_at++;
        break;
      case Relation::kEqual:
        row[art_at] = 1.0;
        basis_[static_cast<std::size_t>(k)] = art_at++;
        break;
    }
  }

  // ---- Phase 1: minimize the sum of artificials. ----
  artificials_dead_ = false;
  logging_ = false;
  logged_.assign(static_cast<std::size_t>(m_), 0);
  log_rows_.clear();
  log_data_.clear();
  phase1_kept_ = true;
  phase1_iterations_ = 0;
  phase1_status_ = LpStatus::kOptimal;
  if (n_art > 0) {
    double* obj = row_at(m_);
    for (int j = rhs_ + 1; j < cols_; ++j) obj[j] = 1.0;
    // Zero out reduced costs of the (artificial) basis.
    for (int i = 0; i < m_; ++i)
      if (is_artificial(basis_[static_cast<std::size_t>(i)])) subtract_row(m_, i, 1.0);
    const LpStatus s = pivot_loop(phase1_iterations_);
    if (s != LpStatus::kOptimal) {  // iteration limit (phase 1 can't be unbounded)
      phase1_status_ = s;
      return;
    }
    const double art_sum = -obj[rhs_];
    if (art_sum > kSimplexEpsilon) {
      phase1_status_ = LpStatus::kInfeasible;
      return;
    }
    drive_out_artificials();
  }
  phase1_basis_ = basis_;
}

LpSolution LpFace::phase2(const std::vector<double>& objective, bool log) {
  E2EFA_ASSERT_MSG(phase1_kept_, "maximize() needs a load(), and a new one after an expiring face's");
  phase1_kept_ = log;
  E2EFA_ASSERT(static_cast<int>(objective.size()) == n_struct_);
  LpSolution out;
  out.iterations = phase1_iterations_;
  if (phase1_status_ != LpStatus::kOptimal) {
    out.status = phase1_status_;
    return out;
  }
  restore_phase1();

  // ---- Phase 2: maximize the real objective. ----
  double obj_shift = 0.0;  // c·lb, undone from the shifted optimum below
  for (int i = 0; i < n_struct_; ++i)
    obj_shift += objective[static_cast<std::size_t>(i)] * lower_[static_cast<std::size_t>(i)];
  double* obj = row_at(m_);
  std::fill(obj, obj + live_cols(), 0.0);
  for (int j = 0; j < n_struct_; ++j) obj[j] = -objective[static_cast<std::size_t>(j)];
  // A basic artificial (a redundant row's) has a zero reduced cost.
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    if (!is_artificial(b) && std::abs(obj[b]) > 0.0) subtract_row(m_, i, obj[b]);
  }
  logging_ = log;
  const LpStatus s = pivot_loop(out.iterations);
  logging_ = false;
  if (s != LpStatus::kOptimal) {
    out.status = s;
    return out;
  }

  out.status = LpStatus::kOptimal;
  out.x.assign(static_cast<std::size_t>(n_struct_), 0.0);
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    if (b < n_struct_) out.x[static_cast<std::size_t>(b)] = at(i, rhs_);
  }
  // Undo the lower-bound shift.
  for (int j = 0; j < n_struct_; ++j)
    out.x[static_cast<std::size_t>(j)] += lower_[static_cast<std::size_t>(j)];
  out.objective = obj[rhs_] + obj_shift;
  return out;
}

/// row[target] -= factor * row[src] over the live columns.
void LpFace::subtract_row(int target, int src, double factor) {
  double* tr = row_at(target);
  const double* sr = row_at(src);
  const int width = live_cols();
  for (int j = 0; j < width; ++j) tr[j] -= factor * sr[j];
}

/// Eliminates `col` from every other row, touching only the pivot row's
/// nonzero columns and the rows with a nonzero in `col`: a skipped cell
/// would only have had a zero divided or subtracted. At most the sign of
/// an exact zero differs (0/pv with pv < 0), which no output sees: x adds
/// its lower bound and the objective its shift, and adding +0.0 drops the
/// sign (a lower bound of −0.0 aside).
void LpFace::pivot(int row, int col) {
  if (logging_) log_row(row);
  double* pr = row_at(row);
  const double pv = pr[col];
  const int width = live_cols();
  int nnz = 0;
  for (int j = 0; j < width; ++j) {
    if (pr[j] == 0.0) continue;
    pr[j] /= pv;
    nz_cols_[static_cast<std::size_t>(nnz)] = j;
    nnz += pr[j] != 0.0;
  }
  int hits = 0;
  for (int i = 0; i <= m_; ++i) {
    hit_rows_[static_cast<std::size_t>(hits)] = i;
    hits += static_cast<int>((i != row) & (std::abs(at(i, col)) > 0.0));
  }
  for (int h = 0; h < hits; ++h) {
    const int i = hit_rows_[static_cast<std::size_t>(h)];
    if (logging_ && i < m_) log_row(i);
    double* r = row_at(i);
    const double f = r[col];
    for (int k = 0; k < nnz; ++k) {
      const int j = nz_cols_[static_cast<std::size_t>(k)];
      r[j] -= f * pr[j];
    }
  }
  basis_[static_cast<std::size_t>(row)] = col;
}

LpStatus LpFace::pivot_loop(int& iterations) {
  const double* obj = row_at(m_);
  // Bland's rule: entering column = smallest index with negative cost;
  // artificials can enter only while phase 1 runs.
  auto first_negative = [&](int begin, int end) {
    for (int j = begin; j < end; ++j)
      if (obj[j] < -kSimplexEpsilon) return j;
    return -1;
  };
  for (;;) {
    if (iterations >= opt_.max_iterations) return LpStatus::kIterationLimit;
    int enter = first_negative(0, rhs_);
    if (enter == -1 && !artificials_dead_) enter = first_negative(rhs_ + 1, cols_);
    if (enter == -1) return LpStatus::kOptimal;

    // Ratio test; ties broken by smallest basis index (Bland).
    int leave = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m_; ++i) {
      const double a = at(i, enter);
      if (a > kSimplexEpsilon) {
        const double ratio = at(i, rhs_) / a;
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
    ++iterations;
  }
}

/// After phase 1, swap any artificial still in the basis for a structural
/// or slack column; rows where no such column exists are redundant (all
/// zero) and are left with the artificial basic at value zero. From here
/// on no artificial column can enter, so none is read or updated again.
void LpFace::drive_out_artificials() {
  artificials_dead_ = true;
  for (int i = 0; i < m_; ++i) {
    if (!is_artificial(basis_[static_cast<std::size_t>(i)])) continue;
    int col = -1;
    for (int j = 0; j < rhs_; ++j) {
      if (std::abs(at(i, j)) > kSimplexEpsilon) {
        col = j;
        break;
      }
    }
    if (col >= 0) pivot(i, col);
  }
}

void LpFace::log_row(int i) {
  if (logged_[static_cast<std::size_t>(i)]) return;
  logged_[static_cast<std::size_t>(i)] = 1;
  log_rows_.push_back(i);
  const double* r = row_at(i);
  log_data_.insert(log_data_.end(), r, r + rhs_ + 1);
}

void LpFace::restore_phase1() {
  if (log_rows_.empty()) return;  // no pivot since phase 1
  const double* saved = log_data_.data();
  for (int i : log_rows_) {
    std::copy_n(saved, rhs_ + 1, row_at(i));
    saved += rhs_ + 1;
    logged_[static_cast<std::size_t>(i)] = 0;
  }
  log_rows_.clear();
  log_data_.clear();
  basis_ = phase1_basis_;
}

LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options) {
  return LpFace(problem, options).maximize(problem.objective());
}

}  // namespace e2efa
