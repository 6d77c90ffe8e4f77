#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace e2efa {
namespace {

constexpr double kTol = 1e-7;

// The worked problems below, one builder each, so LpFace.MaximizeMatchesSolveLp
// can run over all of them.

LpProblem simple_two_var() {
  LpProblem p(2);
  p.set_objective({3, 2});
  p.add_constraint({1, 1}, Relation::kLessEq, 4);
  p.add_constraint({1, 3}, Relation::kLessEq, 6);
  return p;
}

LpProblem interior_optimum_vertex() {
  LpProblem p(2);
  p.set_objective({1, 1});
  p.add_constraint({2, 1}, Relation::kLessEq, 4);
  p.add_constraint({1, 2}, Relation::kLessEq, 4);
  return p;
}

LpProblem greater_equal_constraints() {
  LpProblem p(1);
  p.set_objective({-1});
  p.add_constraint({1}, Relation::kGreaterEq, 3);
  return p;
}

LpProblem equality_constraint() {
  LpProblem p(2);
  p.set_objective({1, 2});
  p.add_constraint({1, 1}, Relation::kEqual, 5);
  p.add_constraint({1, 0}, Relation::kLessEq, 3);
  return p;
}

LpProblem infeasible() {
  LpProblem p(1);
  p.set_objective({1});
  p.add_constraint({1}, Relation::kLessEq, 1);
  p.add_constraint({1}, Relation::kGreaterEq, 2);
  return p;
}

LpProblem infeasible_equality() {
  LpProblem p(2);
  p.add_constraint({1, 1}, Relation::kEqual, 2);
  p.add_constraint({1, 1}, Relation::kEqual, 3);
  return p;
}

LpProblem unbounded() {
  LpProblem p(1);
  p.set_objective({1});
  p.add_constraint({-1}, Relation::kLessEq, 1);  // -x <= 1, x unbounded above
  return p;
}

LpProblem lower_bounds_shift() {
  LpProblem p(2);
  p.set_objective({-1, -1});
  p.set_lower_bound(0, 1.5);
  p.set_lower_bound(1, 1.0);
  p.add_constraint({1, 1}, Relation::kGreaterEq, 4);
  return p;
}

LpProblem lower_bounds_make_infeasible() {
  LpProblem p(2);
  p.set_lower_bound(0, 2.0);
  p.set_lower_bound(1, 2.0);
  p.add_constraint({1, 1}, Relation::kLessEq, 3.0);
  return p;
}

LpProblem negative_rhs_normalization() {
  LpProblem p(1);
  p.set_objective({1});
  p.add_constraint({-1}, Relation::kLessEq, -2);
  p.add_constraint({1}, Relation::kLessEq, 5);
  return p;
}

LpProblem beale_degenerate() {
  LpProblem p(4);
  p.set_objective({0.75, -150, 0.02, -6});
  p.add_constraint({0.25, -60, -0.04, 9}, Relation::kLessEq, 0);
  p.add_constraint({0.5, -90, -0.02, 3}, Relation::kLessEq, 0);
  p.add_constraint({0, 0, 1, 0}, Relation::kLessEq, 1);
  return p;
}

LpProblem paper_fig1_lp() {
  LpProblem p(2);
  p.set_objective({1, 1});
  p.set_lower_bound(0, 0.25);
  p.set_lower_bound(1, 0.25);
  p.add_constraint({2, 0}, Relation::kLessEq, 1);
  p.add_constraint({1, 2}, Relation::kLessEq, 1);
  return p;
}

LpProblem redundant_equality_rows() {
  LpProblem p(2);
  p.set_objective({1, 0});
  p.add_constraint({1, 1}, Relation::kEqual, 2);
  p.add_constraint({1, 1}, Relation::kEqual, 2);
  p.add_constraint({1, 0}, Relation::kLessEq, 1.5);
  return p;
}

LpProblem objective_with_lower_bound_shift() {
  LpProblem p(1);
  p.set_objective({2});
  p.set_lower_bound(0, 3);
  p.add_constraint({1}, Relation::kLessEq, 5);
  return p;
}

LpProblem chain_windows() {
  const int n = 10;
  LpProblem p(n);
  for (int i = 0; i < n; ++i) {
    p.set_objective(i, 1.0);
    p.set_lower_bound(i, 0.02);
  }
  for (int i = 0; i + 2 < n; ++i) {
    std::vector<double> row(n, 0.0);
    row[i] = row[i + 1] = row[i + 2] = 1.0;
    p.add_constraint(std::move(row), Relation::kLessEq, 1.0);
  }
  return p;
}

TEST(Simplex, SimpleTwoVar) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12? No:
  // vertices: (4,0)->12, (3,1)->11, (0,2)->4. Optimum (4,0) = 12.
  const auto s = solve_lp(simple_two_var());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, kTol);
  EXPECT_NEAR(s.x[0], 4.0, kTol);
  EXPECT_NEAR(s.x[1], 0.0, kTol);
}

TEST(Simplex, InteriorOptimumVertex) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> (4/3, 4/3), obj 8/3.
  const auto s = solve_lp(interior_optimum_vertex());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0 / 3.0, kTol);
  EXPECT_NEAR(s.x[0], 4.0 / 3.0, kTol);
  EXPECT_NEAR(s.x[1], 4.0 / 3.0, kTol);
}

TEST(Simplex, GreaterEqualConstraints) {
  // max -x s.t. x >= 3  -> x = 3.
  const auto s = solve_lp(greater_equal_constraints());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, kTol);
  EXPECT_NEAR(s.objective, -3.0, kTol);
}

TEST(Simplex, EqualityConstraint) {
  // max x + 2y s.t. x + y == 5, x <= 3 -> x=0? max: y=5, x=0 -> 10.
  const auto s = solve_lp(equality_constraint());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, kTol);
  EXPECT_NEAR(s.x[1], 5.0, kTol);
}

TEST(Simplex, Infeasible) {
  EXPECT_EQ(solve_lp(infeasible()).status, LpStatus::kInfeasible);
}

TEST(Simplex, InfeasibleEquality) {
  EXPECT_EQ(solve_lp(infeasible_equality()).status, LpStatus::kInfeasible);
}

TEST(Simplex, Unbounded) {
  EXPECT_EQ(solve_lp(unbounded()).status, LpStatus::kUnbounded);
}

TEST(Simplex, LowerBoundsShift) {
  // max -x - y s.t. x + y >= 4, x >= 1.5, y >= 1 -> touches x+y = 4.
  const auto s = solve_lp(lower_bounds_shift());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0] + s.x[1], 4.0, kTol);
  EXPECT_GE(s.x[0], 1.5 - kTol);
  EXPECT_GE(s.x[1], 1.0 - kTol);
}

TEST(Simplex, LowerBoundsMakeInfeasible) {
  EXPECT_EQ(solve_lp(lower_bounds_make_infeasible()).status, LpStatus::kInfeasible);
}

TEST(Simplex, NegativeRhsNormalization) {
  // max x s.t. -x <= -2 (i.e. x >= 2), x <= 5.
  const auto s = solve_lp(negative_rhs_normalization());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, kTol);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate cycling candidate (Beale); Bland's rule must finish.
  const auto s = solve_lp(beale_degenerate());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.05, 1e-6);
}

TEST(Simplex, PaperFig1Lp) {
  // maximize r1 + r2 s.t. 2r1 <= 1, r1 + 2r2 <= 1, r1 >= 1/4, r2 >= 1/4
  // -> (1/2, 1/4), objective 3/4 (Sec. III-B worked example).
  const auto s = solve_lp(paper_fig1_lp());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 0.5, kTol);
  EXPECT_NEAR(s.x[1], 0.25, kTol);
  EXPECT_NEAR(s.objective, 0.75, kTol);
}

TEST(Simplex, RedundantEqualityRows) {
  // Duplicate equality rows leave a redundant artificial; solver must cope.
  const auto s = solve_lp(redundant_equality_rows());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 1.5, kTol);
  EXPECT_NEAR(s.x[1], 0.5, kTol);
}

TEST(Simplex, IterationLimitReported) {
  LpProblem p(2);
  p.set_objective({1, 1});
  p.add_constraint({1, 1}, Relation::kLessEq, 1);
  SimplexOptions opt;
  opt.max_iterations = 0;
  EXPECT_EQ(solve_lp(p, opt).status, LpStatus::kIterationLimit);
}

TEST(Simplex, ObjectiveWithLowerBoundShiftAccounted) {
  // max 2x s.t. x <= 5, x >= 3 -> obj 10 (not 4): shift must be undone.
  const auto s = solve_lp(objective_with_lower_bound_shift());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, kTol);
  EXPECT_NEAR(s.x[0], 5.0, kTol);
}

TEST(LpProblem, ValidatesInput) {
  EXPECT_THROW(LpProblem(0), ContractViolation);
  LpProblem p(2);
  EXPECT_THROW(p.set_objective(2, 1.0), ContractViolation);
  EXPECT_THROW(p.add_constraint({1.0}, Relation::kLessEq, 0), ContractViolation);
  EXPECT_THROW(p.set_lower_bound(-1, 0.0), ContractViolation);
}

TEST(LpProblem, AddWeightedLe) {
  LpProblem p(3);
  p.add_weighted_le({{0, 2.0}, {2, 1.0}, {0, 1.0}}, 5.0);
  ASSERT_EQ(p.constraints().size(), 1u);
  EXPECT_EQ(p.constraints()[0].coeffs, (std::vector<double>{3, 0, 1}));
}

TEST(Simplex, LargerRandomishProblemSolves) {
  // 10 variables, chain-style overlapping rows (allocation-LP shaped).
  const int n = 10;
  const auto s = solve_lp(chain_windows());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  // Feasibility of the returned point.
  for (int i = 0; i + 2 < n; ++i)
    EXPECT_LE(s.x[i] + s.x[i + 1] + s.x[i + 2], 1.0 + kTol);
  for (int i = 0; i < n; ++i) EXPECT_GE(s.x[i], 0.02 - kTol);
  // Optimal total for triple-window rows is ceil(n/3) windows -> 4·1? The
  // exact optimum: place mass on vars 0,3,6,9 -> 4 minus epsilon for mins.
  EXPECT_NEAR(s.objective, 4.0 - 0.0, 0.2);
}


/// A random LP over 1-6 variables: 0-7 rows mixing <=, >= and ==, with
/// small integer coefficients and right-hand sides, sometimes a repeated
/// equality row (a redundant artificial), and lower bounds in quarters
/// that may be negative. Many are infeasible or unbounded.
LpProblem random_lp(Rng& rng) {
  const int n = static_cast<int>(rng.uniform_i64(1, 6));
  LpProblem p(n);
  for (int i = 0; i < n; ++i) {
    p.set_objective(i, static_cast<double>(rng.uniform_i64(-3, 3)));
    if (rng.bernoulli(0.5))
      p.set_lower_bound(i, static_cast<double>(rng.uniform_i64(-4, 8)) / 4.0);
  }
  const int rows = static_cast<int>(rng.uniform_i64(0, 7));
  for (int k = 0; k < rows; ++k) {
    if (k > 0 && rng.bernoulli(0.1)) {
      const LpConstraint& prev = p.constraints().back();
      p.add_constraint(prev.coeffs, Relation::kEqual, prev.rhs);
      continue;
    }
    std::vector<double> coeffs(static_cast<std::size_t>(n), 0.0);
    for (double& c : coeffs)
      if (rng.bernoulli(0.7)) c = static_cast<double>(rng.uniform_i64(-3, 3));
    const auto rel = static_cast<Relation>(rng.uniform_i64(0, 2));
    p.add_constraint(std::move(coeffs), rel, static_cast<double>(rng.uniform_i64(-4, 8)));
  }
  return p;
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// FNV-1a over everything solve_lp reports: status, pivots, objective and
/// x, all as bit patterns.
void digest(std::uint64_t& h, const LpSolution& s) {
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<std::uint64_t>(s.status));
  mix(static_cast<std::uint64_t>(s.iterations));
  mix(bits(s.objective));
  mix(s.x.size());
  for (double v : s.x) mix(bits(v));
}

TEST(LpFace, MaximizeMatchesSolveLp) {
  // One face per problem, maximized for every unit objective e_i in turn,
  // then the problem's own objective and e_0 again: each answer must be
  // bit-for-bit solve_lp's on the problem with that objective, so every
  // maximize starts from an intact phase-1 tableau. The digest of the
  // solve_lp answers pins every pivot: it was recorded from the solver
  // before LpFace existed.
  std::vector<std::pair<LpProblem, SimplexOptions>> cases;
  for (LpProblem p : {simple_two_var(), interior_optimum_vertex(), greater_equal_constraints(),
                      equality_constraint(), infeasible(), infeasible_equality(), unbounded(),
                      lower_bounds_shift(), lower_bounds_make_infeasible(),
                      negative_rhs_normalization(), beale_degenerate(), paper_fig1_lp(),
                      redundant_equality_rows(), objective_with_lower_bound_shift(),
                      chain_windows()})
    cases.emplace_back(std::move(p), SimplexOptions{});
  Rng rng(2005);
  for (int k = 0; k < 400; ++k) {
    SimplexOptions opt;  // every tenth LP stops after 0-3 pivots, in either phase
    if (k % 10 == 9) opt.max_iterations = static_cast<int>(rng.uniform_i64(0, 3));
    cases.emplace_back(random_lp(rng), opt);
  }

  std::uint64_t h = 1469598103934665603ULL;
  int counts[4] = {};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& [p, opt] = cases[c];
    const int n = p.num_vars();
    std::vector<std::vector<double>> objectives;
    for (int i = 0; i < n; ++i) {
      objectives.emplace_back(static_cast<std::size_t>(n), 0.0);
      objectives.back()[static_cast<std::size_t>(i)] = 1.0;
    }
    objectives.push_back(p.objective());
    objectives.push_back(objectives.front());
    LpFace face(p, opt);
    for (const auto& objective : objectives) {
      LpProblem q = p;
      q.set_objective(objective);
      const LpSolution want = solve_lp(q, opt);
      const LpSolution got = face.maximize(objective);
      SCOPED_TRACE("case " + std::to_string(c));
      ASSERT_EQ(got.status, want.status);
      EXPECT_EQ(got.iterations, want.iterations);
      EXPECT_EQ(bits(got.objective), bits(want.objective));
      ASSERT_EQ(got.x.size(), want.x.size());
      for (std::size_t i = 0; i < want.x.size(); ++i) EXPECT_EQ(bits(got.x[i]), bits(want.x[i]));
      digest(h, want);
      ++counts[static_cast<int>(want.status)];
    }
  }
  // Every outcome is exercised.
  for (int s = 0; s < 4; ++s) EXPECT_GT(counts[s], 0) << to_string(static_cast<LpStatus>(s));
  EXPECT_EQ(h, 0x1a5f7373ef7bbb1aULL) << std::hex << h;
}

}  // namespace
}  // namespace e2efa
