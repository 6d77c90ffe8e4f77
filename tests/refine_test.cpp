// The balanced refinement's two shortcuts (alloc/refine.hpp): the replayed
// relaxation feasibility test and the witness-pruned headroom tests, each
// checked against the LP it stands in for.
#include <gtest/gtest.h>

#include <vector>

#include "alloc/distributed.hpp"
#include "alloc/refine.hpp"
#include "contention/contention_graph.hpp"
#include "net/scenario_gen.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace e2efa {
namespace {

/// The refinement's fixing threshold, 10·kTol in refine.cpp.
constexpr double kFixThreshold = 1e-6;

/// A random clique-packing ShareLp: integer coefficients n_{i,k} in 0..3,
/// weights in [1, 4). With `dyadic`, the floors are multiples of 1/16 and
/// one row is c·e_i with c·lb_i == 1 exactly, so rows sitting exactly at
/// capacity (and x_i <= 1 rows with lb_i == 1) occur; otherwise the floors
/// are basic-share shaped, scaled by up to 2.5 so many need relaxing.
ShareLp random_share_lp(Rng& rng, bool dyadic) {
  const int n = static_cast<int>(rng.uniform_i64(1, 10));
  const int rows = static_cast<int>(rng.uniform_i64(1, 8));
  ShareLp lp;
  for (int i = 0; i < n; ++i) lp.weights.push_back(rng.uniform(1.0, 4.0));
  for (int k = 0; k < rows; ++k) {
    std::vector<double> row(static_cast<std::size_t>(n), 0.0);
    for (double& c : row)
      if (rng.uniform01() < 0.6) c = static_cast<double>(rng.uniform_i64(0, 3));
    row[static_cast<std::size_t>(rng.uniform_u64(static_cast<std::uint64_t>(n)))] += 1.0;
    lp.capacity_rows.push_back(std::move(row));
  }
  if (dyadic) {
    for (int i = 0; i < n; ++i)
      lp.lower_bounds.push_back(static_cast<double>(rng.uniform_i64(1, 16)) / 16.0);
    const int i = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
    const double lb = 1.0 / static_cast<double>(1 << rng.uniform_i64(0, 3));
    lp.lower_bounds[static_cast<std::size_t>(i)] = lb;
    std::vector<double> exact(static_cast<std::size_t>(n), 0.0);
    exact[static_cast<std::size_t>(i)] = 1.0 / lb;
    lp.capacity_rows.push_back(std::move(exact));
  } else {
    double denom = 0.0;
    for (double w : lp.weights) denom += w * static_cast<double>(rng.uniform_i64(1, 3));
    const double inflate = rng.uniform(0.3, 2.5);
    for (double w : lp.weights) lp.lower_bounds.push_back(inflate * w / denom);
  }
  return lp;
}

/// What the replay stands in for: solve_lp's verdict on the relaxation LP.
bool simplex_verdict(const ShareLp& lp, double scale) {
  return solve_lp(detail::base_problem(lp, scale, /*with_t=*/false)).status ==
         LpStatus::kOptimal;
}

TEST(Refine, ReplayedFeasibilityMatchesSimplexAtEveryBisectionMidpoint) {
  Rng rng(20050604);
  int relaxed = 0, exact_rows = 0;
  for (int c = 0; c < 400; ++c) {
    const ShareLp lp = random_share_lp(rng, /*dyadic=*/c % 2 == 0);
    for (const auto& row : lp.capacity_rows) {
      double load = 0.0;
      for (std::size_t i = 0; i < row.size(); ++i) load += row[i] * lp.lower_bounds[i];
      exact_rows += load == 1.0;
    }
    const bool fits = detail::floors_fit_at_scale(lp, 1.0);
    ASSERT_EQ(fits, simplex_verdict(lp, 1.0)) << "case " << c << " at scale 1";
    ASSERT_TRUE(detail::floors_fit_at_scale(lp, 0.0));
    if (fits) continue;
    ++relaxed;
    // solve_share_lp's bisection, checking the predicate at every midpoint.
    double lo = 0.0, hi = 1.0;
    for (int it = 0; it < 50; ++it) {
      const double mid = 0.5 * (lo + hi);
      const bool replay = detail::floors_fit_at_scale(lp, mid);
      ASSERT_EQ(replay, simplex_verdict(lp, mid)) << "case " << c << " at scale " << mid;
      (replay ? lo : hi) = mid;
    }
    EXPECT_EQ(solve_share_lp(lp).min_relaxation, lo) << "case " << c;
  }
  // The corpus reaches both branches and the exact-capacity rows.
  EXPECT_GT(relaxed, 100);
  EXPECT_GT(exact_rows, 200);
}

TEST(Refine, RejectsNegativeCapacityCoefficients) {
  // The replayed feasibility test relies on non-negative coefficients.
  ShareLp lp;
  lp.capacity_rows = {{1.0, -0.5}};
  lp.lower_bounds = {0.1, 0.1};
  lp.weights = {1.0, 1.0};
  EXPECT_THROW(solve_share_lp(lp), ContractViolation);
}

TEST(Refine, WitnessSkipsOnlyVariablesThatCannotBeFixed) {
  // For every headroom test the witness pool skips, solve the LP it stands
  // in for: whenever it is optimal, the variable can rise past the fixing
  // threshold, so the LP would not have fixed it either.
  Rng rng(1212);
  int skipped = 0, optimal = 0;
  for (int c = 0; c < 300; ++c) {
    const ShareLp lp = random_share_lp(rng, /*dyadic=*/c % 3 == 0);
    const ShareLpResult r = detail::solve_share_lp(
        lp, [&](const LpProblem& headroom, int var, double target) {
          ++skipped;
          EXPECT_EQ(headroom.objective()[static_cast<std::size_t>(var)], 1.0);
          const LpSolution s = solve_lp(headroom);
          if (s.status != LpStatus::kOptimal) return;
          ++optimal;
          EXPECT_GT(s.objective - target, kFixThreshold) << "case " << c << " var " << var;
        });
    EXPECT_EQ(r.status, LpStatus::kOptimal) << "case " << c;
  }
  EXPECT_GT(optimal, 200);
  EXPECT_GE(skipped, optimal);
}

TEST(Refine, SpuriousHeadroomFailureKeepsWitnessedVariableFree) {
  // perfbench's cold_start generator config, network 6: flow 33's local
  // problem at its source (3 variables, 3 clique rows, floors relaxed).
  GenConfig gen;
  gen.min_nodes = gen.max_nodes = 300;
  gen.min_flows = gen.max_flows = 40;
  gen.max_hops = 3;
  gen.p_faults = 0.0;
  gen.p_loss = 0.0;
  gen.density_m = 160.0;
  const Scenario sc = generate_scenario(6, gen);
  const FlowSet flows(sc.topo, sc.flow_specs);
  const ContentionGraph g(sc.topo, flows);
  const LocalProblem local = distributed_allocate(sc.topo, flows, g).locals[33];
  ShareLp lp;
  lp.lower_bounds = local.mins;
  for (FlowId v : local.vars) lp.weights.push_back(flows.flow(v).weight);
  for (const auto& row : local.rows) lp.capacity_rows.emplace_back(row.begin(), row.end());
  ASSERT_EQ(lp.weights.size(), 3u);

  // After the first level fixes x_0 and x_1 at w·t*, those fixed values
  // overfill a tight clique row by ~1e-9, and phase 1 calls x_2's headroom
  // LP infeasible; solved, it would fix x_2. The level's own optimum puts
  // x_2 at 0.324, above its target 0.302, so the witness keeps x_2 free.
  std::vector<int> spurious;
  const ShareLpResult r = detail::solve_share_lp(
      lp, [&](const LpProblem& headroom, int var, double target) {
        if (solve_lp(headroom).status == LpStatus::kInfeasible) {
          spurious.push_back(var);
          EXPECT_GT(0x1.4bccc325ec52p-2 - target, 0.02);
        }
      });
  EXPECT_EQ(spurious, std::vector<int>{2});
  // Loud: x_1's headroom LP, the next level and the final re-solve all hit
  // the same overfill.
  EXPECT_EQ(r.refine_failures, 3);
  // Either way the shares are the first level's optimum, bit for bit.
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.shares,
            (std::vector<double>{0x1.a5e664edf47c6p-2, 0x1.68666c482e0eap-3, 0x1.4bccc325ec52p-2}));
}

}  // namespace
}  // namespace e2efa
