// The balanced refinement's two shortcuts (alloc/refine.hpp): the replayed
// relaxation feasibility test and the witness-pruned headroom tests, each
// checked against the LP it stands in for.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/centralized.hpp"
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

TEST(Refine, HeadroomFaceFloorsFreeVariablesKTolBelowTheLevel) {
  // A level's headroom LP is its face: each free variable at least
  // w_i·t* − kTol (kTol = 1e-7 in refine.cpp). Minimizing the tested
  // variable over every skipped test's LP never goes below that floor, and
  // reaches it exactly wherever the floor binds.
  constexpr double kFaceSlack = 1e-7;
  Rng rng(1212);
  int skipped = 0, binding = 0;
  for (int c = 0; c < 300; ++c) {
    const ShareLp lp = random_share_lp(rng, /*dyadic=*/c % 3 == 0);
    detail::solve_share_lp(lp, [&](const LpProblem& headroom, int var, double target) {
      ++skipped;
      std::vector<double> minimize(static_cast<std::size_t>(headroom.num_vars()), 0.0);
      minimize[static_cast<std::size_t>(var)] = -1.0;
      const LpSolution s = LpFace(headroom).maximize(minimize);
      if (s.status != LpStatus::kOptimal) return;
      const double lowest = -s.objective, floor = target - kFaceSlack;
      EXPECT_GE(lowest, floor - 1e-12) << "case " << c << " var " << var;
      binding += lowest <= floor + 1e-12;
    });
  }
  // The corpus skips 1410 tests; the floor binds in 13 of them.
  EXPECT_GT(skipped, 1000);
  EXPECT_GT(binding, 10);
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


/// Each share's IEEE-754 bit pattern in hex, space-separated.
std::string share_bits(const std::vector<double>& shares) {
  std::string out;
  for (double v : shares) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    char buf[20];
    std::snprintf(buf, sizeof buf, "%s%016" PRIx64, out.empty() ? "" : " ", b);
    out += buf;
  }
  return out;
}

TEST(Refine, AllocatorSharesKeepTheirPhaseOneBits) {
  // A phase-1 golden: the 2PA-C and 2PA-D flow shares of three 150-node
  // networks in perfbench's cold_start generator shape, as bit patterns.
  // Any changed pivot, refinement row or fix order moves them; a change
  // meant to move them (a new pivot rule, bounded variables, dual fixing)
  // re-records them.
  GenConfig gen;
  gen.min_nodes = gen.max_nodes = 150;
  gen.min_flows = gen.max_flows = 20;
  gen.max_hops = 3;
  gen.p_faults = 0.0;
  gen.p_loss = 0.0;
  gen.density_m = 160.0;
  const char* const kWant[3][2] = {
      {// network 0: 2PA-C, then 2PA-D
       "3fcc4f0c1a3a6359 3fb3d5a97859b9d7 3fe0000000000000 3fc740c5053c19c2 "
       "3fa0a0bd003636a9 3fb22d74aeedba87 3fb5896dd8a86af9 3fd21547917f6e80 "
       "3fea146aa7876ee1 3fec4415a71be308 3fbddf52c720e7c1 3fb9cb8ef2e15e3f "
       "3fe88fe072de5a50 3fbfa5fc02a4fe2a 3f94c8bb3f25540d 3fe0000000000000 "
       "3fa22d74aeedba87 3f960382cbd227cf 3fec9f5cac06e3eb 3feb74a2d444915f",
       "3fba0a18d6ee1d12 3fd1c628e4678e73 3fdfffff29406b24 3fc4547aff5dc995 "
       "3fae15628a819ec2 3fc06c8ef34ae312 3fb589705ce7298e 3fcc82c4977ea3fe "
       "3fe7d189dd347ff9 3fe0000000000000 3fc30b53b0e8a1ce 3fc071e7b7ea8591 "
       "3fdc38506cf4c65e 3fc2bf479bd104d6 3fa57d1ea3a46595 3fe0000000000001 "
       "3fcb601b696a71b4 3fb1ad48791f4df8 3fe40c45463727ac 3fe7f6571f626093"},
      {// network 1: 2PA-C, then 2PA-D
       "3fcc6728a4f3c822 3fbb4e690f4c69b8 3fc153b8cea130c0 3fc587e99402f3f4 "
       "3fd89187ea3c2ccf 3fcef321e8e05a37 3fe0866f0b8fd2e0 3fc450d9dc389346 "
       "3fd3013565071b73 3fd8e635d6c30df7 3fe97cb772e2aab4 3fcca84108ff0a56 "
       "3fcdb9e0570f4cc0 3fdffffffffffffe 3fcc50afce9d0c97 3fe1cc6bad861bef "
       "3fd5d79311e3b65d 3fe7562398af67a0 3fc153b8cea130bc 3fca0d2234755526",
       "3fd13f43baabcf93 3fc07dc745678c0a 3fc153b8cea130b6 3fc0ae141b241ae6 "
       "3fdbdcc5108d15bc 3fcef321e8e05a3c 3feaa3fcd03e0162 3fc450d9dc389346 "
       "3fd32998ebbc0f88 3fcfffffffffffff 3fe97cb7580ab81c 3fc4ada04e2968c8 "
       "3fcdb9de9f03ca2c 3fe0000000000000 3fcc50af54a00c4c 3fe38b70f23a99ec "
       "3fd5d79311e3b65c 3fe7562398af67a4 3fbde45e3927971e 3fcdcb7461c0107f"},
      {// network 2: 2PA-C, then 2PA-D
       "3fa0b6ee1c689e79 3fdde9223c72ec30 3f9fcdd386275a79 3fee647b9404677c "
       "3f9eb2aebd74a900 3f99b846bfb98845 3f95d29545bf8d6c 3fd1a5f0862e5474 "
       "3fd479ac3c0766a5 3f8d895751efdfab 3ff0000000000000 3fdcddb35aac624a "
       "3feaf645ad1edbb4 3fd66f33abe4d859 3f8b752329bdd60f 3f97ba82207fad90 "
       "3f91338011b711d2 3fd5555555555555 3f975f1b7983baa7 3fec9767f46a2591",
       "3fc11035a064ff8a 3fda83356b2a9952 3fafa3d5d484bbe4 3fe6f63217d3a603 "
       "3fcc363698d95c54 3fbd7c36a2d30298 3fa9ef802be08349 3fc095f860a1f0dd "
       "3fc9d027b5df257e 3f9d62585c05ce51 3ff0000000000000 3fd88cfa73d021ea "
       "3fc57207358fd200 3fd054122457eab8 3fb2c476fc6e43df 3fbc00df81e9dad5 "
       "3fb991bade2de0fe 3fd5555555555555 3fabc6c242af7a4b 3fbc00902febe989"},
  };
  for (int seed = 0; seed < 3; ++seed) {
    const Scenario sc = generate_scenario(static_cast<std::uint64_t>(seed), gen);
    const FlowSet flows(sc.topo, sc.flow_specs);
    const ContentionGraph g(sc.topo, flows);
    EXPECT_EQ(share_bits(centralized_allocate(g).allocation.flow_share), kWant[seed][0])
        << "network " << seed << ", 2PA-C";
    EXPECT_EQ(share_bits(distributed_allocate(sc.topo, flows, g).allocation.flow_share),
              kWant[seed][1])
        << "network " << seed << ", 2PA-D";
  }
}

}  // namespace
}  // namespace e2efa
