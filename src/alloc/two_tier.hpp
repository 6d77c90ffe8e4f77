// The two-tier baseline of Luo et al. [1], reconstructed (Sec. III end).
//
// Previous work treats every subflow as an independent single-hop flow:
// guarantee each subflow its basic share w_{i.j} B / Σ w (over all subflows
// in the group), then maximize the aggregate *single-hop* throughput:
//
//   maximize Σ_{i,j} r_{i.j}
//   s.t.     Σ_{(i,j) in Ω_k} r_{i.j} <= B   for every maximal clique Ω_k
//            r_{i.j} >= w_{i.j} B / Σ w
//
// with the same balanced refinement (the paper's worked Fig.-1 result
// (3B/4, B/4, 3B/8, 3B/8) is the balanced optimum). End-to-end throughput
// of a multi-hop flow is then min_j r_{i.j} — the quantity the paper shows
// suffers under this policy.
#pragma once

#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/refine.hpp"

namespace e2efa {

struct TwoTierResult {
  LpStatus status = LpStatus::kInfeasible;
  Allocation allocation;  ///< Per-subflow shares; flow_share = min over hops.
  std::vector<double> subflow_basic;  ///< Lower bounds used (units of B).
  double min_relaxation = 1.0;
  int refine_failures = 0;  ///< See ShareLpResult.
  /// Σ_{i,j} r_{i.j} — total *single-hop* throughput, the objective previous
  /// work maximizes (compare with allocation.total_effective).
  double total_single_hop = 0.0;
};

/// `cliques`, when given, is the precomputed maximal-clique list of `g`
/// (identical result, no from-scratch enumeration).
TwoTierResult two_tier_allocate(const ContentionGraph& g,
                                const std::vector<std::vector<int>>* cliques = nullptr);

}  // namespace e2efa
