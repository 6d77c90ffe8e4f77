// Phase 1, centralized form (Sec. IV-A): the global allocation LP.
//
// A (conceptually) centralized node collects every flow's weight and route,
// builds the weighted subflow contention graph, and solves
//
//   maximize Σ_i r̂_i
//   s.t.     Σ_i n_{i,k} r̂_i <= B           for every maximal clique Ω_k
//            r̂_i >= w_i B / Σ_j w_j v_j      (basic fairness, Eq. (7))
//
// followed by the balanced refinement of refine.hpp so the reported optimum
// matches the paper's worked examples exactly.
#pragma once

#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/refine.hpp"

namespace e2efa {

struct CentralizedResult {
  LpStatus status = LpStatus::kInfeasible;
  Allocation allocation;  ///< Valid when status == kOptimal.
  /// Deduplicated clique constraint rows n_{i,k} actually used.
  std::vector<std::vector<int>> constraint_rows;
  /// Basic shares used as lower bounds (units of B).
  std::vector<double> basic;
  double min_relaxation = 1.0;  ///< See ShareLpResult.
  int refine_failures = 0;      ///< See ShareLpResult.
};

/// Runs the centralized first phase on one contending flow group (the whole
/// FlowSet behind `g` is treated as a single group; disjoint groups may
/// simply be solved separately — their LPs do not interact). `cliques`, when
/// given, is the precomputed maximal-clique list of `g` (e.g. from an
/// incremental CliqueStore) and skips from-scratch enumeration; the result
/// is identical.
CentralizedResult centralized_allocate(const ContentionGraph& g,
                                       const std::vector<std::vector<int>>* cliques = nullptr);

}  // namespace e2efa
