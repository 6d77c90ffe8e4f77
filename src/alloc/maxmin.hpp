// Weighted max-min fair allocation (the paper's footnote-3 extension).
//
// The main analysis assumes greedy sources (r_i < ρ_i never binds). When
// sources are not greedy, the natural generalization is weighted max-min
// fairness with rate caps: lexicographically maximize the minimum r̂_i/w_i,
// subject to the clique capacity rows and optional per-flow demand caps
// r̂_i <= ρ_i. Both allocators are thin wrappers over the refine engine's
// max-min entry point (solve_maxmin_lp in refine.hpp): the rate caps become
// the ShareLp's upper bounds, and `level` and `capped` are read off the
// shares.
//
// The same engine also runs at subflow granularity, which models what the
// two-tier scheduler of [1] *achieves in practice* (its measured Table-II
// allocation is near max-min across subflows, not the max-total LP optimum).
#pragma once

#include <vector>

#include "alloc/allocation.hpp"

namespace e2efa {

struct MaxMinResult {
  Allocation allocation;
  /// Max-min levels: level[i] = r̂_i / w_i; variables fixed at the same
  /// refinement level share a level.
  std::vector<double> level;
  /// True where the share sits at its rate cap ρ_i (as opposed to a
  /// saturated clique).
  std::vector<bool> capped;
  int refine_failures = 0;  ///< See ShareLpResult.
};

/// Flow-level weighted max-min with optional caps (`caps` empty = greedy
/// sources). Shares are equalized across each flow's subflows. `cliques`,
/// when given, is the precomputed maximal-clique list of `g` (identical
/// result, no from-scratch enumeration).
MaxMinResult maxmin_allocate(const ContentionGraph& g,
                             const std::vector<double>& caps = {},
                             const std::vector<std::vector<int>>* cliques = nullptr);

/// Subflow-level weighted max-min (each subflow an independent single-hop
/// flow, as in previous work); `caps` per subflow, empty = greedy.
MaxMinResult maxmin_allocate_subflows(const ContentionGraph& g,
                                      const std::vector<double>& caps = {},
                                      const std::vector<std::vector<int>>* cliques = nullptr);

}  // namespace e2efa
