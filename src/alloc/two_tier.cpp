#include "alloc/two_tier.hpp"

namespace e2efa {

TwoTierResult two_tier_allocate(const ContentionGraph& g,
                                const std::vector<std::vector<int>>* cliques) {
  TwoTierResult out;
  out.subflow_basic = subflow_basic_shares(g);  // group-aware denominators

  ShareLp lp = graph_share_lp(g, Granularity::kSubflow, cliques);
  lp.lower_bounds = out.subflow_basic;

  ShareLpResult r = solve_share_lp(lp);
  out.status = r.status;
  out.min_relaxation = r.min_relaxation;
  out.refine_failures = r.refine_failures;
  if (r.status == LpStatus::kOptimal) {
    out.total_single_hop = r.total;
    out.allocation = make_subflow_allocation(g.flows(), std::move(r.shares));
  }
  return out;
}

}  // namespace e2efa
