#include "alloc/centralized.hpp"

namespace e2efa {

CentralizedResult centralized_allocate(const ContentionGraph& g,
                                       const std::vector<std::vector<int>>* cliques) {
  CentralizedResult out;
  ShareLp lp = graph_share_lp(g, Granularity::kFlow, cliques);
  for (const auto& row : lp.capacity_rows) out.constraint_rows.emplace_back(row.begin(), row.end());
  out.basic = basic_shares(g);  // group-aware (Sec. II-D defines the basic
                                // share within a contending flow group)
  lp.lower_bounds = out.basic;

  ShareLpResult r = solve_share_lp(lp);
  out.status = r.status;
  out.min_relaxation = r.min_relaxation;
  out.refine_failures = r.refine_failures;
  if (r.status == LpStatus::kOptimal)
    out.allocation = make_equalized_allocation(g.flows(), std::move(r.shares));
  return out;
}

}  // namespace e2efa
