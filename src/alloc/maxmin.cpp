#include "alloc/maxmin.hpp"

#include <algorithm>

#include "alloc/refine.hpp"
#include "util/assert.hpp"

namespace e2efa {

namespace {

/// Max-min over `lp` (zero floors) with per-variable caps (empty = none).
/// The allocation's flow_share holds the raw per-variable shares; the
/// caller re-shapes it.
MaxMinResult maxmin_over(ShareLp lp, const std::vector<double>& caps) {
  const std::size_t n = lp.weights.size();
  E2EFA_ASSERT(caps.empty() || caps.size() == n);
  for (double c : caps) {
    E2EFA_ASSERT_MSG(c >= 0.0, "negative rate cap");
    lp.upper_bounds.push_back(std::min(1.0, c));
  }
  ShareLpResult r = solve_maxmin_lp(lp);
  MaxMinResult out;
  out.refine_failures = r.refine_failures;
  for (std::size_t i = 0; i < n; ++i) {
    out.level.push_back(r.shares[i] / lp.weights[i]);
    // The refine engine's fixing threshold.
    out.capped.push_back(!caps.empty() && r.shares[i] >= caps[i] - 1e-6);
  }
  out.allocation.flow_share = std::move(r.shares);
  return out;
}

}  // namespace

MaxMinResult maxmin_allocate(const ContentionGraph& g, const std::vector<double>& caps,
                             const std::vector<std::vector<int>>* cliques) {
  MaxMinResult out = maxmin_over(graph_share_lp(g, Granularity::kFlow, cliques), caps);
  out.allocation = make_equalized_allocation(g.flows(), std::move(out.allocation.flow_share));
  return out;
}

MaxMinResult maxmin_allocate_subflows(const ContentionGraph& g,
                                      const std::vector<double>& caps,
                                      const std::vector<std::vector<int>>* cliques) {
  MaxMinResult out = maxmin_over(graph_share_lp(g, Granularity::kSubflow, cliques), caps);
  out.allocation = make_subflow_allocation(g.flows(), std::move(out.allocation.flow_share));
  return out;
}

}  // namespace e2efa
