#include "contention/coloring.hpp"

#include <algorithm>
#include <numeric>

#include "flow/flow.hpp"
#include "util/assert.hpp"

namespace e2efa {

std::vector<int> greedy_coloring(const ContentionGraph& g) {
  const int n = g.vertex_count();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return g.degree(a) > g.degree(b); });
  std::vector<int> color(static_cast<std::size_t>(n), -1);
  for (int v : order) {
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    auto mark_link = [&](int l) {
      for (int u : g.link_members(l))
        if (u != v && color[static_cast<std::size_t>(u)] >= 0)
          used[static_cast<std::size_t>(color[static_cast<std::size_t>(u)])] = true;
    };
    const int lv = g.link_of(v);
    mark_link(lv);
    for (int l : g.link_neighbors(lv)) mark_link(l);
    int c = 0;
    while (used[static_cast<std::size_t>(c)]) ++c;
    color[static_cast<std::size_t>(v)] = c;
  }
  return color;
}

int color_count(const std::vector<int>& coloring) {
  int mx = -1;
  for (int c : coloring) mx = std::max(mx, c);
  return mx + 1;
}

bool is_proper_coloring(const ContentionGraph& g, const std::vector<int>& coloring) {
  E2EFA_ASSERT(static_cast<int>(coloring.size()) == g.vertex_count());
  for (int a = 0; a < g.vertex_count(); ++a)
    for (int b = a + 1; b < g.vertex_count(); ++b)
      if (g.contend(a, b) &&
          coloring[static_cast<std::size_t>(a)] == coloring[static_cast<std::size_t>(b)])
        return false;
  return true;
}

std::vector<int> chain_coloring(int hop_count) {
  const int colors = virtual_length(hop_count);
  std::vector<int> out(static_cast<std::size_t>(hop_count));
  for (int j = 0; j < hop_count; ++j) out[static_cast<std::size_t>(j)] = j % colors;
  return out;
}

}  // namespace e2efa
