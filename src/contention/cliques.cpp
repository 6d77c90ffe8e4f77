#include "contention/cliques.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>

#include "util/assert.hpp"

namespace e2efa {

namespace {

/// Original dense Bron–Kerbosch with pivoting over an adjacency matrix.
/// Retained as the brute-force oracle and for complement-graph enumeration
/// (independent sets), where the complement of a sparse graph is dense.
class DenseBronKerbosch {
 public:
  DenseBronKerbosch(int n, std::vector<std::vector<bool>> adj) : n_(n), adj_(std::move(adj)) {}

  std::vector<std::vector<int>> run() {
    std::vector<int> r, p, x;
    for (int v = 0; v < n_; ++v) p.push_back(v);
    expand(r, p, x);
    for (auto& c : out_) std::sort(c.begin(), c.end());
    std::sort(out_.begin(), out_.end());
    return std::move(out_);
  }

 private:
  void expand(std::vector<int>& r, std::vector<int> p, std::vector<int> x) {
    if (p.empty() && x.empty()) {
      out_.push_back(r);
      return;
    }
    // Pivot: vertex of P ∪ X with most neighbors in P (Tomita et al.).
    int pivot = -1, best = -1;
    auto count_nbrs_in_p = [&](int u) {
      int c = 0;
      for (int w : p) c += adj_[u][w] ? 1 : 0;
      return c;
    };
    for (int u : p) {
      const int c = count_nbrs_in_p(u);
      if (c > best) best = c, pivot = u;
    }
    for (int u : x) {
      const int c = count_nbrs_in_p(u);
      if (c > best) best = c, pivot = u;
    }
    std::vector<int> candidates;
    for (int v : p)
      if (pivot == -1 || !adj_[pivot][v]) candidates.push_back(v);

    for (int v : candidates) {
      std::vector<int> p2, x2;
      for (int w : p)
        if (adj_[v][w]) p2.push_back(w);
      for (int w : x)
        if (adj_[v][w]) x2.push_back(w);
      r.push_back(v);
      expand(r, std::move(p2), std::move(x2));
      r.pop_back();
      p.erase(std::find(p.begin(), p.end(), v));
      x.push_back(v);
    }
  }

  int n_;
  std::vector<std::vector<bool>> adj_;
  std::vector<std::vector<int>> out_;
};

std::vector<std::vector<bool>> adjacency_of(const ContentionGraph& g, bool complement) {
  const int n = g.vertex_count();
  std::vector<std::vector<bool>> adj(static_cast<std::size_t>(n),
                                     std::vector<bool>(static_cast<std::size_t>(n), false));
  for (int a = 0; a < n; ++a)
    for (int b = 0; b < n; ++b)
      if (a != b) adj[a][b] = complement ? !g.contend(a, b) : g.contend(a, b);
  return adj;
}

/// popcount(a & b) over two equally-sized word spans.
int and_popcount(const std::uint64_t* a, const std::uint64_t* b, int words) {
  int count = 0;
  for (int w = 0; w < words; ++w) count += std::popcount(a[w] & b[w]);
  return count;
}

bool all_zero(const std::vector<std::uint64_t>& bits) {
  for (std::uint64_t w : bits)
    if (w != 0) return false;
  return true;
}

/// Calls fn(local index) for every set bit, ascending.
template <typename Fn>
void for_each_bit(const std::vector<std::uint64_t>& bits, Fn&& fn) {
  for (std::size_t wi = 0; wi < bits.size(); ++wi) {
    std::uint64_t w = bits[wi];
    while (w != 0) {
      fn(static_cast<int>(wi * 64) + std::countr_zero(w));
      w &= w - 1;
    }
  }
}

}  // namespace

void CliqueEnumerator::enumerate(const std::vector<int>& p0,
                                 std::vector<std::vector<int>>& out) {
  // Vertex-seeded outer loop (Eppstein–Löffler–Strash structure): each
  // clique is derived exactly once, from its smallest member — seeding at
  // v with P = later neighbors and X = earlier neighbors keeps every
  // subproblem inside one closed neighborhood, so the recursion never
  // carries graph-sized P/X sets the way a single global expansion would.
  // The same split CliqueStore::update uses for its dirty seeds, with
  // every link dirty.
  if (seed_mark_.size() < static_cast<std::size_t>(g_->link_count()))
    seed_mark_.assign(static_cast<std::size_t>(g_->link_count()), 0);
  const int epoch = ++seed_epoch_;
  for (int v : p0) seed_mark_[static_cast<std::size_t>(v)] = epoch;
  for (int v : p0) {
    seed_p_.clear();
    seed_x_.clear();
    for (int u : g_->link_neighbors(v))
      if (seed_mark_[static_cast<std::size_t>(u)] == epoch)
        (u < v ? seed_x_ : seed_p_).push_back(u);
    enumerate_from({v}, seed_p_, seed_x_, out);
  }
}

void CliqueEnumerator::enumerate_from(const std::vector<int>& r0,
                                      const std::vector<int>& p0,
                                      const std::vector<int>& x0,
                                      std::vector<std::vector<int>>& out) {
  // Local universe: P ∪ X relabelled to [0, m). r0's members are adjacent
  // to everything in it by contract, so only the universe needs bitset
  // adjacency rows. For seeded calls the universe is one neighborhood, so
  // m is bounded by the graph's maximum degree, not its size.
  universe_.clear();
  std::merge(p0.begin(), p0.end(), x0.begin(), x0.end(),
             std::back_inserter(universe_));
  const int m = static_cast<int>(universe_.size());
  r_.assign(r0.begin(), r0.end());
  out_ = &out;
  if (m == 0) {
    out_->emplace_back(r_);
    std::sort(out_->back().begin(), out_->back().end());
    out_ = nullptr;
    return;
  }
  // Dominator pre-check: if some excluded vertex x is adjacent to all of
  // P, every clique of this subproblem extends by x, so nothing here is
  // maximal — return before paying for the bitset rows. This is the
  // depth-0 pivot early-exit hoisted above row construction; it prunes
  // the (majority of) seeds whose cliques are derived from a smaller
  // member. std::includes aborts at the first P-vertex missing from
  // N(x), so failed probes are cheap.
  for (int x : x0) {
    const auto& nx = g_->link_neighbors(x);
    if (std::includes(nx.begin(), nx.end(), p0.begin(), p0.end())) {
      out_ = nullptr;
      return;
    }
  }

  if (upos_.size() < static_cast<std::size_t>(g_->link_count())) {
    upos_.resize(static_cast<std::size_t>(g_->link_count()), 0);
    umark_.resize(static_cast<std::size_t>(g_->link_count()), 0);
  }
  const int epoch = ++uepoch_;
  for (int i = 0; i < m; ++i) {
    upos_[static_cast<std::size_t>(universe_[i])] = i;
    umark_[static_cast<std::size_t>(universe_[i])] = epoch;
  }
  words_ = (m + 63) / 64;
  rows_.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(words_), 0);
  for (int i = 0; i < m; ++i) {
    std::uint64_t* row = rows_.data() + static_cast<std::size_t>(i) * words_;
    for (int u : g_->link_neighbors(universe_[static_cast<std::size_t>(i)]))
      if (umark_[static_cast<std::size_t>(u)] == epoch) {
        const int j = upos_[static_cast<std::size_t>(u)];
        row[j >> 6] |= std::uint64_t{1} << (j & 63);
      }
  }

  // Depth is bounded by |P|; sizing the frame pool up front keeps
  // references stable across recursion (frames are never grown mid-run).
  const std::size_t max_depth = p0.size() + 2;
  if (frames_.size() < max_depth) frames_.resize(max_depth);
  Frame& f0 = frames_[0];
  f0.p.assign(static_cast<std::size_t>(words_), 0);
  f0.x.assign(static_cast<std::size_t>(words_), 0);
  for (int v : p0) {
    const int j = upos_[static_cast<std::size_t>(v)];
    f0.p[static_cast<std::size_t>(j >> 6)] |= std::uint64_t{1} << (j & 63);
  }
  for (int v : x0) {
    const int j = upos_[static_cast<std::size_t>(v)];
    f0.x[static_cast<std::size_t>(j >> 6)] |= std::uint64_t{1} << (j & 63);
  }
  expand(0);
  out_ = nullptr;
}

void CliqueEnumerator::expand(int depth) {
  Frame& f = frames_[static_cast<std::size_t>(depth)];
  if (all_zero(f.p) && all_zero(f.x)) {
    out_->emplace_back(r_);
    std::sort(out_->back().begin(), out_->back().end());
    return;
  }
  // Pivot: vertex of P ∪ X with most neighbors in P (Tomita et al.),
  // scanned with an early exit. A pivot covering all of P (possible for
  // u ∈ X) leaves no branch at all, and one covering all of P but itself
  // (u ∈ P) leaves exactly one — no later candidate can beat that, so
  // the scan stops at the first such vertex. Contention graphs are
  // locally near-complete, so the exit usually fires within a few probes.
  // X is scanned first: only its members can reach the branch-free bound.
  // The pivot choice only steers the search order — the set of maximal
  // cliques emitted is pivot-invariant, and every caller canonicalizes by
  // sorting, so results are bit-identical regardless.
  int np = 0;
  for (std::uint64_t w : f.p) np += std::popcount(w);
  int pivot = -1, best = -1;
  for_each_bit(f.x, [&](int u) {
    if (best >= np) return;
    const int c = and_popcount(rows_.data() + static_cast<std::size_t>(u) * words_,
                               f.p.data(), words_);
    if (c > best) best = c, pivot = u;
  });
  if (best < np - 1) {
    for_each_bit(f.p, [&](int u) {
      if (best >= np - 1) return;
      const int c = and_popcount(rows_.data() + static_cast<std::size_t>(u) * words_,
                                 f.p.data(), words_);
      if (c > best) best = c, pivot = u;
    });
  }
  // Candidates: P minus the pivot's bitset row.
  f.cand.assign(f.p.begin(), f.p.end());
  if (pivot >= 0) {
    const std::uint64_t* row = rows_.data() + static_cast<std::size_t>(pivot) * words_;
    for (int w = 0; w < words_; ++w) f.cand[static_cast<std::size_t>(w)] &= ~row[w];
  }
  Frame& next = frames_[static_cast<std::size_t>(depth) + 1];
  for_each_bit(f.cand, [&](int v) {
    const std::uint64_t* row = rows_.data() + static_cast<std::size_t>(v) * words_;
    next.p.resize(static_cast<std::size_t>(words_));
    next.x.resize(static_cast<std::size_t>(words_));
    for (int w = 0; w < words_; ++w) {
      next.p[static_cast<std::size_t>(w)] = f.p[static_cast<std::size_t>(w)] & row[w];
      next.x[static_cast<std::size_t>(w)] = f.x[static_cast<std::size_t>(w)] & row[w];
    }
    r_.push_back(universe_[static_cast<std::size_t>(v)]);
    expand(depth + 1);
    r_.pop_back();
    f.p[static_cast<std::size_t>(v >> 6)] &= ~(std::uint64_t{1} << (v & 63));
    f.x[static_cast<std::size_t>(v >> 6)] |= std::uint64_t{1} << (v & 63);
  });
}

std::vector<std::vector<int>> expand_link_cliques(const ContentionGraph& g,
                                                  std::vector<std::vector<int>> cliques,
                                                  const std::vector<char>* keep) {
  // Rewritten in place: each clique's buffer trades places with `links`,
  // so the expansion reuses capacity instead of allocating per clique.
  std::vector<int> links;
  for (std::vector<int>& c : cliques) {
    links.swap(c);
    c.clear();
    for (int l : links) {
      const std::size_t before = c.size();
      for (int s : g.link_members(l))
        if (keep == nullptr || (*keep)[static_cast<std::size_t>(s)]) c.push_back(s);
      E2EFA_ASSERT_MSG(c.size() > before, "clique link has no kept member");
    }
    std::sort(c.begin(), c.end());
  }
  std::sort(cliques.begin(), cliques.end());
  return cliques;
}

std::vector<std::vector<int>> maximal_cliques(const ContentionGraph& g) {
  std::vector<int> all(static_cast<std::size_t>(g.link_count()));
  for (int l = 0; l < g.link_count(); ++l) all[static_cast<std::size_t>(l)] = l;
  std::vector<std::vector<int>> links;
  CliqueEnumerator(g).enumerate(all, links);
  return expand_link_cliques(g, std::move(links));
}

std::vector<std::vector<int>> maximal_cliques_reference(const ContentionGraph& g) {
  return DenseBronKerbosch(g.vertex_count(), adjacency_of(g, /*complement=*/false)).run();
}

std::vector<std::vector<int>> maximal_independent_sets(const ContentionGraph& g) {
  return DenseBronKerbosch(g.vertex_count(), adjacency_of(g, /*complement=*/true)).run();
}

double weighted_clique_size(const ContentionGraph& g, const std::vector<int>& clique) {
  double sum = 0.0;
  for (int v : clique) sum += g.flows().subflow(v).weight;
  return sum;
}

double weighted_clique_number(const ContentionGraph& g) {
  E2EFA_ASSERT_MSG(g.vertex_count() > 0, "empty contention graph");
  double best = 0.0;
  for (const auto& c : maximal_cliques(g)) best = std::max(best, weighted_clique_size(g, c));
  return best;
}

std::vector<int> flow_membership_counts(const ContentionGraph& g,
                                        const std::vector<int>& clique) {
  std::vector<int> counts(static_cast<std::size_t>(g.flows().flow_count()), 0);
  for (int v : clique) ++counts[static_cast<std::size_t>(g.flows().subflow(v).flow)];
  return counts;
}

std::vector<std::vector<int>> maximal_cliques_in_subset(const ContentionGraph& g,
                                                        const std::vector<int>& subset) {
  const int k = static_cast<int>(subset.size());
  for (int i = 1; i < k; ++i)
    E2EFA_ASSERT_MSG(subset[static_cast<std::size_t>(i - 1)] < subset[static_cast<std::size_t>(i)],
                     "subset must be strictly ascending");
  // Twins stay twins inside any subset, so the subset's cliques are the
  // cliques over the links it touches, expanded with its own members.
  std::vector<char> keep(static_cast<std::size_t>(g.vertex_count()), 0);
  std::vector<int> links;
  for (int s : subset) {
    keep[static_cast<std::size_t>(s)] = 1;
    links.push_back(g.link_of(s));
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  std::vector<std::vector<int>> found;
  CliqueEnumerator(g).enumerate(links, found);
  return expand_link_cliques(g, std::move(found), &keep);
}

}  // namespace e2efa
