// Maximal-clique machinery over the (weighted) subflow contention graph
// (Sec. III-A): Bron–Kerbosch enumeration, weighted clique sizes, the
// weighted clique number ω_Ω, per-flow clique membership counts n_{i,k},
// and maximal independent sets (used by the schedulability check).
//
// Enumeration runs on the graph's sorted adjacency lists (sorted-list
// intersections, no dense matrix), with all recursion scratch pooled per
// depth so repeated runs — per-epoch re-solves, per-node local solves —
// do not reallocate. `maximal_cliques_reference` keeps the original dense
// enumerator as a brute-force oracle for parity tests and benchmarks.
#pragma once

#include <cstdint>
#include <vector>

#include "contention/contention_graph.hpp"

namespace e2efa {

/// Reusable Bron–Kerbosch engine (Tomita pivoting) over a contention
/// graph. Full enumerations are seeded per vertex (each clique derived
/// exactly once, from its smallest member), so every recursive subproblem
/// lives inside one closed neighborhood; the subproblem universe P ∪ X is
/// relabelled into a local bitset adjacency, making the per-level set
/// operations word-parallel — on city-scale contention graphs (hundreds
/// of mutually-contending subflows per interference region) that is the
/// difference between minutes and hours. All scratch (recursion frames,
/// bitset rows, relabel maps) is pooled and reused across runs, so a
/// long-lived enumerator performs no steady-state allocation. Not
/// thread-safe (one engine per thread, like the rest of the simulator).
class CliqueEnumerator {
 public:
  explicit CliqueEnumerator(const ContentionGraph& g) : g_(&g) {}

  /// Appends to `out` every maximal clique of the subgraph induced by `p0`
  /// (strictly ascending vertex ids). Each clique is ascending; the order
  /// of appended cliques is unspecified — callers sort for determinism.
  void enumerate(const std::vector<int>& p0, std::vector<std::vector<int>>& out);

  /// General entry point: enumerates every maximal clique C of the
  /// subgraph induced by r0 ∪ p0 ∪ x0 with r0 ⊆ C ⊆ r0 ∪ p0 and
  /// C ∩ x0 = ∅. All of r0/p0/x0 ascending; every vertex of p0 and x0
  /// must be adjacent to every vertex of r0. Used by the incremental
  /// clique store to re-derive only the cliques through a seed vertex.
  void enumerate_from(const std::vector<int>& r0, const std::vector<int>& p0,
                      const std::vector<int>& x0, std::vector<std::vector<int>>& out);

 private:
  struct Frame {
    std::vector<std::uint64_t> p, x, cand;
  };

  void expand(int depth);

  const ContentionGraph* g_;
  std::vector<Frame> frames_;
  std::vector<int> r_;
  std::vector<int> seed_p_, seed_x_;  ///< Per-seed P/X scratch (enumerate).
  std::vector<int> seed_mark_;        ///< p0-membership stamps (enumerate).
  int seed_epoch_ = 0;

  // Local-universe state of the current enumerate_from call: universe_[i]
  // is the global id of local vertex i, rows_[i * words_ ..] its bitset
  // adjacency row restricted to the universe.
  std::vector<int> universe_;
  std::vector<int> upos_;   ///< Global id -> local index.
  std::vector<int> umark_;  ///< Universe-membership stamps.
  int uepoch_ = 0;
  int words_ = 0;
  std::vector<std::uint64_t> rows_;
  std::vector<std::vector<int>>* out_ = nullptr;
};

/// All maximal cliques of the contention graph (Bron–Kerbosch with
/// pivoting). Each clique is an ascending list of subflow indices; the
/// clique list is sorted lexicographically for determinism.
std::vector<std::vector<int>> maximal_cliques(const ContentionGraph& g);

/// Original dense-matrix Bron–Kerbosch, kept verbatim as the brute-force
/// oracle: same output contract as `maximal_cliques`, O(V^2) setup and
/// per-call allocation. Parity tests assert the sparse path matches it
/// element-wise; `bench/micro_cliques` uses it as the "before" baseline.
std::vector<std::vector<int>> maximal_cliques_reference(const ContentionGraph& g);

/// All maximal independent sets (maximal cliques of the complement graph),
/// same ordering guarantees. Independent sets are the sets of subflows that
/// may transmit concurrently.
std::vector<std::vector<int>> maximal_independent_sets(const ContentionGraph& g);

/// Weighted clique size ω_{Ω_k}: sum of subflow weights in the clique.
double weighted_clique_size(const ContentionGraph& g, const std::vector<int>& clique);

/// Weighted clique number ω_Ω = max_k ω_{Ω_k} over all maximal cliques.
/// Requires a non-empty graph.
double weighted_clique_number(const ContentionGraph& g);

/// Per-flow clique membership: n[i] = number of subflows of flow i in
/// `clique` (the n_{i,k} coefficients of constraint (3)/(6)).
std::vector<int> flow_membership_counts(const ContentionGraph& g,
                                        const std::vector<int>& clique);

/// Maximal cliques of the subgraph induced by `subset` (ascending subflow
/// indices, no duplicates). Cliques are reported in *global* vertex ids and
/// are maximal within the subset — the distributed algorithm's "local
/// cliques" (a node can only reason about subflows it knows of).
std::vector<std::vector<int>> maximal_cliques_in_subset(const ContentionGraph& g,
                                                        const std::vector<int>& subset);

}  // namespace e2efa
