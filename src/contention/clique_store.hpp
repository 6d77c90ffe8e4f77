// Incrementally maintained maximal cliques over a contention graph.
//
// The store fixes the contention graph at construction (vertex set and
// adjacency never change — they are geometry) and tracks an *active*
// subset of vertices: the subflows that exist in the current epoch, after
// fault masks and route repair decide which flows transmit. Maximal
// cliques of the induced active subgraph are kept materialized; toggling
// vertices re-derives only the cliques touching the closed neighborhood
// N[Δ] of the toggled set Δ, so a per-epoch fault delta costs
// O(clique neighborhood of the change), not O(network).
//
// Why N[Δ] suffices: a maximal clique disjoint from N[Δ] cannot gain or
// lose a witness — any vertex adjacent to all of it is adjacent to one of
// its members, hence outside N(δ) for every toggled δ, and no member's
// adjacency or activity changed. Conversely every clique that appears or
// disappears lies entirely inside N[δ] of some toggled δ (it contains δ,
// or was extendable only by δ). Re-running Bron–Kerbosch seeded at each
// dirty vertex v — excluding dirty seeds u < v via the X set so each
// clique is derived exactly once, from its smallest dirty vertex — is
// therefore exact, not approximate. The parity tests in
// tests/scale_parity_test.cpp check this element-wise against from-scratch
// enumeration across randomized fault-driven delta sequences.
#pragma once

#include <vector>

#include "contention/cliques.hpp"
#include "contention/contention_graph.hpp"

namespace e2efa {

class CliqueStore {
 public:
  struct UpdateStats {
    int removed = 0;     ///< Cliques discarded because they touch N[Δ].
    int added = 0;       ///< Cliques re-derived from the dirty seeds.
    int seeds = 0;       ///< Dirty vertices Bron–Kerbosch was re-run from.
  };

  /// Builds the store over `g` with the given initial active set (one flag
  /// per vertex; empty = all vertices active).
  explicit CliqueStore(const ContentionGraph& g, std::vector<char> active = {});

  /// Enumeration thread budget (default 1 = serial). When > 1, rebuilds and
  /// updates with enough dirty seeds fan the per-seed Bron–Kerbosch calls
  /// across a transient thread pool, one CliqueEnumerator per worker, and
  /// commit the results in seed order — so clique ids, slab layout and every
  /// UpdateStats field are byte-identical to the serial path at any thread
  /// count. Small deltas (< 2 * kParallelSeedThreshold seeds) stay serial:
  /// the per-epoch steady-state update is neighborhood-sized and spawning
  /// threads for it would cost more than the enumeration.
  void set_threads(int threads) { threads_ = threads > 1 ? threads : 1; }
  int threads() const { return threads_; }

  /// Dirty seeds per worker: an update fans out to
  /// min(threads, seeds / kParallelSeedThreshold) workers, so it runs
  /// threaded only from 2 * kParallelSeedThreshold seeds on.
  static constexpr std::size_t kParallelSeedThreshold = 64;

  const ContentionGraph& graph() const { return *g_; }
  bool is_active(int v) const { return active_[static_cast<std::size_t>(v)] != 0; }
  int active_count() const { return active_count_; }
  int clique_count() const { return live_count_; }

  /// Applies a batch of activity toggles: every vertex of `activate` must
  /// currently be inactive and every vertex of `deactivate` active (the
  /// two sets are disjoint). Only the cliques meeting the closed
  /// neighborhood of the toggled vertices are re-derived.
  UpdateStats update(const std::vector<int>& activate, const std::vector<int>& deactivate);

  /// Convenience: diffs `active` (one flag per vertex) against the current
  /// activity and applies the delta.
  UpdateStats set_active(const std::vector<char>& active);

  /// Canonical snapshot of the maintained cliques: each ascending,
  /// lexicographically sorted. The set of maximal cliques is a pure
  /// function of (graph, active set), so the snapshot is independent of
  /// the toggle history that produced it.
  std::vector<std::vector<int>> cliques() const;

  /// Ids of the live cliques containing vertex v (unordered). Ids are
  /// stable until the clique is removed by an update.
  const std::vector<int>& cliques_of(int v) const {
    return vertex_cliques_[static_cast<std::size_t>(v)];
  }
  /// Vertices of a live clique, ascending.
  const std::vector<int>& clique(int id) const { return cliques_[static_cast<std::size_t>(id)]; }

 private:
  void add_clique(std::vector<int> clique);
  void remove_clique(int id);
  void rebuild_all();
  /// Seeds Bron–Kerbosch at each vertex of `seeds` (ascending, all active)
  /// and add_cliques every clique found, in seed order. A neighbor u of
  /// seed v goes to X when it is itself a seed with u < v (`all_seeds`
  /// treats every active vertex as a seed — the full-rebuild case),
  /// otherwise to P; inactive neighbors are skipped. Runs the per-seed
  /// calls in parallel when the thread budget and seed count warrant it.
  /// Returns the number of cliques added.
  int enumerate_seeds(const std::vector<int>& seeds, bool all_seeds);

  const ContentionGraph* g_;
  std::vector<char> active_;
  int active_count_ = 0;

  // Slab storage: cliques_[id] is the vertex list (empty + on the free
  // list once removed); capacity is recycled so steady-state updates do
  // not allocate.
  std::vector<std::vector<int>> cliques_;
  std::vector<char> live_;
  std::vector<int> free_ids_;
  int live_count_ = 0;
  std::vector<std::vector<int>> vertex_cliques_;

  CliqueEnumerator enumerator_;
  int threads_ = 1;
  // Update scratch, reused across calls.
  std::vector<char> dirty_mark_, seed_mark_;
  std::vector<int> seeds_, doomed_, p0_, x0_;
  std::vector<std::vector<int>> found_;
};

}  // namespace e2efa
