// Incrementally maintained maximal cliques over a contention graph.
//
// The store fixes the contention graph at construction (vertex set and
// adjacency never change — they are geometry) and tracks an *active*
// subset of subflows: the subflows that exist in the current epoch, after
// fault masks and route repair decide which flows transmit. Maximal
// cliques of the induced active subgraph are kept materialized.
//
// The store works on the graph's link classes (contention_graph.hpp). A
// link is active while at least one of its member subflows is; members of
// a link are twins, so the maximal cliques of the active subflows are the
// maximal cliques of the active links, each expanded with its links'
// active members. The store counts active members per link, and a subflow
// toggle reaches the link level only when that count crosses zero; a toggle
// that leaves its link active changes no link clique, only the expansion
// `cliques()` performs. Explicit-edge graphs have one subflow per link, so
// there every toggle is a link toggle.
//
// Toggling links re-derives only the cliques touching the closed
// neighborhood N[Δ] of the toggled link set Δ, so a per-epoch fault delta
// costs O(clique neighborhood of the change), not O(network).
//
// Why N[Δ] suffices: a maximal clique disjoint from N[Δ] cannot gain or
// lose a witness — any link adjacent to all of it is adjacent to one of
// its members, hence outside N(δ) for every toggled δ, and no member's
// adjacency or activity changed. Conversely every clique that appears or
// disappears lies entirely inside N[δ] of some toggled δ (it contains δ,
// or was extendable only by δ). Re-running Bron–Kerbosch seeded at each
// dirty link v — excluding dirty seeds u < v via the X set so each
// clique is derived exactly once, from its smallest dirty link — is
// therefore exact, not approximate. The parity tests in
// tests/scale_parity_test.cpp check this element-wise against the dense
// subflow-level reference across randomized fault-driven delta sequences.
#pragma once

#include <vector>

#include "contention/cliques.hpp"
#include "contention/contention_graph.hpp"

namespace e2efa {

class CliqueStore {
 public:
  /// Link-level work of one update.
  struct UpdateStats {
    int removed = 0;  ///< Link cliques discarded because they touch N[Δ].
    int added = 0;    ///< Link cliques re-derived from the dirty seeds.
  };

  /// Builds the store over `g` with the given initial active set (one flag
  /// per subflow; empty = all subflows active).
  explicit CliqueStore(const ContentionGraph& g, std::vector<char> active = {});

  const ContentionGraph& graph() const { return *g_; }
  bool is_active(int v) const { return active_[static_cast<std::size_t>(v)] != 0; }
  int active_count() const { return active_count_; }
  /// Number of maximal cliques of the active subgraph.
  int clique_count() const { return live_count_; }

  /// Applies a batch of subflow activity toggles: every subflow of
  /// `activate` must currently be inactive and every subflow of
  /// `deactivate` active (the two sets are disjoint). Only the cliques
  /// meeting the closed neighborhood of the links that switch on or off
  /// are re-derived.
  UpdateStats update(const std::vector<int>& activate, const std::vector<int>& deactivate);

  /// Convenience: diffs `active` (one flag per subflow) against the current
  /// activity and applies the delta.
  UpdateStats set_active(const std::vector<char>& active);

  /// Canonical snapshot of the maximal cliques over the active subflows:
  /// each ascending, lexicographically sorted. The set of maximal cliques
  /// is a pure function of (graph, active set), so the snapshot is
  /// independent of the toggle history that produced it.
  std::vector<std::vector<int>> cliques() const;

 private:
  void add_clique(std::vector<int> clique);
  void remove_clique(int id);
  /// Seeds Bron–Kerbosch at each link of `seeds` (ascending, all on) and
  /// add_cliques every clique found, in seed order. A neighbor u of seed v
  /// goes to X when it is itself a seed with u < v (`all_seeds` treats
  /// every on link as a seed — the initial build), otherwise to P; off
  /// neighbors are skipped. Returns the number of cliques added.
  int enumerate_seeds(const std::vector<int>& seeds, bool all_seeds);

  const ContentionGraph* g_;
  std::vector<char> active_;  // per subflow
  int active_count_ = 0;
  std::vector<int> link_active_;  // per link: active member count
  std::vector<char> link_on_;     // per link: on, as the cliques reflect it

  // Slab storage of link cliques: cliques_[id] is the link list (empty +
  // on the free list once removed); capacity is recycled so steady-state
  // updates do not allocate.
  std::vector<std::vector<int>> cliques_;
  std::vector<char> live_;
  std::vector<int> free_ids_;
  int live_count_ = 0;
  std::vector<std::vector<int>> link_cliques_;  // per link: live clique ids

  CliqueEnumerator enumerator_;
  // Update scratch, reused across calls.
  std::vector<char> dirty_mark_, seed_mark_;
  std::vector<int> toggled_, dirty_, seeds_, doomed_, p0_, x0_;
  std::vector<std::vector<int>> found_;
};

}  // namespace e2efa
