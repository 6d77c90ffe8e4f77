#include "contention/clique_store.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace e2efa {

CliqueStore::CliqueStore(const ContentionGraph& g, std::vector<char> active)
    : g_(&g), active_(std::move(active)), enumerator_(g) {
  const std::size_t n = static_cast<std::size_t>(g.vertex_count());
  const std::size_t links = static_cast<std::size_t>(g.link_count());
  if (active_.empty()) active_.assign(n, 1);
  E2EFA_ASSERT_MSG(active_.size() == n, "active flags must match vertex count");
  link_active_.assign(links, 0);
  link_on_.assign(links, 0);
  for (int v = 0; v < g.vertex_count(); ++v) {
    if (!is_active(v)) continue;
    ++active_count_;
    ++link_active_[static_cast<std::size_t>(g.link_of(v))];
  }
  link_cliques_.resize(links);
  dirty_mark_.assign(links, 0);
  seed_mark_.assign(links, 0);
  // Every on link is a seed: identical splits (and identical clique order)
  // to CliqueEnumerator::enumerate over the active link subgraph.
  std::vector<int> on;
  for (int l = 0; l < g.link_count(); ++l)
    if (link_active_[static_cast<std::size_t>(l)] > 0) {
      link_on_[static_cast<std::size_t>(l)] = 1;
      on.push_back(l);
    }
  enumerate_seeds(on, /*all_seeds=*/true);
}

int CliqueStore::enumerate_seeds(const std::vector<int>& seeds, bool all_seeds) {
  // A neighbor u of seed v is excluded (X) when it is a smaller seed — the
  // clique through {v, u} is derived from u instead — and a candidate (P)
  // otherwise. `all_seeds` short-circuits the seed_mark_ lookup for the
  // initial build, where the marks are not set.
  int added = 0;
  for (int v : seeds) {
    p0_.clear();
    x0_.clear();
    for (int u : g_->link_neighbors(v)) {
      if (!link_on_[static_cast<std::size_t>(u)]) continue;
      if (u < v && (all_seeds || seed_mark_[static_cast<std::size_t>(u)]))
        x0_.push_back(u);
      else
        p0_.push_back(u);
    }
    found_.clear();
    enumerator_.enumerate_from({v}, p0_, x0_, found_);
    for (auto& c : found_) {
      add_clique(std::move(c));
      ++added;
    }
  }
  found_.clear();
  return added;
}

void CliqueStore::add_clique(std::vector<int> clique) {
  int id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    cliques_[static_cast<std::size_t>(id)] = std::move(clique);
  } else {
    id = static_cast<int>(cliques_.size());
    cliques_.push_back(std::move(clique));
    live_.push_back(0);
  }
  live_[static_cast<std::size_t>(id)] = 1;
  ++live_count_;
  for (int l : cliques_[static_cast<std::size_t>(id)])
    link_cliques_[static_cast<std::size_t>(l)].push_back(id);
}

void CliqueStore::remove_clique(int id) {
  auto& members = cliques_[static_cast<std::size_t>(id)];
  for (int l : members) {
    auto& ids = link_cliques_[static_cast<std::size_t>(l)];
    auto it = std::find(ids.begin(), ids.end(), id);
    E2EFA_ASSERT(it != ids.end());
    *it = ids.back();
    ids.pop_back();
  }
  members.clear();  // keeps capacity for slab reuse
  live_[static_cast<std::size_t>(id)] = 0;
  --live_count_;
  free_ids_.push_back(id);
}

CliqueStore::UpdateStats CliqueStore::update(const std::vector<int>& activate,
                                             const std::vector<int>& deactivate) {
  for (int v : deactivate) {
    E2EFA_ASSERT_MSG(is_active(v), "deactivating an inactive vertex");
    active_[static_cast<std::size_t>(v)] = 0;
    --active_count_;
    --link_active_[static_cast<std::size_t>(g_->link_of(v))];
  }
  for (int v : activate) {
    E2EFA_ASSERT_MSG(!is_active(v), "activating an active vertex");
    active_[static_cast<std::size_t>(v)] = 1;
    ++active_count_;
    ++link_active_[static_cast<std::size_t>(g_->link_of(v))];
  }
  // A link toggles when its active-member count crossed zero over the
  // whole batch; syncing link_on_ at the first visit lists each link once.
  toggled_.clear();
  auto sync = [&](int v) {
    const std::size_t l = static_cast<std::size_t>(g_->link_of(v));
    const char on = link_active_[l] > 0 ? 1 : 0;
    if (link_on_[l] == on) return;
    link_on_[l] = on;
    toggled_.push_back(static_cast<int>(l));
  };
  for (int v : deactivate) sync(v);
  for (int v : activate) sync(v);

  UpdateStats stats;
  // Dirty region N[Δ] over the toggled links: stored cliques touching it
  // are discarded; its on part re-seeds enumeration.
  dirty_.clear();
  seeds_.clear();
  auto mark = [&](int l) {
    if (dirty_mark_[static_cast<std::size_t>(l)]) return;
    dirty_mark_[static_cast<std::size_t>(l)] = 1;
    dirty_.push_back(l);
    if (link_on_[static_cast<std::size_t>(l)]) {
      seed_mark_[static_cast<std::size_t>(l)] = 1;
      seeds_.push_back(l);
    }
  };
  for (int delta : toggled_) {
    mark(delta);
    for (int u : g_->link_neighbors(delta)) mark(u);
  }

  doomed_.clear();
  for (int l : dirty_)
    for (int id : link_cliques_[static_cast<std::size_t>(l)]) doomed_.push_back(id);
  for (int id : doomed_) {
    if (!live_[static_cast<std::size_t>(id)]) continue;  // already removed this round
    remove_clique(id);
    ++stats.removed;
  }

  // Re-derive every maximal clique of the new on subgraph that meets the
  // dirty region: seed Bron–Kerbosch at each dirty link v, with the dirty
  // seeds u < v excluded via X so each clique is found exactly once (from
  // its smallest dirty link). A clique containing v lies inside N[v], and
  // maximality against all of N(v) ∩ on is enforced by the P/X emptiness
  // check, so the result is globally maximal.
  std::sort(seeds_.begin(), seeds_.end());
  stats.added = enumerate_seeds(seeds_, /*all_seeds=*/false);

  for (int l : seeds_) seed_mark_[static_cast<std::size_t>(l)] = 0;
  for (int l : dirty_) dirty_mark_[static_cast<std::size_t>(l)] = 0;
  return stats;
}

CliqueStore::UpdateStats CliqueStore::set_active(const std::vector<char>& active) {
  E2EFA_ASSERT_MSG(active.size() == active_.size(), "active flags must match vertex count");
  std::vector<int> on, off;
  for (int v = 0; v < g_->vertex_count(); ++v) {
    const bool want = active[static_cast<std::size_t>(v)] != 0;
    if (want && !is_active(v)) on.push_back(v);
    if (!want && is_active(v)) off.push_back(v);
  }
  return update(on, off);
}

std::vector<std::vector<int>> CliqueStore::cliques() const {
  std::vector<std::vector<int>> live;
  live.reserve(static_cast<std::size_t>(live_count_));
  for (std::size_t id = 0; id < cliques_.size(); ++id)
    if (live_[id]) live.push_back(cliques_[id]);
  return expand_link_cliques(*g_, std::move(live), &active_);
}

}  // namespace e2efa
