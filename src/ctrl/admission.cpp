#include "ctrl/admission.hpp"

#include <algorithm>

#include "alloc/knowledge.hpp"
#include "contention/cliques.hpp"
#include "util/assert.hpp"

namespace e2efa {

const char* to_string(AdmissionReason r) {
  switch (r) {
    case AdmissionReason::kAdmitted:
      return "admitted";
    case AdmissionReason::kCliqueOverload:
      return "clique-overload";
    case AdmissionReason::kTimeout:
      return "timeout";
  }
  return "?";
}

namespace {

AdmissionDecision decide(double worst, std::vector<int> worst_clique) {
  AdmissionDecision d;
  d.worst_load = worst;
  d.worst_clique = std::move(worst_clique);
  if (worst > 1.0 + kAdmissionEps) {
    d.admitted = false;
    d.reason = AdmissionReason::kCliqueOverload;
  }
  return d;
}

}  // namespace

double admission_local_worst_load(const FlowSet& flows,
                                  const ContentionGraph& g,
                                  const std::vector<int>& knowledge,
                                  FlowId candidate,
                                  std::vector<int>* worst_clique) {
  // Denominator: flows visible in the knowledge set.
  std::vector<char> seen(static_cast<std::size_t>(flows.flow_count()), 0);
  double denom = 0.0;
  for (int s : knowledge) {
    FlowId f = flows.subflow(s).flow;
    if (!seen[static_cast<std::size_t>(f)]) {
      seen[static_cast<std::size_t>(f)] = 1;
      denom += flows.flow(f).weight * flows.virtual_length_of(f);
    }
  }
  if (denom <= 0.0) return 0.0;
  const double r0 = 1.0 / denom;

  double worst = 0.0;
  for (const std::vector<int>& clique : maximal_cliques_in_subset(g, knowledge)) {
    bool touches = false;
    double load = 0.0;
    for (int s : clique) {
      FlowId f = flows.subflow(s).flow;
      if (f == candidate) touches = true;
      load += flows.flow(f).weight * r0;
    }
    if (touches && load > worst) {
      worst = load;
      if (worst_clique) *worst_clique = clique;
    }
  }
  return worst;
}

AdmissionDecision admission_check_centralized(const FlowSet& flows,
                                              const ContentionGraph& g,
                                              const std::vector<char>& active,
                                              FlowId candidate) {
  E2EFA_ASSERT(candidate >= 0 && candidate < flows.flow_count());
  E2EFA_ASSERT(static_cast<int>(active.size()) == flows.flow_count());
  std::vector<int> subset;
  for (int s = 0; s < flows.subflow_count(); ++s) {
    FlowId f = flows.subflow(s).flow;
    if (f == candidate || active[static_cast<std::size_t>(f)]) subset.push_back(s);
  }
  std::vector<int> worst_clique;
  double worst = admission_local_worst_load(flows, g, subset, candidate, &worst_clique);
  return decide(worst, std::move(worst_clique));
}

AdmissionDecision admission_check_distributed(const Topology& topo,
                                              const FlowSet& flows,
                                              const ContentionGraph& g,
                                              const std::vector<char>& active,
                                              FlowId candidate,
                                              const TopologyMask* mask) {
  E2EFA_ASSERT(candidate >= 0 && candidate < flows.flow_count());
  E2EFA_ASSERT(static_cast<int>(active.size()) == flows.flow_count());

  // What each node overhears of the *active* population (the candidate has
  // never transmitted, so nobody advertises its subflows)...
  std::vector<std::vector<int>> own = overheard_subflow_sets(topo, flows);
  for (std::vector<int>& o : own) {
    std::erase_if(o, [&](int s) {
      return !active[static_cast<std::size_t>(flows.subflow(s).flow)];
    });
  }
  // ...widened by one mask-respecting HELLO exchange, exactly like the
  // in-band control plane's knowledge model.
  std::vector<std::vector<int>> k = exchanged_knowledge(topo, own, mask);

  const Flow& cand = flows.flow(candidate);
  std::vector<int> cand_subs;
  for (int h = 0; h < cand.length(); ++h) {
    cand_subs.push_back(flows.subflow_index(candidate, h));
  }

  double worst = 0.0;
  std::vector<int> worst_clique;
  for (int h = 0; h < cand.length(); ++h) {
    const NodeId v = cand.path[static_cast<std::size_t>(h)];
    // K(v) ∪ candidate subflows (the ADMIT_REQ carries the candidate path).
    std::vector<int> kv = k[static_cast<std::size_t>(v)];
    kv.insert(kv.end(), cand_subs.begin(), cand_subs.end());
    std::sort(kv.begin(), kv.end());
    kv.erase(std::unique(kv.begin(), kv.end()), kv.end());

    std::vector<int> clique;
    const double load = admission_local_worst_load(flows, g, kv, candidate, &clique);
    if (load > worst) {
      worst = load;
      worst_clique = std::move(clique);
    }
  }
  return decide(worst, std::move(worst_clique));
}

}  // namespace e2efa
