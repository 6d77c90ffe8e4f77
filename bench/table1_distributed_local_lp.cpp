// Reproduces Table I: the per-source local optimization problems of the
// distributed first phase on the Fig.-6 topology — local cliques, LP
// constraints, basic-share lower bounds, and each local solution (the bold
// entry is the share the flow's source adopts).
//
// Paper reference: locals solve to
//   F1 @ A: (r̂1, r̂2)       = (B/3, B/3)           mins B/3
//   F2 @ F: (r̂1, r̂2, r̂3)  = (2B/5, B/5, 4B/5)    mins B/5
//   F3 @ H: (r̂2, r̂3, r̂4)  = (3B/4, B/4, 3B/4)    mins B/4
//   F4 @ J: (r̂3, r̂4, r̂5)  = (3B/4, B/4, B/2)     mins B/4
//   F5 @ M: same LP as F4's row
// giving the distributed vector (1/3, 1/5, 1/4, 1/4, 1/2).
#include <algorithm>
#include <iostream>
#include <map>

#include "alloc/distributed.hpp"
#include "contention/cliques.hpp"
#include "net/scenarios.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace e2efa;

int main() {
  const Scenario sc = scenario2();
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph graph(sc.topo, flows);
  const auto result = distributed_allocate(sc.topo, flows, graph);

  // Name the global maximal cliques Ω1..Ω6 for display.
  const auto global = maximal_cliques(graph);
  std::map<std::vector<int>, int> omega;
  for (std::size_t k = 0; k < global.size(); ++k) omega[global[k]] = static_cast<int>(k) + 1;

  std::cout << "Table I — local optimization in the distributed algorithm (Fig. 6)\n\n";
  TextTable t({"Flow@source", "Local cliques", "Constraint rows", "Mins",
               "Local solution", "Adopted share"});
  for (const LocalProblem& lp : result.locals) {
    std::vector<std::string> cliques;
    for (const auto& c : lp.cliques) {
      const auto it = omega.find(c);
      if (it != omega.end()) {
        cliques.push_back(strformat("O%d", it->second));
      } else {
        std::vector<std::string> names;
        for (int s : c) names.push_back(flows.subflow(s).name());
        cliques.push_back(strformat("{%s}", join(names, ",").c_str()));
      }
    }
    std::vector<std::string> rows;
    for (const auto& row : lp.rows) {
      std::vector<std::string> terms;
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i] == 0) continue;
        const std::string var = strformat("r%d", lp.vars[i] + 1);
        terms.push_back(row[i] == 1 ? var : strformat("%d%s", row[i], var.c_str()));
      }
      rows.push_back(join(terms, "+") + "<=B");
    }
    std::vector<std::string> sol;
    for (std::size_t i = 0; i < lp.solution.size(); ++i)
      sol.push_back(strformat("r%d=%s", lp.vars[i] + 1,
                              format_share_of_b(lp.solution[i]).c_str()));
    t.add_row({flows.flow(lp.flow).name() + "@" + sc.topo.label(flows.flow(lp.flow).source()),
               join(cliques, ","), join(rows, "; "),
               format_share_of_b(lp.unit_basic), join(sol, ", "),
               format_share_of_b(lp.flow_share)});
  }
  t.print(std::cout);

  std::cout << "\nDistributed allocation vector (paper: B/3, B/5, B/4, B/4, B/2): ";
  std::vector<std::string> v;
  for (double s : result.allocation.flow_share) v.push_back(format_share_of_b(s));
  std::cout << join(v, ", ") << "\n";

  std::cout << "\nPer-node local cliques (knowledge diagnostics):\n";
  for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
    const auto& cs = result.node_cliques[static_cast<std::size_t>(n)];
    if (cs.empty()) continue;
    std::vector<std::string> names;
    for (const auto& c : cs) {
      const auto it = omega.find(c);
      names.push_back(it != omega.end() ? strformat("O%d", it->second) : std::string("-"));
    }
    std::cout << "  node " << sc.topo.label(n) << ": " << join(names, ", ") << "\n";
  }
  return 0;
}
