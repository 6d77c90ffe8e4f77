#include "net/scenario_file.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "route/routing.hpp"
#include "util/assert.hpp"
#include "util/options.hpp"
#include "util/strings.hpp"

namespace e2efa {

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw ContractViolation(strformat("scenario file line %d: %s", line, msg.c_str()));
}

struct FlowSpec {
  std::vector<std::string> nodes;
  double weight = 1.0;
  int line = 0;
};

// fault/recover directives, with labels still unresolved.
struct FaultSpec {
  bool recover = false;  ///< false: fault (down), true: recover (up).
  bool link = false;     ///< false: node event, true: link event.
  std::string a, b;      ///< Node label(s); b only for link events.
  double at_s = 0.0;
  int line = 0;
};

struct LossSpec {
  bool is_default = false;
  std::string a, b;
  double per = 0.0;
  int line = 0;
};

// flow_arrive / flow_depart directives (flow ordinals resolved after all
// flows are read).
struct ChurnSpec {
  bool depart = false;
  int flow = -1;
  double at_s = 0.0;
  int line = 0;
};

// mobility directives, with the node label still unresolved.
struct MobSpec {
  std::string label;
  double speed = 0.0;
  double pause = 0.0;
  std::uint64_t seed = 0;
  int line = 0;
};

/// One non-blank line: its number, directive and argument tokens.
struct Line {
  int no = 0;
  std::string cmd;
  std::vector<std::string> args;

  /// Fails unless there are exactly n arguments: with `usage` when fewer,
  /// as an unexpected token when more.
  void expect(std::size_t n, const std::string& usage) const {
    if (args.size() < n) fail(no, usage);
    if (args.size() > n) fail(no, "unexpected token after " + cmd);
  }
  /// Argument i as a strict finite number; fails with `usage` otherwise.
  double number(std::size_t i, const std::string& usage) const {
    const auto v = i < args.size() ? parse_double(args[i]) : std::nullopt;
    if (!v) fail(no, usage);
    return *v;
  }
};

/// Everything the directives declare, with labels and flow ordinals still
/// unresolved (a directive may name a node or flow defined further down).
struct Draft {
  std::vector<Point> positions;
  std::vector<std::string> labels;
  std::map<std::string, NodeId> by_label;
  std::vector<FlowSpec> flows;
  std::vector<FaultSpec> faults;
  std::vector<LossSpec> losses;
  std::vector<ChurnSpec> churn;
  std::vector<MobSpec> mobility;
  double range = 250.0;
  double irange = -1.0;
  TransportKind transport = TransportKind::kCbr;
  int transport_line = 0;

  NodeId node(const std::string& label, int line) const {
    const auto it = by_label.find(label);
    if (it == by_label.end()) fail(line, "unknown node label " + label);
    return it->second;
  }
};

// ---- Directive handlers ------------------------------------------------

void read_range(Draft& d, const Line& l) {
  const std::string usage = l.cmd + " needs a positive number";
  l.expect(1, usage);
  const double v = l.number(0, usage);
  if (v <= 0) fail(l.no, usage);
  (l.cmd == "range" ? d.range : d.irange) = v;
}

void read_node(Draft& d, const Line& l) {
  const std::string usage = "node needs: label x y";
  l.expect(3, usage);
  const Point p{l.number(1, usage), l.number(2, usage)};
  const std::string& label = l.args[0];
  if (d.by_label.contains(label)) fail(l.no, "duplicate node label " + label);
  d.by_label[label] = static_cast<NodeId>(d.positions.size());
  d.positions.push_back(p);
  d.labels.push_back(label);
}

void read_flow(Draft& d, const Line& l) {
  FlowSpec spec;
  spec.line = l.no;
  const auto weight = std::find(l.args.begin(), l.args.end(), "weight");
  spec.nodes.assign(l.args.begin(), weight);
  if (weight != l.args.end()) {
    const auto i = static_cast<std::size_t>(weight - l.args.begin()) + 1;
    spec.weight = l.number(i, "weight needs a positive number");
    if (spec.weight <= 0) fail(l.no, "weight needs a positive number");
    if (i + 1 < l.args.size()) fail(l.no, "unexpected token after weight");
  }
  if (spec.nodes.size() < 2) fail(l.no, "flow needs at least two nodes");
  d.flows.push_back(std::move(spec));
}

void read_fault(Draft& d, const Line& l) {
  FaultSpec spec;
  spec.recover = l.cmd == "recover";
  spec.line = l.no;
  const std::string kind = l.args.empty() ? "" : l.args[0];
  if (kind != "node" && kind != "link")
    fail(l.no, l.cmd + " needs: " + l.cmd + " node|link ...");
  spec.link = kind == "link";
  const std::string usage =
      l.cmd + (spec.link ? " link needs: two node labels and a time"
                         : " node needs: a node label and a time");
  l.expect(spec.link ? 4 : 3, usage);
  spec.a = l.args[1];
  if (spec.link) spec.b = l.args[2];
  spec.at_s = l.number(l.args.size() - 1, usage);
  if (spec.at_s < 0) fail(l.no, l.cmd + " time must not be negative");
  d.faults.push_back(std::move(spec));
}

void read_loss(Draft& d, const Line& l) {
  LossSpec spec;
  spec.line = l.no;
  spec.is_default = !l.args.empty() && l.args[0] == "default";
  const std::string usage = spec.is_default
                                ? "loss default needs a rate"
                                : "loss needs: a b rate, or: default rate";
  l.expect(spec.is_default ? 2 : 3, usage);
  if (!spec.is_default) {
    spec.a = l.args[0];
    spec.b = l.args[1];
  }
  spec.per = l.number(l.args.size() - 1, usage);
  if (spec.per < 0.0 || spec.per > 1.0)
    fail(l.no, "loss rate must be within [0, 1]");
  d.losses.push_back(std::move(spec));
}

void read_churn(Draft& d, const Line& l) {
  ChurnSpec spec;
  spec.depart = l.cmd == "flow_depart";
  spec.line = l.no;
  const std::string usage = l.cmd + " needs: flow-index time";
  l.expect(2, usage);
  const auto flow = parse_int(l.args[0]);
  if (!flow) fail(l.no, usage);
  spec.flow = *flow;
  spec.at_s = l.number(1, usage);
  if (spec.flow < 0) fail(l.no, l.cmd + " flow index must not be negative");
  if (spec.at_s < 0) fail(l.no, l.cmd + " time must not be negative");
  d.churn.push_back(spec);
}

void read_mobility(Draft& d, const Line& l) {
  MobSpec spec;
  spec.line = l.no;
  if (l.args.empty()) fail(l.no, "mobility needs: label speed v [pause p] [seed k]");
  spec.label = l.args[0];
  bool have_speed = false;
  for (std::size_t i = 1; i < l.args.size(); i += 2) {
    const std::string& key = l.args[i];
    if (key == "speed") {
      spec.speed = l.number(i + 1, "mobility speed needs a number");
      have_speed = true;
    } else if (key == "pause") {
      spec.pause = l.number(i + 1, "mobility pause needs a number");
    } else if (key == "seed") {
      const auto seed = i + 1 < l.args.size() ? parse_uint64(l.args[i + 1])
                                              : std::nullopt;
      if (!seed) fail(l.no, "mobility seed needs an integer");
      spec.seed = *seed;
    } else {
      fail(l.no, "unknown mobility option '" + key + "'");
    }
  }
  if (!have_speed || spec.speed <= 0) fail(l.no, "mobility needs a positive speed");
  if (spec.pause < 0) fail(l.no, "mobility pause must not be negative");
  d.mobility.push_back(std::move(spec));
}

void read_transport(Draft& d, const Line& l) {
  l.expect(1, "transport needs: cbr|aimd|bbr");
  if (d.transport_line != 0)
    fail(l.no, strformat("duplicate transport directive (line %d)", d.transport_line));
  d.transport_line = l.no;
  const auto parsed = parse_transport_kind(l.args[0]);
  if (!parsed) fail(l.no, "unknown transport kind '" + l.args[0] + "'");
  d.transport = *parsed;
}

using Handler = void (*)(Draft&, const Line&);
constexpr std::pair<std::string_view, Handler> kDirectives[] = {
    {"range", read_range},         {"irange", read_range},
    {"node", read_node},           {"flow", read_flow},
    {"fault", read_fault},         {"recover", read_fault},
    {"loss", read_loss},           {"flow_arrive", read_churn},
    {"flow_depart", read_churn},   {"mobility", read_mobility},
    {"transport", read_transport}};

Draft read_directives(const std::string& text) {
  Draft d;
  std::istringstream in(text);
  std::string raw;
  for (int no = 1; std::getline(in, raw); ++no) {
    raw.erase(std::min(raw.find('#'), raw.size()));
    std::istringstream words(raw);
    Line l{no, "", {}};
    if (!(words >> l.cmd)) continue;  // blank / comment-only
    for (std::string w; words >> w;) l.args.push_back(std::move(w));
    const auto it = std::find_if(std::begin(kDirectives), std::end(kDirectives),
                                 [&](const auto& e) { return e.first == l.cmd; });
    if (it == std::end(kDirectives)) fail(no, "unknown directive '" + l.cmd + "'");
    it->second(d, l);
  }
  return d;
}

// ---- Resolve stage -----------------------------------------------------

void resolve_flows(const Draft& d, Scenario& sc) {
  for (const FlowSpec& spec : d.flows) {
    Flow f;
    f.weight = spec.weight;
    for (const std::string& label : spec.nodes) f.path.push_back(d.node(label, spec.line));
    if (f.path.size() == 2) {
      const auto path = shortest_path(sc.topo, f.path[0], f.path[1]);
      if (!path)
        fail(spec.line, "no route from " + spec.nodes[0] + " to " + spec.nodes[1]);
      f.path = *path;
    } else {
      for (std::size_t h = 0; h + 1 < f.path.size(); ++h) {
        if (!sc.topo.has_link(f.path[h], f.path[h + 1]))
          fail(spec.line, "hop " + spec.nodes[h] + " -> " + spec.nodes[h + 1] +
                              " is not a link");
      }
    }
    sc.flow_specs.push_back(std::move(f));
  }
}

void resolve_faults(const Draft& d, Scenario& sc) {
  // Per-target monotonicity: the FaultPlan applies events in file order, so
  // a fault/recover whose time precedes an earlier directive for the same
  // node or link would silently be overridden — reject it at the source.
  std::map<std::pair<NodeId, NodeId>, std::pair<double, int>> last_event;
  auto check_order = [&](NodeId a, NodeId b, double t, int line) {
    const auto key = std::make_pair(std::min(a, b), std::max(a, b));
    const auto it = last_event.find(key);
    if (it != last_event.end() && t < it->second.first)
      fail(line, strformat("out-of-order time %g: an earlier directive for the "
                           "same target (line %d) is at t=%g",
                           t, it->second.second, it->second.first));
    last_event[key] = {t, line};
  };
  for (const FaultSpec& spec : d.faults) {
    const NodeId a = d.node(spec.a, spec.line);
    if (!spec.link) {
      check_order(a, kInvalidNode, spec.at_s, spec.line);
      spec.recover ? sc.faults.node_up(a, spec.at_s)
                   : sc.faults.node_down(a, spec.at_s);
      continue;
    }
    const NodeId b = d.node(spec.b, spec.line);
    if (a == b) fail(spec.line, "link fault endpoints must differ");
    check_order(a, b, spec.at_s, spec.line);
    spec.recover ? sc.faults.link_up(a, b, spec.at_s)
                 : sc.faults.link_down(a, b, spec.at_s);
  }
  for (const LossSpec& spec : d.losses) {
    if (spec.is_default) {
      sc.faults.set_default_loss(spec.per);
      continue;
    }
    const NodeId a = d.node(spec.a, spec.line);
    const NodeId b = d.node(spec.b, spec.line);
    if (a == b) fail(spec.line, "loss endpoints must differ");
    sc.faults.set_loss(a, b, spec.per);
  }
}

// Flow churn windows. Ordinals index the flow list in file order; an
// all-default window vector is normalized away so churn-free files stay
// non-dynamic (and serialization is a fixed point).
void resolve_churn(const Draft& d, Scenario& sc) {
  if (d.churn.empty()) return;
  const int FC = static_cast<int>(sc.flow_specs.size());
  sc.activity.assign(sc.flow_specs.size(), FlowActivity{});
  std::vector<int> arrive_line(sc.flow_specs.size(), 0);
  std::vector<int> depart_line(sc.flow_specs.size(), 0);
  for (const ChurnSpec& spec : d.churn) {
    if (spec.flow >= FC)
      fail(spec.line, strformat("flow index %d out of range (%d flows defined)",
                                spec.flow, FC));
    const auto f = static_cast<std::size_t>(spec.flow);
    std::vector<int>& seen = spec.depart ? depart_line : arrive_line;
    if (seen[f] != 0)
      fail(spec.line, strformat("duplicate %s for flow %d (line %d)",
                                spec.depart ? "flow_depart" : "flow_arrive",
                                spec.flow, seen[f]));
    seen[f] = spec.line;
    (spec.depart ? sc.activity[f].stop_s : sc.activity[f].start_s) = spec.at_s;
  }
  for (std::size_t f = 0; f < sc.activity.size(); ++f) {
    if (depart_line[f] != 0 && sc.activity[f].stop_s <= sc.activity[f].start_s)
      fail(depart_line[f],
           strformat("flow_depart at or before flow %d's arrival (t=%g)",
                     static_cast<int>(f), sc.activity[f].start_s));
  }
  if (all_default_activity(sc.activity)) sc.activity.clear();
}

// Mobility walks (labels resolved now; one walk per node).
void resolve_mobility(const Draft& d, Scenario& sc) {
  std::map<NodeId, int> mob_line;
  for (const MobSpec& spec : d.mobility) {
    const NodeId n = d.node(spec.label, spec.line);
    const auto it = mob_line.find(n);
    if (it != mob_line.end())
      fail(spec.line, strformat("duplicate mobility for node %s (line %d)",
                                spec.label.c_str(), it->second));
    mob_line[n] = spec.line;
    MobilitySpec m;
    m.node = n;
    m.speed_mps = spec.speed;
    m.pause_s = spec.pause;
    m.seed = spec.seed;
    sc.mobility.push_back(m);
  }
}

}  // namespace

Scenario parse_scenario_text(const std::string& text, std::string name) {
  Draft d = read_directives(text);
  if (d.positions.empty()) throw ContractViolation("scenario file defines no nodes");
  if (d.flows.empty()) throw ContractViolation("scenario file defines no flows");

  Topology topo(std::move(d.positions), d.range,
                d.irange > 0 ? std::optional<double>(d.irange) : std::nullopt);
  topo.set_labels(d.labels);
  Scenario sc{std::move(name), std::move(topo), {}, {}};
  sc.transport = d.transport;
  resolve_flows(d, sc);
  resolve_faults(d, sc);
  resolve_churn(d, sc);
  resolve_mobility(d, sc);
  return sc;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  E2EFA_ASSERT_MSG(in.good(), "cannot open scenario file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario_text(buf.str(), path);
}

std::string serialize_scenario_text(const Scenario& sc) {
  std::string out = "# scenario: " + sc.name + "\n";
  out += strformat("range %.17g\n", sc.topo.tx_range());
  // The default (cbr) is omitted so pre-transport files round-trip
  // byte-identically.
  if (sc.transport != TransportKind::kCbr)
    out += strformat("transport %s\n", to_string(sc.transport));
  if (sc.topo.interference_range() != sc.topo.tx_range())
    out += strformat("irange %.17g\n", sc.topo.interference_range());
  for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
    const Point& p = sc.topo.position(n);
    const std::string label = sc.topo.label(n);
    E2EFA_ASSERT_MSG(!label.empty() &&
                         label.find_first_of(" \t#") == std::string::npos,
                     "node label is not a serializable token");
    out += strformat("node %s %.17g %.17g\n", label.c_str(), p.x, p.y);
  }
  for (const Flow& f : sc.flow_specs) {
    // Multi-hop paths are written explicitly: a 2-endpoint form would be
    // re-routed min-hop on parse, and a routing tie could pick a different
    // path. Single-hop flows have no tie to break.
    out += "flow";
    for (NodeId n : f.path) {
      out += ' ';
      out += sc.topo.label(n);
    }
    out += strformat(" weight %.17g\n", f.weight);
  }
  if (!sc.activity.empty()) {
    E2EFA_ASSERT_MSG(sc.activity.size() == sc.flow_specs.size(),
                     "scenario activity size mismatch");
    for (std::size_t f = 0; f < sc.activity.size(); ++f) {
      const FlowActivity& w = sc.activity[f];
      if (w.start_s != 0.0)
        out += strformat("flow_arrive %d %.17g\n", static_cast<int>(f), w.start_s);
      if (w.stop_s != kFlowNeverStops)
        out += strformat("flow_depart %d %.17g\n", static_cast<int>(f), w.stop_s);
    }
  }
  {
    // Sorted by node so the output is canonical whatever order the specs
    // were added in; pause and seed are always written (their defaults are
    // unambiguous), which makes serialization a fixed point under re-parse.
    std::vector<MobilitySpec> mob = sc.mobility;
    std::sort(mob.begin(), mob.end(),
              [](const MobilitySpec& a, const MobilitySpec& b) {
                return a.node < b.node;
              });
    for (const MobilitySpec& m : mob)
      out += strformat("mobility %s speed %.17g pause %.17g seed %llu\n",
                       sc.topo.label(m.node).c_str(), m.speed_mps, m.pause_s,
                       static_cast<unsigned long long>(m.seed));
  }
  for (const FaultEvent& e : sc.faults.events()) {
    const char* cmd =
        e.kind == FaultEvent::Kind::kNodeDown || e.kind == FaultEvent::Kind::kLinkDown
            ? "fault"
            : "recover";
    const bool link = e.kind == FaultEvent::Kind::kLinkDown ||
                      e.kind == FaultEvent::Kind::kLinkUp;
    if (link)
      out += strformat("%s link %s %s %.17g\n", cmd,
                       sc.topo.label(e.node).c_str(), sc.topo.label(e.peer).c_str(),
                       e.at_s);
    else
      out += strformat("%s node %s %.17g\n", cmd, sc.topo.label(e.node).c_str(),
                       e.at_s);
  }
  for (const LossRule& r : sc.faults.loss_rules())
    out += strformat("loss %s %s %.17g\n", sc.topo.label(r.a).c_str(),
                     sc.topo.label(r.b).c_str(), r.per);
  if (sc.faults.default_loss() > 0.0)
    out += strformat("loss default %.17g\n", sc.faults.default_loss());
  return out;
}

}  // namespace e2efa
