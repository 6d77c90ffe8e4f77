#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <sstream>

#include "ctrl/messages.hpp"
#include "phy/frame.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace e2efa {

namespace {

// Report names come from the enums' owners.
const char* ctrl_kind_name(int kind) {
  return to_string(static_cast<CtrlMsg::Kind>(kind));
}

const char* frame_type_name(int type) {
  return to_string(static_cast<FrameType>(type));
}

}  // namespace

std::vector<std::size_t> ConvergenceReport::epoch_windows(int epoch) const {
  std::vector<std::size_t> out;
  if (epoch < 0 || static_cast<std::size_t>(epoch) >= epochs.size()) return out;
  const double start = epochs[static_cast<std::size_t>(epoch)].start_s;
  const double end = static_cast<std::size_t>(epoch) + 1 < epochs.size()
                         ? epochs[static_cast<std::size_t>(epoch) + 1].start_s
                         : std::numeric_limits<double>::infinity();
  for (std::size_t w = 0; w < window_end_s.size(); ++w) {
    const double w_start = window_end_s[w] - window_s;
    // Half-window slack on the epoch start absorbs boundaries that fall
    // mid-window; the window must end before the next epoch begins.
    if (w_start >= start - 0.5 * window_s && window_end_s[w] <= end + 1e-9)
      out.push_back(w);
  }
  return out;
}

double ConvergenceReport::steady_jain(int epoch) const {
  const std::vector<std::size_t> ws = epoch_windows(epoch);
  if (ws.empty()) return 0.0;
  const std::size_t half = ws.size() / 2;
  double sum = 0.0;
  for (std::size_t i = half; i < ws.size(); ++i) sum += jain[ws[i]];
  return sum / static_cast<double>(ws.size() - half);
}

ConvergenceReport analyze_convergence(const std::vector<TraceRecord>& records,
                                      double window_s, double eps) {
  ConvergenceReport rep;
  rep.window_s = window_s;

  TimeNs t_max = 0;
  for (const TraceRecord& r : records) {
    t_max = std::max(t_max, r.t);
    switch (r.event()) {
      case TraceEvent::kRunMeta:
        rep.flow_count = r.b;
        rep.channel_bps = r.v0;
        rep.payload_bytes = r.v1;
        break;
      case TraceEvent::kLpResolve: {
        ConvergenceReport::Epoch e;
        e.index = r.a;
        e.start_s = r.v0;
        e.lp_status = r.b;
        rep.epochs.push_back(std::move(e));
        break;
      }
      case TraceEvent::kFlowTarget:
        // Targets follow their epoch's kLpResolve record in emission order.
        if (!rep.epochs.empty()) {
          auto& targets = rep.epochs.back().target_share;
          if (static_cast<std::size_t>(r.a) >= targets.size())
            targets.resize(static_cast<std::size_t>(r.a) + 1, 0.0);
          targets[static_cast<std::size_t>(r.a)] = r.v0;
        }
        break;
      default:
        break;
    }
  }
  if (rep.flow_count <= 0 || window_s <= 0.0) return rep;

  const std::size_t windows =
      static_cast<std::size_t>(std::ceil(to_seconds(t_max) / window_s));
  if (windows == 0) return rep;
  std::vector<std::vector<std::int64_t>> counts(
      windows, std::vector<std::int64_t>(static_cast<std::size_t>(rep.flow_count), 0));
  for (const TraceRecord& r : records) {
    if (r.event() != TraceEvent::kDelivery) continue;
    const std::size_t w = std::min(
        windows - 1,
        static_cast<std::size_t>(to_seconds(r.t) / window_s));
    if (r.a >= 0 && r.a < rep.flow_count)
      counts[w][static_cast<std::size_t>(r.a)]++;
  }

  const double window_bits = window_s * rep.channel_bps;
  for (std::size_t w = 0; w < windows; ++w) {
    rep.window_end_s.push_back(static_cast<double>(w + 1) * window_s);
    std::vector<double> share;
    for (std::int64_t c : counts[w])
      share.push_back(window_bits > 0.0
                          ? static_cast<double>(c) * 8.0 * rep.payload_bytes /
                                window_bits
                          : 0.0);
    rep.window_share.push_back(std::move(share));
  }

  // Per-window Jain: normalize by the targets of the epoch active at the
  // window's end when targets exist; raw rates otherwise.
  for (std::size_t w = 0; w < windows; ++w) {
    const std::vector<double>* targets = nullptr;
    for (const auto& e : rep.epochs)
      if (e.start_s <= rep.window_end_s[w] - 0.5 * window_s + 1e-9 &&
          !e.target_share.empty())
        targets = &e.target_share;
    if (targets != nullptr) {
      rep.jain.push_back(
          jain_fairness_index(normalized_by(rep.window_share[w], *targets)));
    } else {
      rep.jain.push_back(jain_fairness_index(rep.window_share[w]));
    }
  }

  for (std::size_t ei = 0; ei < rep.epochs.size(); ++ei) {
    const auto& e = rep.epochs[ei];
    ConvergenceReport::EpochConvergence c;
    c.epoch = e.index;
    c.epoch_start_s = e.start_s;
    for (std::size_t w : rep.epoch_windows(static_cast<int>(ei))) {
      // Proportional test: MAC/RTS overhead scales every flow's absolute
      // goodput well below its nominal share of B, so compare the
      // *normalized* rates u_f = measured/target against their cross-flow
      // mean — converged when the allocation's proportions match phase 1.
      std::vector<double> u;
      for (std::size_t f = 0; f < e.target_share.size(); ++f) {
        const double target = e.target_share[f];
        if (target <= 0.0) continue;  // suspended/inactive flow
        const double got =
            f < rep.window_share[w].size() ? rep.window_share[w][f] : 0.0;
        u.push_back(got / target);
      }
      bool ok = !u.empty();
      double mean = 0.0;
      for (double x : u) mean += x;
      if (ok) mean /= static_cast<double>(u.size());
      if (mean <= 0.0) ok = false;
      for (std::size_t f = 0; f < u.size() && ok; ++f)
        if (std::abs(u[f] - mean) > eps * mean) ok = false;
      if (ok) {
        c.converged = true;
        c.converged_s = rep.window_end_s[w];
        c.time_to_converge_s = c.converged_s - e.start_s;
        break;
      }
    }
    rep.convergence.push_back(c);
  }
  return rep;
}

std::string format_flow_timeline(const std::vector<TraceRecord>& records,
                                 int flow, std::size_t limit) {
  std::ostringstream os;
  std::size_t shown = 0;
  std::vector<std::int64_t> delivered;
  for (const TraceRecord& r : records) {
    const TraceEvent e = r.event();
    const bool milestone = e == TraceEvent::kLpResolve ||
                           e == TraceEvent::kFaultEpoch ||
                           e == TraceEvent::kFlowTarget ||
                           e == TraceEvent::kMacDrop;
    const bool is_delivery = e == TraceEvent::kDelivery;
    if (!milestone && !is_delivery) continue;
    const int rec_flow = is_delivery || e == TraceEvent::kFlowTarget ? r.a : -1;
    if (flow >= 0 && rec_flow >= 0 && rec_flow != flow) continue;
    if (is_delivery) {
      const std::size_t f = static_cast<std::size_t>(r.a);
      if (f >= delivered.size()) delivered.resize(f + 1, 0);
      ++delivered[f];
    }
    if (limit != 0 && shown >= limit) continue;  // keep counting deliveries
    ++shown;
    os << strformat("%12.6f s  %-20s", to_seconds(r.t), to_string(e));
    switch (e) {
      case TraceEvent::kDelivery:
        os << strformat(" flow %d at node %d, delay %.1f ms", r.a,
                        static_cast<int>(r.node), r.v0 * 1e3);
        break;
      case TraceEvent::kFlowTarget:
        os << strformat(" flow %d target %.4fB", r.a, r.v0);
        break;
      case TraceEvent::kLpResolve:
        os << strformat(" epoch %d (lp status %d)", r.a, r.b);
        break;
      case TraceEvent::kFaultEpoch:
        os << strformat(" epoch %d at %.2f s", r.a, r.v0);
        break;
      case TraceEvent::kMacDrop:
        os << strformat(" node %d subflow %d after %d retries",
                        static_cast<int>(r.node), r.a, r.b);
        break;
      default:
        break;
    }
    os << "\n";
  }
  os << "\ndeliveries:";
  for (std::size_t f = 0; f < delivered.size(); ++f) {
    if (flow >= 0 && static_cast<int>(f) != flow) continue;
    os << strformat(" flow %zu = %lld", f, static_cast<long long>(delivered[f]));
  }
  os << "\n";
  return os.str();
}

std::string format_trace_summary(const std::vector<TraceRecord>& records) {
  std::map<std::uint16_t, std::uint64_t> counts;
  TimeNs t_max = 0;
  bool any_ctrl = false;
  std::map<int, std::uint64_t> retx_by_kind;
  std::uint64_t seq_gap_events = 0, seq_gap_missed = 0;
  std::vector<const TraceRecord*> reconv;
  // Elastic-transport health, keyed by flow: retransmits split by cause
  // (kTransRetransmit b = 1 timeout / 0 dupack), RTO count, and the last
  // kTransCwnd record's cwnd / srtt (the controller's final state).
  struct TransFlow {
    std::uint64_t retx_timeout = 0, retx_dupack = 0, timeouts = 0;
    double final_cwnd = 0.0, final_srtt_s = 0.0;
    bool saw_cwnd = false;
  };
  std::map<std::int32_t, TransFlow> trans;
  for (const TraceRecord& r : records) {
    ++counts[r.type];
    t_max = std::max(t_max, r.t);
    if (r.type < kTraceEventCount &&
        trace_category(r.event()) == TraceCat::kCtrl)
      any_ctrl = true;
    switch (r.event()) {
      case TraceEvent::kCtrlRetransmit:
        ++retx_by_kind[r.a];
        break;
      case TraceEvent::kCtrlSeqGap:
        ++seq_gap_events;
        seq_gap_missed += r.b > 0 ? static_cast<std::uint64_t>(r.b) : 0;
        break;
      case TraceEvent::kCtrlReconv:
        reconv.push_back(&r);
        break;
      case TraceEvent::kTransRetransmit:
        ++(r.b == 1 ? trans[r.a].retx_timeout : trans[r.a].retx_dupack);
        break;
      case TraceEvent::kTransTimeout:
        ++trans[r.a].timeouts;
        break;
      case TraceEvent::kTransCwnd: {
        TransFlow& tf = trans[r.a];
        tf.final_cwnd = r.v0;
        tf.final_srtt_s = r.v1;
        tf.saw_cwnd = true;
        break;
      }
      default:
        break;
    }
  }
  std::ostringstream os;
  os << records.size() << " records, horizon " << strformat("%.6f", to_seconds(t_max))
     << " s\n";
  for (const auto& [type, n] : counts)
    os << strformat("  %-20s %llu\n",
                    to_string(static_cast<TraceEvent>(type)),
                    static_cast<unsigned long long>(n));
  if (any_ctrl) {
    std::uint64_t retx_total = 0;
    for (const auto& [kind, n] : retx_by_kind) retx_total += n;
    os << "ctrl health:\n";
    os << strformat("  retransmits          %llu",
                    static_cast<unsigned long long>(retx_total));
    if (retx_total > 0) {
      os << " (";
      bool first = true;
      for (const auto& [kind, n] : retx_by_kind) {
        if (!first) os << ", ";
        first = false;
        os << strformat("%s %llu", ctrl_kind_name(kind),
                        static_cast<unsigned long long>(n));
      }
      os << ")";
    }
    os << "\n";
    os << strformat("  seq gaps             %llu (%llu messages missed)\n",
                    static_cast<unsigned long long>(seq_gap_events),
                    static_cast<unsigned long long>(seq_gap_missed));
    for (const TraceRecord* r : reconv)
      os << strformat("  reconv epoch %-7d %.3f s (boundary %.2f s)\n", r->a,
                      r->v0, r->v1);
  }
  if (!trans.empty()) {
    os << "transport:\n";
    for (const auto& [flow, tf] : trans) {
      os << strformat("  flow %-14d %llu retransmits (%llu timeout, %llu "
                      "dupack), %llu RTOs",
                      flow,
                      static_cast<unsigned long long>(tf.retx_timeout +
                                                      tf.retx_dupack),
                      static_cast<unsigned long long>(tf.retx_timeout),
                      static_cast<unsigned long long>(tf.retx_dupack),
                      static_cast<unsigned long long>(tf.timeouts));
      if (tf.saw_cwnd)
        os << strformat(", final cwnd %.1f, srtt %.1f ms", tf.final_cwnd,
                        tf.final_srtt_s * 1e3);
      os << "\n";
    }
  }
  return os.str();
}

// ---- Causal span graph + follow / chrome exports (observability v2). ----

SpanGraph build_span_graph(const std::vector<TraceRecord>& records) {
  SpanGraph g;
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records[i].span != 0) g.owner.emplace(records[i].span, i);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    if (r.parent != 0) g.children[r.parent].push_back(i);
    if (r.span != 0 && (r.parent == 0 || g.owner.count(r.parent) == 0))
      g.roots.push_back(i);
  }
  return g;
}

namespace {

/// One-line human description of a record for the follow report.
std::string describe_record(const TraceRecord& r) {
  switch (r.event()) {
    case TraceEvent::kCtrlSend:
      return r.b < 0 ? strformat("node %d broadcasts %s seq %.0f (%g B)",
                                 static_cast<int>(r.node), ctrl_kind_name(r.a),
                                 r.v1, r.v0)
                     : strformat("node %d sends %s to node %d seq %.0f (%g B)",
                                 static_cast<int>(r.node), ctrl_kind_name(r.a),
                                 r.b, r.v1, r.v0);
    case TraceEvent::kCtrlRecv:
      return strformat("node %d receives %s from node %d%s",
                       static_cast<int>(r.node), ctrl_kind_name(r.a), r.b,
                       r.v1 != 0.0 ? " (piggybacked)" : "");
    case TraceEvent::kCtrlSolve:
      return strformat("node %d solves flow %d -> %.4fB (lp status %d)",
                       static_cast<int>(r.node), r.a, r.v0, r.b);
    case TraceEvent::kCtrlRate:
      return strformat("node %d applies lane %d (flow %d) share %.4fB",
                       static_cast<int>(r.node), r.a, r.b, r.v0);
    case TraceEvent::kCtrlAdmit:
      return strformat("node %d local admit verdict for flow %d: %s (load %.3f)",
                       static_cast<int>(r.node), r.a,
                       r.b != 0 ? "admit" : "reject", r.v0);
    case TraceEvent::kCtrlRetransmit:
      return strformat("node %d retransmits %s (flow %d), attempt %.0f, backoff %.0f ticks",
                       static_cast<int>(r.node), ctrl_kind_name(r.a), r.b,
                       r.v0, r.v1);
    case TraceEvent::kCtrlSeqGap:
      return strformat("node %d sequence gap from node %d: %d missed (expected %.0f, got %.0f)",
                       static_cast<int>(r.node), r.a, r.b, r.v0, r.v1);
    case TraceEvent::kFrameTx:
      return strformat("node %d tx %s -> %s (%g B)%s", static_cast<int>(r.node),
                       frame_type_name(r.a),
                       r.b < 0 ? "bcast" : strformat("node %d", r.b).c_str(),
                       r.v0, r.v1 != 0.0 ? " [RF-silent]" : "");
    case TraceEvent::kFrameRx:
      return strformat("node %d rx %s from node %d", static_cast<int>(r.node),
                       frame_type_name(r.a), r.b);
    case TraceEvent::kFrameCollision:
      return strformat("collision at node %d (sender %d)",
                       static_cast<int>(r.node), r.b);
    case TraceEvent::kFrameFaulted:
      return strformat("fault loss at node %d (sender %d, %s)",
                       static_cast<int>(r.node), r.b,
                       r.a == 0 ? "dead node/link" : "loss draw");
    default:
      return strformat("%s node %d a=%d b=%d v0=%g v1=%g", to_string(r.event()),
                       static_cast<int>(r.node), r.a, r.b, r.v0, r.v1);
  }
}

/// True when the record mentions logical flow `flow` in a causal sense.
bool touches_flow(const TraceRecord& r, int flow) {
  switch (r.event()) {
    case TraceEvent::kCtrlSolve:
    case TraceEvent::kCtrlAdmit: return r.a == flow;
    case TraceEvent::kCtrlRate:
    case TraceEvent::kCtrlRetransmit: return r.b == flow;
    default: return false;
  }
}

}  // namespace

std::string format_follow(const std::vector<TraceRecord>& records, int flow,
                          std::size_t limit) {
  const SpanGraph g = build_span_graph(records);
  std::ostringstream os;
  std::size_t shown = 0, matched = 0;
  for (std::size_t root : g.roots) {
    // Collect the subtree (spans are emitted parent-first, so a simple
    // stack walk terminates; depth caps runaway data defensively).
    std::vector<std::pair<std::size_t, int>> tree;  // (record index, depth)
    std::vector<std::pair<std::size_t, int>> stack{{root, 0}};
    bool hits_flow = flow < 0;
    while (!stack.empty()) {
      const auto [i, depth] = stack.back();
      stack.pop_back();
      tree.emplace_back(i, depth);
      if (touches_flow(records[i], flow)) hits_flow = true;
      if (records[i].span != 0 && depth < 64) {
        const auto it = g.children.find(records[i].span);
        if (it != g.children.end())
          // Reverse push so children come out of the stack in time order.
          for (auto c = it->second.rbegin(); c != it->second.rend(); ++c)
            stack.emplace_back(*c, depth + 1);
      }
    }
    if (!hits_flow) continue;
    ++matched;
    if (limit != 0 && shown >= limit) continue;  // keep counting matches
    ++shown;
    for (const auto& [i, depth] : tree) {
      const TraceRecord& r = records[i];
      os << strformat("%12.6f s  ", to_seconds(r.t));
      for (int d = 0; d < depth; ++d) os << "  ";
      os << (depth == 0 ? "" : "-> ") << describe_record(r);
      if (r.span != 0) os << strformat("  [span %u]", r.span);
      os << "\n";
    }
    os << "\n";
  }
  os << strformat("%zu causal chains", matched);
  if (flow >= 0) os << strformat(" touching flow %d", flow);
  if (matched > shown) os << strformat(" (%zu shown)", shown);
  os << "\n";
  return os.str();
}

std::string format_chrome_trace(const std::vector<TraceRecord>& records) {
  // Track layout: one pid for the whole run, tid 0 = run-global records,
  // tid n+1 = node n. kFrameTx becomes a duration slice (airtime derived
  // from kRunMeta's channel rate); every other record an instant; span
  // parent->child edges become flow arrows ("s"/"f" pairs sharing an id).
  double channel_bps = 0.0;
  int node_count = 0;
  for (const TraceRecord& r : records) {
    if (r.event() == TraceEvent::kRunMeta) {
      channel_bps = r.v0;
      node_count = r.a;
    }
    node_count = std::max(node_count, static_cast<int>(r.node) + 1);
  }
  const SpanGraph g = build_span_graph(records);
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    if (!first) os << ",";
    first = false;
    os << "\n" << ev;
  };
  emit("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"e2efa-sim\"}}");
  emit("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
       "\"args\":{\"name\":\"run\"}}");
  for (int n = 0; n < node_count; ++n)
    emit(strformat("{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\","
                   "\"args\":{\"name\":\"node %d\"}}",
                   n + 1, n));
  auto tid_of = [](const TraceRecord& r) {
    return r.node < 0 ? 0 : static_cast<int>(r.node) + 1;
  };
  auto ts_of = [](TimeNs t) { return static_cast<double>(t) / 1e3; };  // µs
  for (const TraceRecord& r : records) {
    const std::string args = strformat(
        "{\"a\":%d,\"b\":%d,\"v0\":%.17g,\"v1\":%.17g,\"span\":%u,\"parent\":%u}",
        r.a, r.b, r.v0, r.v1, r.span, r.parent);
    if (r.event() == TraceEvent::kFrameTx && channel_bps > 0.0 && r.v1 == 0.0) {
      const double dur_us = r.v0 * 8.0 / channel_bps * 1e6;
      emit(strformat("{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"name\":\"tx %s\",\"args\":%s}",
                     tid_of(r), ts_of(r.t), dur_us, frame_type_name(r.a),
                     args.c_str()));
    } else {
      emit(strformat("{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\","
                     "\"name\":\"%s\",\"args\":%s}",
                     tid_of(r), ts_of(r.t), to_string(r.event()), args.c_str()));
    }
  }
  // Causal arrows: one flow-event pair per parent->child edge.
  std::uint64_t edge_id = 0;
  for (const auto& [span, kids] : g.children) {
    const auto parent_it = g.owner.find(span);
    if (parent_it == g.owner.end()) continue;
    const TraceRecord& p = records[parent_it->second];
    for (std::size_t ci : kids) {
      const TraceRecord& c = records[ci];
      ++edge_id;
      emit(strformat("{\"ph\":\"s\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                     "\"id\":%llu,\"cat\":\"span\",\"name\":\"span\"}",
                     tid_of(p), ts_of(p.t),
                     static_cast<unsigned long long>(edge_id)));
      emit(strformat("{\"ph\":\"f\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                     "\"id\":%llu,\"cat\":\"span\",\"name\":\"span\",\"bp\":\"e\"}",
                     tid_of(c), ts_of(c.t),
                     static_cast<unsigned long long>(edge_id)));
    }
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace e2efa
