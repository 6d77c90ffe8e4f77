#include "net/node_stack.hpp"

#include <limits>

#include "check/check.hpp"
#include "util/assert.hpp"

namespace e2efa {

NodeStack::NodeStack(Simulator& sim, Channel& channel, NodeId self, const FlowSet& flows,
                     TrafficStats& stats, const MacConfig& mac_cfg,
                     std::unique_ptr<TxQueue> queue, std::unique_ptr<BackoffPolicy> backoff,
                     Rng mac_rng, TagScheduler* tags)
    : sim_(sim),
      self_(self),
      flows_(flows),
      stats_(stats),
      queue_(std::move(queue)),
      backoff_(std::move(backoff)) {
  E2EFA_ASSERT(queue_ != nullptr && backoff_ != nullptr);
  mac_ = std::make_unique<DcfMac>(sim, channel, self, mac_cfg, *queue_, *backoff_, *this,
                                  mac_rng, tags);
}

void NodeStack::enqueue_and_notify(Packet p) {
  SubflowCounters& c = stats_.subflow(p.subflow);
  const bool measuring = stats_.measuring(sim_.now());
  const std::int32_t subflow = p.subflow;
  // backlog() walks the scheduler lanes — gate on the category, not just
  // the sink, so a filtered trace costs nothing here.
  if (check_ != nullptr) check_->on_offered(subflow);
  if (queue_->enqueue(p, sim_.now())) {
    if (measuring) ++c.enqueued;
    if (check_ != nullptr) check_->on_accepted(subflow);
    if (trace_ != nullptr && trace_->enabled(TraceEvent::kQueueEnqueue))
      trace_->record(sim_.now(), TraceEvent::kQueueEnqueue,
                     static_cast<std::int16_t>(self_), subflow,
                     queue_->backlog());
    mac_->notify_queue_nonempty();
  } else {
    if (measuring) ++c.dropped_queue;
    if (check_ != nullptr) check_->on_rejected(subflow);
    if (trace_ != nullptr && trace_->enabled(TraceEvent::kQueueDrop))
      trace_->record(sim_.now(), TraceEvent::kQueueDrop,
                     static_cast<std::int16_t>(self_), subflow,
                     queue_->backlog());
  }
}

void NodeStack::inject_from_source(Packet p, FlowId flow) {
  const Flow& f = flows_.flow(flow);
  E2EFA_ASSERT_MSG(f.source() == self_, "source packet injected at wrong node");
  p.flow = flow;
  p.hop = 0;
  p.subflow = flows_.subflow_index(flow, 0);
  p.src = self_;
  p.dst = f.path[1];
  if (stats_.measuring(sim_.now())) ++stats_.subflow(p.subflow).generated;
  enqueue_and_notify(p);
}

void NodeStack::on_packet_delivered(const Packet& p) {
  E2EFA_ASSERT(p.dst == self_);
  // Sentinel is max(): real uids count up from 1, but unit harnesses may
  // hand-build packets with the default uid of 0.
  auto [it, inserted] = last_uid_.try_emplace(
      p.subflow, std::numeric_limits<std::uint64_t>::max());
  if (p.uid == it->second) return;  // duplicate (lost ACK, sender retried)
  it->second = p.uid;
  if (stats_.measuring(sim_.now())) ++stats_.subflow(p.subflow).delivered;
  if (check_ != nullptr) check_->on_delivered(p.subflow);

  const Flow& f = flows_.flow(p.flow);
  if (p.hop + 1 >= f.length()) {
    // The transport sink (ACK plane) decides whether this sequence is a
    // first arrival; a retransmitted copy is acked but not counted.
    const bool fresh =
        transport_sink_ == nullptr || transport_sink_(p, sim_.now());
    if (!fresh) return;
    if (stats_.measuring(sim_.now()))
      stats_.record_delay(p.flow, sim_.now() - p.created);
    stats_.notify_end_to_end(p.flow, sim_.now(), sim_.now() - p.created);
    return;  // reached the destination
  }
  Packet fwd = p;
  ++fwd.hop;
  fwd.subflow = flows_.subflow_index(fwd.flow, fwd.hop);
  fwd.src = self_;
  fwd.dst = f.path[static_cast<std::size_t>(fwd.hop) + 1];
  enqueue_and_notify(fwd);
}

void NodeStack::on_packet_sent(const Packet& p) {
  if (check_ != nullptr) check_->on_sent(p.subflow);
}

void NodeStack::on_packet_dropped(const Packet& p) {
  if (stats_.measuring(sim_.now())) ++stats_.subflow(p.subflow).dropped_mac;
  if (check_ != nullptr) check_->on_mac_dropped(p.subflow);
  if (on_link_failure_) on_link_failure_(p, sim_.now());
}

}  // namespace e2efa
