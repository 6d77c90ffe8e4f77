#include "sched/tag_scheduler.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "phy/frame.hpp"
#include "util/assert.hpp"

namespace e2efa {

TagScheduler::TagScheduler(std::vector<SubflowConfig> subflows, int per_queue_capacity,
                           double alpha, TimeNs tag_horizon)
    : capacity_(per_queue_capacity),
      alpha_(alpha),
      tag_horizon_(tag_horizon) {
  E2EFA_ASSERT(per_queue_capacity >= 1);
  E2EFA_ASSERT(alpha >= 0.0);
  E2EFA_ASSERT(tag_horizon > 0);
  for (const SubflowConfig& cfg : subflows) {
    E2EFA_ASSERT_MSG(cfg.share > 0.0, "subflow share must be positive");
    E2EFA_ASSERT_MSG(lane_index(cfg.subflow) < 0, "duplicate subflow");
    lanes_.push_back(Lane{cfg, {}});
    node_share_ += cfg.share;
  }
}

double TagScheduler::packet_vtime(const Packet& p) const {
  // Payload airtime at full channel rate, in µs.
  return 8.0 * static_cast<double>(p.payload_bytes) / static_cast<double>(kChannelBps) * 1e6;
}

int TagScheduler::lane_index(std::int32_t subflow) const {
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    if (lanes_[i].cfg.subflow == subflow) return static_cast<int>(i);
  return -1;
}

TagScheduler::Lane& TagScheduler::lane_of(std::int32_t subflow) {
  const int i = lane_index(subflow);
  E2EFA_ASSERT_MSG(i >= 0, "packet for a subflow this node does not originate");
  return lanes_[static_cast<std::size_t>(i)];
}

void TagScheduler::assign_head_tags(Lane& lane) {
  E2EFA_ASSERT(!lane.q.empty());
  const double vt = packet_vtime(lane.q.front());
  lane.start_tag = vclock_;
  lane.internal_finish =
      std::max(lane.start_tag, lane.last_internal_finish) + vt / lane.cfg.share;
  lane.external_finish = lane.start_tag + vt / node_share_;
  if (trace_ != nullptr) {
    trace_->record(trace_now_, TraceEvent::kTagStart, trace_node_,
                   lane.cfg.subflow, -1, lane.start_tag);
    trace_->record(trace_now_, TraceEvent::kTagInternalFinish,
                   trace_node_, lane.cfg.subflow, -1,
                   lane.internal_finish);
    trace_->record(trace_now_, TraceEvent::kTagExternalFinish,
                   trace_node_, lane.cfg.subflow, -1,
                   lane.external_finish);
  }
}

void TagScheduler::set_vclock(double v) {
  if (v == vclock_) return;
  if (trace_ != nullptr)
    trace_->record(trace_now_, TraceEvent::kVClockUpdate,
                   trace_node_, -1, -1, v, vclock_);
  if (check_ != nullptr) check_->on_vclock(check_node_, vclock_, v, trace_now_);
  vclock_ = v;
}

bool TagScheduler::enqueue(Packet p, TimeNs now) {
  Lane& lane = lane_of(p.subflow);
  if (static_cast<int>(lane.q.size()) >= capacity_) return false;

  // Join synchronization: after a long idle gap, fast-forward the virtual
  // clock to the freshest overheard tag so this node re-enters contention
  // without an enormous apparent service deficit (which would otherwise
  // starve its neighbors until the tags converge). A grace window keeps
  // the sync open for nodes whose tables were still empty here.
  trace_now_ = now;
  const bool was_empty = !has_packet();
  if (was_empty && (last_busy_ == kInvalidTime || now - last_busy_ > tag_horizon_)) {
    double synced = vclock_;
    for (const auto& [subflow, e] : tag_table_) {
      if (fresh(e, now)) synced = std::max(synced, e.tag);
    }
    set_vclock(synced);
    // Keep the grace short: long enough for a neighbor to echo our first
    // packets (bootstrapping an empty table), short enough that a node
    // building up a legitimate service deficit stops adopting its
    // neighbors' clocks — that deficit is the fairness signal.
    sync_grace_until_ = now + tag_horizon_ / 8;
  }
  last_busy_ = now;

  lane.q.push_back(p);
  if (check_ != nullptr)
    check_->on_lane_enqueue(check_node_, lane.cfg.subflow,
                            static_cast<int>(lane.q.size()), now);
  // NOTE: an arrival never displaces the currently selected head — the MAC
  // may already be mid-exchange with it; re-selection happens at pop time.
  if (lane.q.size() == 1) assign_head_tags(lane);
  return true;
}

bool TagScheduler::has_packet() const {
  return std::any_of(lanes_.begin(), lanes_.end(),
                     [](const Lane& l) { return !l.q.empty(); });
}

void TagScheduler::select_head() const {
  if (selected_ >= 0 && !lanes_[static_cast<std::size_t>(selected_)].q.empty()) return;
  int best = -1;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& l = lanes_[i];
    if (l.q.empty()) continue;
    if (best < 0 || l.internal_finish < lanes_[static_cast<std::size_t>(best)].internal_finish)
      best = static_cast<int>(i);
  }
  E2EFA_ASSERT_MSG(best >= 0, "head() on empty scheduler");
  selected_ = best;
}

const Packet& TagScheduler::head() const {
  select_head();
  return lanes_[static_cast<std::size_t>(selected_)].q.front();
}

Packet TagScheduler::pop_selected() {
  select_head();
  Lane& lane = lanes_[static_cast<std::size_t>(selected_)];
  Packet p = lane.q.front();
  if (check_ != nullptr)
    check_->on_lane_serve(check_node_, lane.cfg.subflow, lane.internal_finish,
                          trace_now_);
  lane.q.pop_front();
  lane.last_internal_finish = lane.internal_finish;
  if (!lane.q.empty()) assign_head_tags(lane);
  selected_ = -1;
  return p;
}

Packet TagScheduler::pop_success(TimeNs now) {
  trace_now_ = now;
  select_head();
  // Advance the virtual clock by the external service time of the packet
  // just sent (step (4) of the algorithm): every successful transmission
  // consumes L/c of node-level virtual time — except while every lane is
  // parked at the inactive floor (see kInactiveShare).
  const bool parked = std::all_of(lanes_.begin(), lanes_.end(), [](const Lane& l) {
    return l.cfg.share <= kInactiveShare;
  });
  if (!parked) {
    const Lane& lane = lanes_[static_cast<std::size_t>(selected_)];
    set_vclock(std::max(vclock_ + packet_vtime(lane.q.front()) / node_share_,
                        lane.external_finish));
  }
  last_busy_ = now;
  return pop_selected();
}

Packet TagScheduler::pop_drop(TimeNs now) {
  trace_now_ = now;
  last_busy_ = now;
  return pop_selected();
}

int TagScheduler::backlog() const {
  int n = 0;
  for (const Lane& l : lanes_) n += static_cast<int>(l.q.size());
  return n;
}

void TagScheduler::update_share(std::int32_t subflow, double share) {
  E2EFA_ASSERT_MSG(share > 0.0, "subflow share must be positive");
  if (check_ != nullptr) check_->on_share_update(check_node_, subflow);
  Lane& lane = lane_of(subflow);
  node_share_ += share - lane.cfg.share;
  lane.cfg.share = share;
  // Re-derive tags under the new share; the SFQ continuation restarts from
  // the current virtual clock so a raised share takes effect immediately.
  lane.last_internal_finish = std::min(lane.last_internal_finish, vclock_);
  if (!lane.q.empty()) assign_head_tags(lane);
  // All external finish tags shift with the node share; refresh every head.
  // NOTE: the current selection is intentionally kept — the MAC may be
  // mid-exchange with the latched head; new shares apply from the next
  // selection after pop.
  for (Lane& l : lanes_)
    if (!l.q.empty() && &l != &lane)
      l.external_finish = l.start_tag + packet_vtime(l.q.front()) / node_share_;
}

double TagScheduler::share_of(std::int32_t subflow) const {
  const int i = lane_index(subflow);
  E2EFA_ASSERT_MSG(i >= 0, "share_of: subflow has no lane at this node");
  return lanes_[static_cast<std::size_t>(i)].cfg.share;
}

double TagScheduler::head_tag() const {
  select_head();
  return lanes_[static_cast<std::size_t>(selected_)].start_tag;
}

std::int32_t TagScheduler::head_subflow() const {
  select_head();
  return lanes_[static_cast<std::size_t>(selected_)].cfg.subflow;
}

void TagScheduler::observe_tag(std::int32_t subflow, double tag, TimeNs now) {
  // Only neighbor subflows belong in the table.
  if (lane_index(subflow) >= 0) return;
  tag_table_[subflow] = TableEntry{tag, now};
  // Inside the join grace window, adopt larger overheard clocks (see the
  // header for why this cannot erase a legitimate fairness advantage).
  if (now <= sync_grace_until_ && tag > vclock_) {
    trace_now_ = now;
    set_vclock(tag);
    for (Lane& l : lanes_)
      if (!l.q.empty()) assign_head_tags(l);
  }
}

double TagScheduler::q_slots(TimeNs now) const {
  if (tag_table_.empty() || !has_packet()) return 0.0;
  const double s = head_tag();
  double sum = 0.0;
  int counted = 0;
  for (const auto& [subflow, e] : tag_table_) {
    if (!fresh(e, now)) continue;
    sum += s - e.tag;
    ++counted;
  }
  return counted > 0 ? alpha_ * sum : 0.0;
}

double TagScheduler::r_slots_for(std::int32_t data_subflow, TimeNs now) const {
  const auto it = tag_table_.find(data_subflow);
  if (it == tag_table_.end() || !fresh(it->second, now)) return 0.0;
  const double r_i = it->second.tag;
  double sum = 0.0;
  for (const auto& [subflow, e] : tag_table_) {
    if (subflow == data_subflow || !fresh(e, now)) continue;
    sum += r_i - e.tag;
  }
  return alpha_ * sum;
}

void TagScheduler::store_ack_r(std::int32_t subflow, double r) { lane_of(subflow).last_r = r; }

double TagScheduler::head_last_r() const {
  if (!has_packet()) return 0.0;
  select_head();
  return lanes_[static_cast<std::size_t>(selected_)].last_r;
}

}  // namespace e2efa
