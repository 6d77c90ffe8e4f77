#include "traffic/stats.hpp"

#include "util/assert.hpp"

namespace e2efa {

TrafficStats::TrafficStats(const FlowSet& flows) : flows_(&flows) {
  counters_.resize(static_cast<std::size_t>(flows.subflow_count()));
  delay_.resize(static_cast<std::size_t>(flows.flow_count()));
  suspended_.resize(static_cast<std::size_t>(flows.flow_count()), 0);
}

void TrafficStats::count_suspended(FlowId f) {
  E2EFA_ASSERT(f >= 0 && f < static_cast<FlowId>(suspended_.size()));
  ++suspended_[static_cast<std::size_t>(f)];
}

std::int64_t TrafficStats::suspended(FlowId f) const {
  E2EFA_ASSERT(f >= 0 && f < static_cast<FlowId>(suspended_.size()));
  return suspended_[static_cast<std::size_t>(f)];
}

void TrafficStats::notify_end_to_end(FlowId f, TimeNs now, TimeNs delay) {
  if (on_delivery_) on_delivery_(f, now, delay);
}

void TrafficStats::record_delay(FlowId f, TimeNs delay) {
  E2EFA_ASSERT(f >= 0 && f < static_cast<FlowId>(delay_.size()));
  E2EFA_ASSERT(delay >= 0);
  delay_[static_cast<std::size_t>(f)].add(to_seconds(delay));
}

const RunningStat& TrafficStats::delay(FlowId f) const {
  E2EFA_ASSERT(f >= 0 && f < static_cast<FlowId>(delay_.size()));
  return delay_[static_cast<std::size_t>(f)];
}

SubflowCounters& TrafficStats::subflow(int global_index) {
  E2EFA_ASSERT(global_index >= 0 && global_index < subflow_count());
  return counters_[static_cast<std::size_t>(global_index)];
}

const SubflowCounters& TrafficStats::subflow(int global_index) const {
  E2EFA_ASSERT(global_index >= 0 && global_index < subflow_count());
  return counters_[static_cast<std::size_t>(global_index)];
}

std::int64_t TrafficStats::delivered(FlowId f, int hop) const {
  return subflow(flows_->subflow_index(f, hop)).delivered;
}

std::int64_t TrafficStats::end_to_end(FlowId f) const {
  return delivered(f, flows_->flow(f).length() - 1);
}

std::int64_t TrafficStats::total_end_to_end() const {
  std::int64_t sum = 0;
  for (FlowId f = 0; f < flows_->flow_count(); ++f) sum += end_to_end(f);
  return sum;
}

std::int64_t TrafficStats::total_lost() const {
  std::int64_t sum = 0;
  for (FlowId f = 0; f < flows_->flow_count(); ++f)
    sum += delivered(f, 0) - end_to_end(f);
  return sum;
}

double TrafficStats::loss_ratio() const {
  const std::int64_t delivered = total_end_to_end();
  if (delivered == 0) return total_lost() > 0 ? 1.0 : 0.0;
  return static_cast<double>(total_lost()) / static_cast<double>(delivered);
}

}  // namespace e2efa
