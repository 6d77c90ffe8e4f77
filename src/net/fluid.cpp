#include "net/fluid.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace e2efa {

TimeNs per_packet_airtime(int payload_bytes, const MacConfig& mac, int cw_min) {
  E2EFA_ASSERT(payload_bytes > 0 && cw_min >= 1);
  auto dur = [](int bytes) { return tx_duration(8LL * bytes, kChannelBps); };
  const TimeNs data = dur(kDataHeaderBytes + payload_bytes);
  const TimeNs ack = dur(kAckBytes);
  const TimeNs mean_backoff = kSlot * cw_min / 2;
  TimeNs total = kDifs + mean_backoff + data + kSifs + ack;
  if (mac.use_rts_cts) {
    total += dur(kRtsBytes) + kSifs + dur(kCtsBytes) + kSifs;
  }
  return total;
}

double effective_packet_rate(int payload_bytes, const MacConfig& mac, int cw_min) {
  return 1e9 / static_cast<double>(per_packet_airtime(payload_bytes, mac, cw_min));
}

FluidPrediction fluid_predict(const FlowSet& flows, const Allocation& alloc,
                              double source_pps, int payload_bytes,
                              const MacConfig& mac, int cw_min) {
  E2EFA_ASSERT(static_cast<int>(alloc.subflow_share.size()) == flows.subflow_count());
  E2EFA_ASSERT(source_pps > 0.0);
  const double unit_rate = effective_packet_rate(payload_bytes, mac, cw_min);

  FluidPrediction out;
  out.subflow_rate.assign(static_cast<std::size_t>(flows.subflow_count()), 0.0);
  out.flow_rate.assign(static_cast<std::size_t>(flows.flow_count()), 0.0);

  for (FlowId f = 0; f < flows.flow_count(); ++f) {
    double upstream = source_pps;
    double first_hop = 0.0;
    for (int h = 0; h < flows.flow(f).length(); ++h) {
      const int s = flows.subflow_index(f, h);
      const double capacity =
          alloc.subflow_share[static_cast<std::size_t>(s)] * unit_rate;
      const double served = std::min(upstream, capacity);
      out.subflow_rate[static_cast<std::size_t>(s)] = served;
      if (h == 0) first_hop = served;
      upstream = served;
    }
    out.flow_rate[static_cast<std::size_t>(f)] = upstream;
    out.total_flow_rate += upstream;
    out.loss_rate += first_hop - upstream;
  }
  return out;
}

}  // namespace e2efa
