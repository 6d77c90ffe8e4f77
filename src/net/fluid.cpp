#include "net/fluid.hpp"

#include <algorithm>
#include <cmath>

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

double bianchi_saturation(int n, int payload_bytes, const MacConfig& mac, int cw_min) {
  E2EFA_ASSERT(n >= 1 && payload_bytes > 0 && cw_min >= 1);
  // τ(p): attempts per slot spent in backoff, over the stages a packet
  // reaches (stage j with probability p^j).
  const auto tau_of = [cw_min](double p) {
    double attempts = 0.0, slots = 0.0, pj = 1.0;
    for (int j = 0; j <= kRetryLimit; ++j, pj *= p) {
      const double w = std::min((cw_min + 1.0) * std::ldexp(1.0, j), kCwMax + 1.0);
      attempts += pj;
      slots += pj * (w + 1.0) / 2.0;
    }
    return attempts / slots;
  };
  // p − (1 − (1 − τ(p))^(n−1)) rises with p: bisect for its root.
  double lo = 0.0, hi = 1.0;
  for (int i = 0; i < 100; ++i) {
    const double p = 0.5 * (lo + hi);
    if (p > 1.0 - std::pow(1.0 - tau_of(p), n - 1))
      hi = p;
    else
      lo = p;
  }
  const double tau = tau_of(0.5 * (lo + hi));
  const double p_tr = 1.0 - std::pow(1.0 - tau, n);         // some sender transmits
  const double p_s = n * tau * std::pow(1.0 - tau, n - 1);  // exactly one does
  auto dur = [](int bytes) {
    return static_cast<double>(tx_duration(8LL * bytes, kChannelBps));
  };
  const double data = dur(kDataHeaderBytes + payload_bytes);
  const double first = mac.use_rts_cts ? dur(kRtsBytes) : data;  // what collides
  double ts = data + kSifs + dur(kAckBytes) + kDifs;
  if (mac.use_rts_cts) ts += dur(kRtsBytes) + kSifs + dur(kCtsBytes) + kSifs;
  const double tc = first + kDifs;
  const double slot_ns = (1.0 - p_tr) * kSlot + p_s * ts + (p_tr - p_s) * tc;
  return p_s / slot_ns * 1e9;
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
