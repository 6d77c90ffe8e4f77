// Fluid-model oracle: the "ideal case" evaluator of Sec. III, made concrete.
//
// Given a phase-1 allocation, predict steady-state per-subflow throughput,
// end-to-end throughput, and relay losses WITHOUT running the packet
// simulator: every subflow is served deterministically at
//     rate_s = share_s × effective_capacity(MAC, payload)
// where the effective capacity accounts for the full per-packet channel
// cost (RTS/CTS/DATA/ACK or DATA/ACK, SIFS/DIFS, mean backoff). Sources
// feed CBR; each hop forwards min(arrival, service); the first bottleneck
// hop caps everything downstream. This provides the ideal-case reference
// for the benches and a sanity anchor for the packet simulator: measured
// 2PA throughput lands near the prediction on lightly-loaded cliques
// (within ~5%) and at ~65-80% of it on fully saturated cliques (where
// collisions and tag throttling, which the fluid model ignores, bite),
// while the *ratios* between flows track the prediction closely.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/allocation.hpp"
#include "mac/dcf_mac.hpp"

namespace e2efa {

/// Mean channel time consumed by one successfully delivered data packet,
/// including the handshake, interframe spaces, and the mean initial
/// backoff (collisions and retries are not modeled — this is the ideal
/// case).
TimeNs per_packet_airtime(int payload_bytes, const MacConfig& mac, int cw_min);

/// Packets per second one unit of share (B) sustains under the MAC model.
double effective_packet_rate(int payload_bytes, const MacConfig& mac, int cw_min);

/// Bianchi's saturation model of DCF (IEEE JSAC 2000) with the retry limit:
/// total packets per second that n always-backlogged senders in one
/// collision domain deliver. Each sender transmits in a slot with
/// probability τ and collides with probability p = 1 − (1 − τ)^(n−1), where
/// τ follows from p through the backoff stages W_j = min((cw_min + 1)·2^j,
/// kCwMax + 1), j = 0..kRetryLimit. Ts and Tc are the success and collision
/// times built from frame.hpp's sizes and interframe spaces.
double bianchi_saturation(int n, int payload_bytes, const MacConfig& mac, int cw_min);

struct FluidPrediction {
  /// Served packet rate per subflow (pkt/s) — min(upstream arrival, own
  /// service capacity).
  std::vector<double> subflow_rate;
  /// End-to-end packet rate per flow (pkt/s).
  std::vector<double> flow_rate;
  double total_flow_rate = 0.0;
  /// Steady-state in-network loss rate (pkt/s): Σ (first-hop − last-hop).
  double loss_rate = 0.0;
};

/// Steady-state fluid prediction for `alloc` with CBR sources at
/// `source_pps` and the given MAC parameters.
FluidPrediction fluid_predict(const FlowSet& flows, const Allocation& alloc,
                              double source_pps, int payload_bytes,
                              const MacConfig& mac, int cw_min);

}  // namespace e2efa
