// Shared test helper: full-field RunResult equality, bitwise on doubles.
// Determinism in this codebase means *identical*, not merely close — the
// same seed must reproduce every counter, share, delay and telemetry value
// exactly, across reruns and BatchRunner pool sizes. This is the single
// definition; determinism_test, fault_test, churn_test and transport_test
// all assert through it, so a field added to RunResult only needs one new
// EXPECT_EQ.
#pragma once

#include <gtest/gtest.h>

#include "net/runner.hpp"

namespace e2efa {

inline void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.delivered_per_subflow, b.delivered_per_subflow);
  EXPECT_EQ(a.end_to_end_per_flow, b.end_to_end_per_flow);
  EXPECT_EQ(a.total_end_to_end, b.total_end_to_end);
  EXPECT_EQ(a.lost_packets, b.lost_packets);
  EXPECT_EQ(a.dropped_queue, b.dropped_queue);
  EXPECT_EQ(a.dropped_mac, b.dropped_mac);
  EXPECT_EQ(a.loss_ratio, b.loss_ratio);
  EXPECT_EQ(a.has_target, b.has_target);
  EXPECT_EQ(a.target_subflow_share, b.target_subflow_share);
  EXPECT_EQ(a.target_flow_share, b.target_flow_share);
  EXPECT_EQ(a.channel.frames_transmitted, b.channel.frames_transmitted);
  EXPECT_EQ(a.channel.frames_delivered, b.channel.frames_delivered);
  EXPECT_EQ(a.channel.frames_corrupted, b.channel.frames_corrupted);
  EXPECT_EQ(a.channel.bytes_corrupted, b.channel.bytes_corrupted);
  EXPECT_EQ(a.channel.frames_faulted, b.channel.frames_faulted);
  EXPECT_EQ(a.channel.faulted_dead, b.channel.faulted_dead);
  EXPECT_EQ(a.channel.faulted_loss, b.channel.faulted_loss);
  EXPECT_EQ(a.channel.airtime_ns, b.channel.airtime_ns);
  EXPECT_EQ(a.mean_delay_s, b.mean_delay_s);
  EXPECT_EQ(a.max_delay_s, b.max_delay_s);
  EXPECT_EQ(a.window_end_to_end, b.window_end_to_end);
  EXPECT_EQ(a.epoch_starts_s, b.epoch_starts_s);
  EXPECT_EQ(a.epoch_flow_share, b.epoch_flow_share);
  EXPECT_EQ(a.epoch_lp_status, b.epoch_lp_status);
  EXPECT_EQ(a.suspended_per_flow, b.suspended_per_flow);
  EXPECT_EQ(a.suspended_packets, b.suspended_packets);
  EXPECT_EQ(a.link_failures, b.link_failures);
  EXPECT_EQ(a.epoch_end_to_end, b.epoch_end_to_end);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.ctrl, b.ctrl);
  EXPECT_EQ(a.admissions, b.admissions);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.transport.acks_sent, b.transport.acks_sent);
  EXPECT_EQ(a.transport.acks_relayed, b.transport.acks_relayed);
  EXPECT_EQ(a.transport.acks_delivered, b.transport.acks_delivered);
  ASSERT_EQ(a.transport.flows.size(), b.transport.flows.size());
  for (std::size_t f = 0; f < a.transport.flows.size(); ++f) {
    EXPECT_EQ(a.transport.flows[f].cwnd, b.transport.flows[f].cwnd);
    EXPECT_EQ(a.transport.flows[f].srtt_s, b.transport.flows[f].srtt_s);
    EXPECT_EQ(a.transport.flows[f].delivery_rate_pps,
              b.transport.flows[f].delivery_rate_pps);
    EXPECT_EQ(a.transport.flows[f].retransmits,
              b.transport.flows[f].retransmits);
    EXPECT_EQ(a.transport.flows[f].timeouts, b.transport.flows[f].timeouts);
  }
  EXPECT_EQ(a.reconv_s, b.reconv_s);
}

}  // namespace e2efa
