// Contention-backoff policies.
//
// BebBackoff is the plain IEEE 802.11 binary exponential backoff.
// TagBackoff is 2PA's rule: the contention window is CW_min stretched by
// the tag-lag estimate max(Q, R, 0) from the node's TagScheduler, so nodes
// that have received more than their allocated share back off longer
// (Sec. IV-C step (3)). On retries both policies escalate the base window
// to resolve collisions.
#pragma once

#include "sched/tag_scheduler.hpp"
#include "util/rng.hpp"

namespace e2efa {

class BackoffPolicy {
 public:
  virtual ~BackoffPolicy() = default;
  /// Draws the number of backoff slots for an access attempt that has
  /// already failed `retries` times (0 = first attempt); `now` lets
  /// tag-based policies age out stale neighbor entries.
  virtual int draw_slots(Rng& rng, int retries, TimeNs now) = 0;
};

/// IEEE 802.11: uniform over [0, min((CWmin+1)·2^retries − 1, CWmax)].
class BebBackoff : public BackoffPolicy {
 public:
  BebBackoff(int cw_min, int cw_max);
  int draw_slots(Rng& rng, int retries, TimeNs now) override;

 private:
  int cw_min_;
  int cw_max_;
};

/// 2PA: uniform over [0, base(retries) + max(Q, R, 0)], where base is the
/// (retry-escalated) CWmin and Q/R come from the node's tag scheduler.
class TagBackoff : public BackoffPolicy {
 public:
  TagBackoff(int cw_min, int cw_max, TagScheduler& tags);
  int draw_slots(Rng& rng, int retries, TimeNs now) override;

 private:
  int cw_min_;
  int cw_max_;
  TagScheduler& tags_;
};

/// Naive share-proportional contention window (ablation baseline): the
/// node's window is CW_min scaled by 1/node_share, with BEB escalation on
/// retries. Stateless — no feedback from actual service received — so it
/// approximates long-run node-share ratios but cannot correct deficits the
/// way the tag mechanism does.
class ScaledCwBackoff : public BackoffPolicy {
 public:
  /// `node_share` in (0, 1]: the node's aggregate allocated share.
  ScaledCwBackoff(int cw_min, int cw_max, double node_share);
  int draw_slots(Rng& rng, int retries, TimeNs now) override;

 private:
  int scaled_min_;
  int cw_max_;
};

}  // namespace e2efa
