#include "mac/backoff.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace e2efa {

namespace {
int escalated_window(int cw_min, int cw_max, int retries) {
  // (CWmin+1)·2^k − 1 capped at CWmax; k capped to avoid overflow.
  const int k = std::min(retries, 16);
  const long long w = (static_cast<long long>(cw_min) + 1) * (1LL << k) - 1;
  return static_cast<int>(std::min<long long>(w, cw_max));
}
}  // namespace

BebBackoff::BebBackoff(int cw_min, int cw_max) : cw_min_(cw_min), cw_max_(cw_max) {
  E2EFA_ASSERT(cw_min >= 1 && cw_max >= cw_min);
}

int BebBackoff::draw_slots(Rng& rng, int retries, TimeNs) {
  E2EFA_ASSERT(retries >= 0);
  const int cw = escalated_window(cw_min_, cw_max_, retries);
  return static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(cw) + 1));
}

TagBackoff::TagBackoff(int cw_min, int cw_max, TagScheduler& tags)
    : cw_min_(cw_min), cw_max_(cw_max), tags_(tags) {
  E2EFA_ASSERT(cw_min >= 1 && cw_max >= cw_min);
}

ScaledCwBackoff::ScaledCwBackoff(int cw_min, int cw_max, double node_share)
    : cw_max_(cw_max) {
  E2EFA_ASSERT(cw_min >= 1 && cw_max >= cw_min);
  E2EFA_ASSERT(node_share > 0.0 && node_share <= 1.0);
  scaled_min_ = static_cast<int>(
      std::min<double>(cw_max, std::max(1.0, cw_min / node_share)));
}

int ScaledCwBackoff::draw_slots(Rng& rng, int retries, TimeNs) {
  E2EFA_ASSERT(retries >= 0);
  const int cw = escalated_window(scaled_min_, cw_max_, retries);
  return static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(cw) + 1));
}

int TagBackoff::draw_slots(Rng& rng, int retries, TimeNs now) {
  E2EFA_ASSERT(retries >= 0);
  const int base = escalated_window(cw_min_, cw_max_, retries);
  const double lag = std::max({tags_.q_slots(now), tags_.head_last_r(), 0.0});
  // Keep the stretched window finite even under extreme tag imbalance.
  const double cw = std::min(static_cast<double>(base) + lag, 16383.0);
  return static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(std::llround(cw)) + 1));
}

}  // namespace e2efa
