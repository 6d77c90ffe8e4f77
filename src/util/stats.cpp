#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace e2efa {

void RunningStat::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double jain_fairness_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0, sumsq = 0.0;
  for (double x : xs) {
    sum += x;
    sumsq += x * x;
  }
  if (sumsq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sumsq);
}

std::vector<double> normalized_by(const std::vector<double>& xs,
                                  const std::vector<double>& weights) {
  std::vector<double> out;
  const std::size_t n = std::min(xs.size(), weights.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (weights[i] > 0.0) out.push_back(xs[i] / weights[i]);
  return out;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (p <= 0.0) return xs.front();
  if (p >= 100.0) return xs.back();
  // Nearest-rank: smallest value with at least p% of the mass at or below.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[rank == 0 ? 0 : rank - 1];
}

}  // namespace e2efa
