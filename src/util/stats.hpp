// Streaming statistics helpers used by the simulator and benchmarks.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace e2efa {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class RunningStat {
 public:
  void add(double x);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Jain's fairness index over per-entity throughputs: (Σx)^2 / (n·Σx²).
/// Returns 1.0 for an empty input (vacuously fair).
double jain_fairness_index(const std::vector<double>& xs);

/// Element-wise xs[i] / weights[i]; entries whose weight is <= 0 (e.g.
/// suspended flows with a zero target share) are dropped, as are any xs
/// beyond weights.size(). Used to share-normalize windowed rates before
/// computing a fairness index.
std::vector<double> normalized_by(const std::vector<double>& xs,
                                  const std::vector<double>& weights);

/// Nearest-rank percentile (p in [0, 100]) of the values; 0 for empty
/// input. p = 0 gives the minimum, p = 100 the maximum.
double percentile(std::vector<double> xs, double p);

}  // namespace e2efa
