// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "net/runner.hpp"
#include "util/options.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace e2efa::benchutil {

/// Shared bench flags. --seconds defaults to the paper's T = 1000 s unless
/// a bench passes its own default to parse_args (the ablations run shorter
/// horizons); pass a smaller --seconds for quick runs. --jobs > 1 fans
/// independent runs across a BatchRunner thread pool (0 = one per hardware
/// thread); results are identical to --jobs 1.
struct BenchArgs {
  double seconds = 1000.0;
  std::uint64_t seed = 1;
  double alpha = 1e-4;
  int jobs = 1;
};

/// Strict flag parsing through the shared option table: unknown flags,
/// malformed numbers, missing values and out-of-range settings exit 2 with
/// the usage instead of being silently ignored; --help exits 0.
inline BenchArgs parse_args(int argc, char** argv, double default_seconds = 1000.0) {
  const std::string prog = argc > 0 ? argv[0] : "bench";
  BenchArgs a;
  a.seconds = default_seconds;
  OptionTable t(prog, "usage: " + prog + " [options]\n");
  t.positive("--seconds", "T",
             strformat("simulated seconds per run (default %g)", default_seconds), &a.seconds)
      .u64("--seed", "N", "RNG seed (default 1)", &a.seed)
      .positive("--alpha", "A", "tag-feedback step size (default 1e-4)", &a.alpha)
      .integer("--jobs", "J", "parallel runs; 0 = hardware threads (default 1)",
               &a.jobs, 0, 1024);
  t.parse_or_exit(argc, argv);
  return a;
}

/// Prints one paper claim checked against the run's own numbers: whether
/// it holds here, the statement, and the figures it was judged on.
inline void print_claim(bool holds, const std::string& claim, const std::string& numbers) {
  std::cout << "  " << (holds ? "holds" : "FAILS") << "  " << claim << ": " << numbers << "\n";
}

/// Largest relative gap between delivered[i] / target[i] and its mean over
/// i: 0 when every entry is served in exact proportion to its target.
inline double tracking_error(const std::vector<std::int64_t>& delivered,
                             const std::vector<double>& target) {
  std::vector<double> per_share;
  for (std::size_t i = 0; i < delivered.size(); ++i)
    per_share.push_back(static_cast<double>(delivered[i]) / target[i]);
  double mean = 0.0;
  for (double v : per_share) mean += v / static_cast<double>(per_share.size());
  double worst = 0.0;
  for (double v : per_share) worst = std::max(worst, std::abs(v / mean - 1.0));
  return worst;
}

inline std::string fmt_count(std::int64_t v) { return strformat("%lld", static_cast<long long>(v)); }

inline std::string fmt_ratio(double v) { return strformat("%.3f", v); }

}  // namespace e2efa::benchutil
