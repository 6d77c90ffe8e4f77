// Shared helpers for the paper-reproduction bench binaries.
#pragma once

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

/// Shared bench flags. Benches default to the paper's T = 1000 s, which
/// takes a few seconds per protocol — pass a smaller --seconds for quick
/// runs. --jobs > 1 fans independent runs across a BatchRunner thread pool
/// (0 = one per hardware thread); results are identical to --jobs 1.
struct BenchArgs {
  double seconds = 1000.0;
  std::uint64_t seed = 1;
  double alpha = 1e-4;
  int jobs = 1;
};

/// Strict flag parsing through the shared option table: unknown flags,
/// malformed numbers, missing values and out-of-range settings exit 2 with
/// the usage instead of being silently ignored; --help exits 0.
inline BenchArgs parse_args(int argc, char** argv) {
  const std::string prog = argc > 0 ? argv[0] : "bench";
  BenchArgs a;
  OptionTable t(prog, "usage: " + prog + " [options]\n");
  t.positive("--seconds", "T", "simulated seconds per run (default 1000)", &a.seconds)
      .u64("--seed", "N", "RNG seed (default 1)", &a.seed)
      .positive("--alpha", "A", "tag-feedback step size (default 1e-4)", &a.alpha)
      .integer("--jobs", "J", "parallel runs; 0 = hardware threads (default 1)",
               &a.jobs, 0, 1024);
  t.parse_or_exit(argc, argv);
  return a;
}

inline std::string fmt_count(std::int64_t v) { return strformat("%lld", static_cast<long long>(v)); }

inline std::string fmt_ratio(double v) { return strformat("%.3f", v); }

}  // namespace e2efa::benchutil
