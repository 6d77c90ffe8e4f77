// Parallel multi-run driver: fans independent `run_scenario` calls across a
// pool of std::threads.
//
// Each job is completely self-contained — run_scenario builds its own
// Simulator, Channel, MACs and RNGs — so the only shared mutable state in
// the whole pipeline is the packet-uid counter, which is atomic and feeds
// tracing only. Results are stored by job index, so the output order (and
// every value in it) is identical to a sequential loop regardless of the
// thread count or completion order.
#pragma once

#include <cstdint>
#include <vector>

#include "net/runner.hpp"
#include "net/scenarios.hpp"

namespace e2efa {

class BatchRunner {
 public:
  struct Job {
    const Scenario* scenario = nullptr;
    Protocol protocol = Protocol::k80211;
    SimConfig config;
  };

  /// jobs <= 0 selects std::thread::hardware_concurrency(); jobs == 1 runs
  /// inline on the calling thread (no pool).
  explicit BatchRunner(int jobs = 1);

  int jobs() const { return jobs_; }

  /// Runs every job; results[i] belongs to jobs[i]. Exceptions thrown by a
  /// job (e.g. contract violations) are rethrown on the calling thread.
  std::vector<RunResult> run(const std::vector<Job>& jobs) const;

  /// One run of (sc, proto) per seed, with `base` supplying everything else.
  std::vector<RunResult> run_seeds(const Scenario& sc, Protocol proto,
                                   const SimConfig& base,
                                   const std::vector<std::uint64_t>& seeds) const;

  /// One run of `sc` per protocol under a common config.
  std::vector<RunResult> run_protocols(const Scenario& sc,
                                       const std::vector<Protocol>& protos,
                                       const SimConfig& cfg) const;

 private:
  int jobs_;
};

}  // namespace e2efa
