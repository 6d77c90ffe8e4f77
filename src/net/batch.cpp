#include "net/batch.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>

namespace e2efa {

BatchRunner::BatchRunner(int jobs) : jobs_(jobs) {
  if (jobs_ <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw > 0 ? static_cast<int>(hw) : 1;
  }
}

std::vector<RunResult> BatchRunner::run(const std::vector<Job>& jobs) const {
  std::vector<RunResult> results(jobs.size());
  if (jobs.empty()) return results;

  auto run_one = [&](std::size_t i) {
    results[i] = run_scenario(*jobs[i].scenario, jobs[i].protocol, jobs[i].config);
  };

  const std::size_t workers =
      std::min(static_cast<std::size_t>(jobs_), jobs.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i);
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        run_one(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return results;
}

std::vector<RunResult> BatchRunner::run_seeds(
    const Scenario& sc, Protocol proto, const SimConfig& base,
    const std::vector<std::uint64_t>& seeds) const {
  std::vector<Job> jobs(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    jobs[i] = {&sc, proto, base};
    jobs[i].config.seed = seeds[i];
  }
  return run(jobs);
}

std::vector<RunResult> BatchRunner::run_protocols(
    const Scenario& sc, const std::vector<Protocol>& protos,
    const SimConfig& cfg) const {
  std::vector<Job> jobs(protos.size());
  for (std::size_t i = 0; i < protos.size(); ++i) jobs[i] = {&sc, protos[i], cfg};
  return run(jobs);
}

}  // namespace e2efa
