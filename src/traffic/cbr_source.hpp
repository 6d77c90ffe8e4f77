// Constant-bit-rate traffic source (the paper's workload: 200 packets per
// second of 512 bytes at every flow source, greedy relative to the
// allocated shares).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "phy/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace e2efa {

class CbrSource {
 public:
  /// `emit` receives each generated packet (flow/hop/subflow/src/dst/seq
  /// fields prefilled by the caller-provided stamper; this class fills seq,
  /// uid, created). A small random phase offset (< one interval) decorrelates
  /// simultaneous sources.
  CbrSource(Simulator& sim, double packets_per_second, int payload_bytes,
            std::function<void(Packet)> emit, Rng& phase_rng);

  /// Starts generation; packets are produced until `until`.
  void start(TimeNs until);

  std::int64_t generated() const { return seq_; }

 private:
  void tick();

  Simulator& sim_;
  TimeNs interval_;
  int payload_bytes_;
  std::function<void(Packet)> emit_;
  TimeNs phase_ = 0;
  TimeNs until_ = 0;
  std::int64_t seq_ = 0;
  /// Atomic so concurrent BatchRunner workers stay race-free; the uid feeds
  /// tracing only, so cross-run numbering does not affect results.
  static std::atomic<std::uint64_t> next_uid_;
};

}  // namespace e2efa
