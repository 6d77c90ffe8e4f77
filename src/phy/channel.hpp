// Shared-medium wireless channel (the PHY of the ns-2 stand-in).
//
// Unit-disk propagation with zero propagation delay: a transmission from s
// is *decodable* by nodes within the transmission range and deposits
// *energy* (busy medium / interference) at nodes within the interference
// range. A node successfully decodes a frame iff it is not transmitting
// itself and no other transmission overlaps the frame's airtime at the
// node — the standard collision model that produces hidden-terminal losses.
//
// Carrier-sense queries are interval-based (`idle_during`) so that two
// nodes whose backoff expires in the same slot both commit to transmitting
// and collide, exactly as in slotted CSMA.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "phy/frame.hpp"
#include "sim/simulator.hpp"
#include "topology/topology.hpp"
#include "util/time.hpp"

namespace e2efa {

class CheckContext;

/// Per-node PHY event sink (implemented by the MAC).
class PhyListener {
 public:
  virtual ~PhyListener() = default;
  /// A frame was fully and cleanly received (regardless of addressee).
  virtual void on_frame_received(const Frame& frame) = 0;
  /// A reception was lost to collision; `end` is when the air went quiet
  /// for that frame (hook for EIFS-style deferral).
  virtual void on_frame_corrupted(TimeNs end) = 0;
  /// Medium (energy) transitions at this node.
  virtual void on_medium_busy() = 0;
  virtual void on_medium_idle() = 0;
};

/// Runtime fault model the channel consults per frame (fault injection).
/// Implemented by net-layer FaultRuntime; null means a healthy network and
/// the channel takes the exact pre-fault code path (no queries, no RNG).
class FaultModel {
 public:
  virtual ~FaultModel() = default;
  /// False while node n is crashed: its radio neither transmits (frames from
  /// it deposit no energy anywhere) nor decodes (it receives nothing).
  virtual bool node_up(NodeId n) const = 0;
  /// False while the a<->b link is forced down (fading): frames between the
  /// pair are never decodable, though interference energy still propagates.
  virtual bool link_up(NodeId a, NodeId b) const = 0;
  /// True when the a->b link has a nonzero packet-error rate. Lets the
  /// channel skip the RNG entirely on loss-free links, keeping trajectories
  /// of loss-free fault runs identical to runs without a loss model.
  virtual bool lossy(NodeId a, NodeId b) const = 0;
  /// Draws whether an otherwise-clean a->b reception is lost to channel
  /// errors. Called once per decodable frame on lossy links (mutates the
  /// model's RNG stream — deterministic given the run seed).
  virtual bool draw_loss(NodeId a, NodeId b) = 0;
};

struct ChannelStats {
  std::uint64_t frames_transmitted = 0;
  std::uint64_t frames_delivered = 0;   ///< Clean receptions (all hearers).
  std::uint64_t frames_corrupted = 0;   ///< Collision-lost receptions.
  std::uint64_t bytes_corrupted = 0;    ///< Airtime lost to collisions, bytes.
  /// Fault-injection losses: receptions killed by a dead node, a downed
  /// link, or a loss-model draw (not counted in frames_corrupted).
  /// Always equals faulted_dead + faulted_loss.
  std::uint64_t frames_faulted = 0;
  /// Fault losses from crashed nodes or downed links (RF-silent senders,
  /// deaf receivers, cut links — including mid-frame transitions).
  std::uint64_t faulted_dead = 0;
  /// Fault losses from per-link Bernoulli error draws on lossy channels.
  std::uint64_t faulted_loss = 0;
  /// Total on-air transmission time (non-silent frames), nanoseconds.
  /// Divided by wall time this is the channel utilization.
  std::uint64_t airtime_ns = 0;

  bool operator==(const ChannelStats&) const = default;
};

class Channel {
 public:
  /// The channel runs at the paper's fixed rate, kChannelBps.
  Channel(Simulator& sim, const Topology& topo);

  /// Registers the MAC of node n. Must be called once per node before any
  /// transmission reaches it.
  void attach(NodeId n, PhyListener* listener);

  /// Installs (or clears, with nullptr) the fault model. Not owned; must
  /// outlive the channel. With no model installed the channel behaves — and
  /// draws randomness — exactly as before fault injection existed.
  void set_faults(FaultModel* faults) { faults_ = faults; }

  /// Installs (or clears) the trace sink. Not owned; null (default) keeps
  /// the pre-observability hot path: a single pointer test per emission.
  void set_trace(TraceSink* trace) { trace_ = trace; }

  /// Installs (or clears) the invariant-check observer. Not owned; the
  /// observer never mutates channel state or draws randomness.
  void set_check(CheckContext* check) { check_ = check; }

  /// Installs (or clears) the self-profiler: end-of-frame receive fan-outs
  /// accrue to its phy phase. Not owned; pure observation.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }

  /// Airtime of a frame of `bytes` bytes at the channel rate.
  TimeNs frame_duration(int bytes) const { return tx_duration(8LL * bytes, kChannelBps); }

  /// Starts transmitting `frame` from `sender` now; returns the end time.
  /// The sender must not already be transmitting. A node that transmits
  /// while decoding loses the reception (half-duplex).
  TimeNs transmit(NodeId sender, Frame frame);

  /// True when node n senses energy (another transmission in interference
  /// range) or is itself transmitting.
  bool medium_busy(NodeId n) const;

  bool transmitting(NodeId n) const;

  /// True when the medium at n was continuously idle over [from, now).
  /// A transmission starting exactly at `now` does not count — both
  /// same-instant transmitters proceed (and collide).
  bool idle_during(NodeId n, TimeNs from) const;

  const ChannelStats& stats() const { return stats_; }

 private:
  struct NodeState {
    PhyListener* listener = nullptr;
    TimeNs tx_end = -1;          ///< End of own transmission (-1: none).
    int interferers = 0;         ///< Active foreign transmissions heard.
    bool busy = false;           ///< Cached (interferers>0 || transmitting).
    TimeNs busy_since = 0;       ///< Start of the current busy period.
    TimeNs last_busy_end = -1;   ///< End of the previous busy period.
    // In-progress decode attempt.
    bool decoding = false;
    bool decode_corrupted = false;
    std::uint64_t decode_tx_id = 0;  ///< Which transmission is being decoded.
  };

  /// An in-flight frame, pooled so the end-of-frame event only captures a
  /// slot index. One event per transmission walks the sender and every
  /// interference neighbor at end-of-frame (instead of one closure per
  /// neighbor), in the exact order the per-neighbor events used to fire.
  struct Transmission {
    Frame frame;
    TimeNs end = 0;
    std::uint64_t tx_id = 0;
    std::uint32_t next_free = 0;
    bool silent = false;  ///< Sender was crashed: no energy was deposited.
    /// Causal span of the kFrameTx record (0 when tracing is off/filtered);
    /// end-of-frame rx/collision/fault records chain to it.
    std::uint32_t span = 0;
  };

  void update_busy(NodeId n);
  NodeState& state(NodeId n);
  const NodeState& state(NodeId n) const;
  std::uint32_t acquire_tx_slot();
  void release_tx_slot(std::uint32_t slot);
  void finish_transmission(std::uint32_t slot);

  static void bump(std::uint64_t& counter, std::uint64_t delta = 1) {
    counter += delta;
  }

  Simulator& sim_;
  const Topology& topo_;
  FaultModel* faults_ = nullptr;
  TraceSink* trace_ = nullptr;
  CheckContext* check_ = nullptr;
  Profiler* profiler_ = nullptr;
  std::vector<NodeState> nodes_;
  std::uint64_t next_tx_id_ = 1;
  std::vector<Transmission> tx_pool_;
  std::uint32_t tx_free_ = kNilTxSlot;
  static constexpr std::uint32_t kNilTxSlot = 0xffffffffu;
  ChannelStats stats_;
};

}  // namespace e2efa
