// IEEE-802.11-DCF-style MAC with the RTS-CTS-DATA-ACK handshake.
//
// One instance per node. The MAC owns channel access (DIFS + slotted
// backoff with freeze, virtual carrier sense via NAV, EIFS after corrupted
// receptions), runs the sender and receiver sides of the four-way
// handshake with timeouts and a retry limit, and delegates *which* packet
// to send to a TxQueue and *how long* to back off to a BackoffPolicy —
// which is exactly where 2PA's phase-2 scheduler plugs in. Service tags are
// piggybacked on every frame of an exchange when a TagScheduler is present.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "mac/backoff.hpp"
#include "phy/channel.hpp"
#include "sched/tag_scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace e2efa {

/// The only MAC setting a run chooses; the 802.11 timing, frame sizes and
/// retry limit are the fixed constants in phy/frame.hpp.
struct MacConfig {
  /// True (default): four-way RTS/CTS/DATA/ACK. False: basic access —
  /// DATA/ACK only; hidden terminals then collide on full data frames.
  bool use_rts_cts = true;
};

/// Supplies the optional allocation-control payload piggybacked on outgoing
/// RTS/CTS frames (src/ctrl overheard-table deltas). Implemented by the
/// per-node AllocAgent; null (default) disables piggybacking entirely.
class CtrlPiggyback {
 public:
  virtual ~CtrlPiggyback() = default;
  /// Returns the payload to attach (null for none) and adds its wire size
  /// to *extra_bytes. Must be pure: no RNG, no scheduling.
  virtual std::shared_ptr<const CtrlMsg> piggyback_payload(int* extra_bytes) = 0;
};

/// Upcalls from the MAC into the node stack.
class MacCallbacks {
 public:
  virtual ~MacCallbacks() = default;
  /// Clean DATA addressed to this node (duplicates possible on ACK loss —
  /// the stack deduplicates by sequence number).
  virtual void on_packet_delivered(const Packet& p) = 0;
  /// ACK received: the packet left this node successfully.
  virtual void on_packet_sent(const Packet& p) = 0;
  /// Retry limit exhausted: the packet was dropped at this node.
  virtual void on_packet_dropped(const Packet& p) = 0;
};

class DcfMac : public PhyListener {
 public:
  DcfMac(Simulator& sim, Channel& channel, NodeId self, const MacConfig& cfg,
         TxQueue& queue, BackoffPolicy& backoff, MacCallbacks& callbacks, Rng rng,
         TagScheduler* tags = nullptr);

  /// The stack must call this after enqueueing into a previously empty (or
  /// idle) queue so the MAC starts contending.
  void notify_queue_nonempty();

  // --- Allocation-control plane (src/ctrl) -------------------------------
  /// Queues a broadcast control frame (rx = -1, no ACK; the control plane
  /// heals losses by periodic resend). Control frames contend like any
  /// access but take priority over the data queue when backoff expires —
  /// they are tiny and rare. `bytes` is the frame's wire size.
  void send_ctrl(std::shared_ptr<const CtrlMsg> msg, int bytes);
  /// Pending unsent control frames (backpressure signal for the agent).
  int ctrl_backlog() const { return static_cast<int>(ctrl_q_.size()); }
  /// Invoked for every cleanly received frame carrying a control payload —
  /// dedicated kCtrl broadcasts and RTS/CTS piggybacks alike.
  using CtrlListener = std::function<void(const Frame&)>;
  void set_ctrl_listener(CtrlListener fn) { ctrl_listener_ = std::move(fn); }
  /// Invoked instead of the ctrl listener for frames carrying a transport
  /// ACK payload (CtrlMsg::Kind::kTransAck) — the elastic transport's
  /// AckPlane; allocation agents never see transport ACKs.
  void set_transport_listener(CtrlListener fn) {
    transport_listener_ = std::move(fn);
  }
  /// Installs the RTS/CTS piggyback source. Null (default) = none.
  void set_ctrl_piggyback(CtrlPiggyback* p) { piggyback_ = p; }

  // --- PhyListener ---
  void on_frame_received(const Frame& frame) override;
  void on_frame_corrupted(TimeNs end) override;
  void on_medium_busy() override;
  void on_medium_idle() override;

  struct Stats {
    std::uint64_t rts_sent = 0;
    std::uint64_t cts_sent = 0;
    std::uint64_t data_sent = 0;
    std::uint64_t ack_sent = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retry_drops = 0;
    std::uint64_t ctrl_sent = 0;  ///< Dedicated kCtrl broadcasts transmitted.
  };
  const Stats& stats() const { return stats_; }
  NodeId self() const { return self_; }

  /// Installs the trace sink for MAC-level events (backoff draws with the
  /// Q/R terms, retries, retry-limit drops). Null (default) = disabled.
  void set_trace(TraceSink* trace) { trace_ = trace; }

  /// Installs the invariant-check observer (backoff-bound oracle). Not
  /// owned; never mutates MAC state or draws randomness.
  void set_check(CheckContext* check) { check_ = check; }

 private:
  enum class State {
    kIdle,        ///< Nothing to send, no exchange in progress.
    kContend,     ///< Backlogged: DIFS / backoff countdown.
    kWaitCts,     ///< Sent RTS, awaiting CTS.
    kSendData,    ///< CTS received, DATA going out (or queued behind SIFS).
    kWaitAck,     ///< DATA sent, awaiting ACK.
    kRxExchange,  ///< Responding (CTS sent / awaiting DATA / ACK going out).
    kTxCtrl,      ///< Broadcast control frame on air (no ACK expected).
  };

  // Channel access.
  void start_access(bool redraw);
  void arm_step();
  void on_step();
  bool virtual_busy() const;  ///< NAV or EIFS active.
  void cancel_step();

  // Sender side.
  void send_rts();
  void on_cts(const Frame& f);
  void send_data();
  void on_ack(const Frame& f);
  void on_timeout();
  void finish_attempt(bool success);

  // Receiver side.
  void on_rts(const Frame& f);
  void on_data(const Frame& f);
  void end_rx_exchange();

  // Control plane.
  void send_ctrl_frame();
  bool has_work() const { return queue_.has_packet() || !ctrl_q_.empty(); }

  TimeNs dur(int bytes) const { return channel_.frame_duration(bytes); }
  TimeNs data_bytes(const Packet& p) const;
  void attach_tag(Frame& f) const;
  void attach_piggyback(Frame& f);

  Simulator& sim_;
  Channel& channel_;
  NodeId self_;
  MacConfig cfg_;
  TxQueue& queue_;
  BackoffPolicy& backoff_;
  MacCallbacks& callbacks_;
  Rng rng_;
  TagScheduler* tags_;
  TraceSink* trace_ = nullptr;
  CheckContext* check_ = nullptr;

  struct CtrlEntry {
    std::shared_ptr<const CtrlMsg> msg;
    int bytes = 0;
  };
  std::deque<CtrlEntry> ctrl_q_;
  CtrlListener ctrl_listener_;
  CtrlListener transport_listener_;
  CtrlPiggyback* piggyback_ = nullptr;

  State state_ = State::kIdle;
  int backoff_remaining_ = 0;
  bool backoff_drawn_ = false;  ///< Counter valid (persists across freezes).
  int retries_ = 0;
  TimeNs nav_until_ = 0;
  TimeNs eifs_until_ = 0;
  Simulator::EventId step_event_ = Simulator::kInvalidEvent;
  TimeNs step_time_ = -1;      ///< Fire time of the pending step.
  bool step_is_first_ = true;  ///< Pending step needs DIFS+slot (vs slot).
  Simulator::EventId timeout_event_ = Simulator::kInvalidEvent;

  // Receiver-exchange context.
  NodeId rx_peer_ = kInvalidNode;
  double rx_tag_ = 0.0;
  std::int32_t rx_tag_subflow_ = -1;
  bool rx_has_tag_ = false;
  TimeNs rx_nav_remaining_ = 0;

  Stats stats_;
};

}  // namespace e2efa
