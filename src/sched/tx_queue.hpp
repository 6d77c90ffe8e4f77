// Transmit-queue abstraction between the node stack and the MAC.
//
// The MAC latches head() when it begins a channel-access attempt; the
// selected head must remain stable until pop_success/pop_drop removes it
// (new arrivals may not displace an in-flight packet).
#pragma once

#include "phy/packet.hpp"
#include "util/time.hpp"

namespace e2efa {

class TxQueue {
 public:
  virtual ~TxQueue() = default;

  /// Offers a packet; returns false when the queue is full (drop-tail).
  virtual bool enqueue(Packet p, TimeNs now) = 0;

  virtual bool has_packet() const = 0;

  /// The packet the MAC should transmit next. Requires has_packet().
  virtual const Packet& head() const = 0;

  /// Removes the current head after a successful (ACKed) transmission.
  virtual Packet pop_success(TimeNs now) = 0;

  /// Removes the current head after a retry-limit drop.
  virtual Packet pop_drop(TimeNs now) = 0;

  /// Total buffered packets.
  virtual int backlog() const = 0;
};

}  // namespace e2efa
