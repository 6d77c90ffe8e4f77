// MAC frames exchanged over the wireless channel.
//
// The RTS-CTS-DATA-ACK handshake follows IEEE 802.11 DCF. Frames carry the
// NAV (duration of the remainder of the exchange) for virtual carrier
// sensing, and 2PA piggybacks the transmitting node's current service tag on
// RTS/CTS/ACK so neighbors can maintain their local tag tables (Sec. IV-C).
#pragma once

#include <memory>
#include <optional>

#include "phy/packet.hpp"
#include "util/time.hpp"

namespace e2efa {

/// kCtrl: broadcast allocation-control frame (src/ctrl HELLO / CONSTRAINT /
/// RATE); sent once without ACK, rx = -1, robustness via periodic resend.
enum class FrameType { kRts, kCts, kData, kAck, kCtrl };

const char* to_string(FrameType t);

// The paper's fixed 802.11 DSSS parameters. DcfMac, the fluid model and the
// invariant oracles (src/check) all read these one definitions.

inline constexpr std::int64_t kChannelBps = 2'000'000;  ///< Paper: 2 Mbps.
inline constexpr TimeNs kSlot = 20 * kMicrosecond;
inline constexpr TimeNs kSifs = 10 * kMicrosecond;
inline constexpr TimeNs kDifs = 50 * kMicrosecond;
inline constexpr int kCwMax = 1023;
inline constexpr int kRetryLimit = 7;  ///< Drops the packet after this many failed attempts.
/// Contention window for broadcast control frames (src/ctrl): they carry
/// no tag state, so they draw uniformly from [1, kCtrlCw + 1] instead of
/// consulting the BackoffPolicy.
inline constexpr int kCtrlCw = 31;
/// Upper bound on the extra bytes a CtrlPiggyback may attach to an
/// RTS/CTS. The RTS sender cannot know whether the responder will
/// piggyback, so when a piggyback source is installed its CTS-timeout
/// budget is widened by this many bytes of airtime.
inline constexpr int kCtrlPiggybackMax = 48;

// Frame sizes in bytes (MAC header + FCS; DATA adds the payload).
inline constexpr int kRtsBytes = 20;
inline constexpr int kCtsBytes = 14;
inline constexpr int kAckBytes = 14;
inline constexpr int kDataHeaderBytes = 52;  ///< MAC + IP/UDP overhead on top of the payload.

struct Frame {
  FrameType type = FrameType::kRts;
  std::int32_t tx = -1;  ///< Transmitting node.
  std::int32_t rx = -1;  ///< Intended receiver (frames are overheard by all).
  int bytes = 0;
  /// Virtual-carrier-sense reservation: medium time remaining in this
  /// exchange *after* this frame ends.
  TimeNs nav = 0;
  /// Present on DATA frames.
  std::optional<Packet> packet;
  /// 2PA piggyback: the service tag of the exchange's data packet and the
  /// global subflow id it belongs to (responders echo the initiator's tag).
  double service_tag = 0.0;
  std::int32_t tag_subflow = -1;
  bool has_service_tag = false;
  /// 2PA piggyback on ACK: the receiver-estimated backoff component R for
  /// the sender's future packets.
  double ack_backoff_r = 0.0;
  /// Allocation-control payload (src/ctrl): the whole message of a kCtrl
  /// frame, or a small table delta piggybacked on RTS/CTS. Opaque to the
  /// PHY/MAC; null for protocols without a control plane. Shared so the
  /// channel's pooled frame copies stay cheap.
  std::shared_ptr<const struct CtrlMsg> ctrl;
};

}  // namespace e2efa
