#include "transport/transport.hpp"

#include "util/assert.hpp"

namespace e2efa {

const char* to_string(TransportKind k) {
  switch (k) {
    case TransportKind::kCbr: return "cbr";
    case TransportKind::kAimd: return "aimd";
    case TransportKind::kBbr: return "bbr";
  }
  return "?";
}

std::optional<TransportKind> parse_transport_kind(const std::string& s) {
  if (s == "cbr") return TransportKind::kCbr;
  if (s == "aimd") return TransportKind::kAimd;
  if (s == "bbr") return TransportKind::kBbr;
  return std::nullopt;
}

std::atomic<std::uint64_t> CbrTransport::next_uid_{1};

CbrTransport::CbrTransport(Simulator& sim, double packets_per_second, int payload_bytes,
                           std::function<void(Packet)> emit, Rng& phase_rng)
    : sim_(sim), payload_bytes_(payload_bytes), emit_(std::move(emit)) {
  E2EFA_ASSERT(packets_per_second > 0.0);
  E2EFA_ASSERT(payload_bytes > 0);
  E2EFA_ASSERT(emit_ != nullptr);
  interval_ = static_cast<TimeNs>(1e9 / packets_per_second);
  E2EFA_ASSERT(interval_ > 0);
  phase_ = static_cast<TimeNs>(phase_rng.uniform_u64(static_cast<std::uint64_t>(interval_)));
}

void CbrTransport::start(TimeNs until) {
  until_ = until;
  sim_.schedule_at(sim_.now() + phase_, [this] { tick(); });
}

void CbrTransport::tick() {
  if (sim_.now() >= until_) return;
  Packet p;
  p.uid = next_uid_.fetch_add(1, std::memory_order_relaxed);
  p.seq = seq_++;
  p.payload_bytes = payload_bytes_;
  p.created = sim_.now();
  emit_(p);
  sim_.schedule_in(interval_, [this] { tick(); });
}

}  // namespace e2efa
