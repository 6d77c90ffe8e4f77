// Structured event tracing for the simulator (the observability layer's
// "flight recorder").
//
// Design goals, in order:
//   1. Zero overhead when disabled. Instrumented components hold a
//      `TraceSink*` that defaults to null; the entire hot-path cost of a
//      disabled trace point is one pointer test, and a category the
//      runtime filter excludes costs one mask test more.
//   2. Determinism. Emission is strictly passive: no RNG, no scheduled
//      events, no time queries — callers pass the simulation timestamp.
//      The same seed therefore produces byte-identical trace files, and
//      enabling tracing cannot perturb the simulated trajectory.
//   3. Bounded memory. A sink streaming to a file buffers a fixed number
//      of records and flushes the buffer whenever it fills; a sink without
//      a file keeps everything in memory (tests, analysis in-process).
//
// Records are fixed-size 48-byte POD rows (nanosecond timestamp, typed
// event, node, two int arguments, a causal span/parent id pair, two double
// arguments); the binary file is a 16-byte header followed by raw records.
// `trace-tool jsonl` renders a file as one JSON line per record for ad-hoc
// tooling.
//
// Causal spans (observability v2): a record may carry a nonzero `span` id
// (this record is a node in a causal chain) and a nonzero `parent` id (the
// span that caused it). Span ids are allocated by TraceSink::new_span() in
// emission order, so they are deterministic per (seed, filter) like
// everything else; 0 always means "no span". Offline tools rebuild the
// chain from (span, parent) alone — see obs/trace_analysis.hpp.
//
// Flight recorder: set_ring(capacity) turns a sink into a bounded
// in-memory ring of the most recent records. The ring never flushes or
// grows, so it can stay armed for an entire run at the cost of one 48-byte
// copy per record; CheckContext snapshots it when an invariant trips
// (see src/check/check.hpp) and write_trace_file() dumps the snapshot.
#pragma once

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace e2efa {

/// Trace categories: one bit each, used by the runtime filter
/// (--trace-filter). kTraceCategoryNames holds their filter names.
enum class TraceCat : std::uint32_t {
  kMeta = 0,     ///< Run/flow/subflow structure (always useful; see below).
  kPhy = 1,      ///< Frame tx / rx / collision / fault at the channel.
  kMac = 2,      ///< Retry and retry-limit drop decisions.
  kBackoff = 3,  ///< Backoff draws with the Q/R tag-lag terms.
  kTag = 4,      ///< Per-subflow start / internal-finish / external-finish tags.
  kVClock = 5,   ///< Node virtual-clock updates.
  kQueue = 6,    ///< Queue enqueue / drop with post-op depth.
  kFault = 7,    ///< Fault epoch transitions.
  kLp = 8,       ///< Phase-1 (re-)solves and the resulting flow targets.
  kFlow = 9,     ///< End-to-end deliveries per logical flow.
  kCtrl = 10,    ///< In-band allocation control plane (HELLO/CONSTRAINT/RATE).
  kTransport = 11,  ///< Elastic transport: sends, ACK path, retransmits, cwnd.
};

/// Filter names, indexed by TraceCat.
inline constexpr const char* kTraceCategoryNames[] = {
    "meta",  "phy",   "mac", "backoff", "tag",  "vclock",
    "queue", "fault", "lp",  "flow",    "ctrl", "transport"};

constexpr std::uint32_t trace_bit(TraceCat c) {
  return 1u << static_cast<std::uint32_t>(c);
}
constexpr std::uint32_t kTraceCategoryCount = std::size(kTraceCategoryNames);
constexpr std::uint32_t kTraceAllCategories = (1u << kTraceCategoryCount) - 1u;

/// Typed trace events. The (a, b, v0, v1) payload meaning is per type and
/// documented here once; kTraceEvents gives each its name and category.
enum class TraceEvent : std::uint16_t {
  kRunMeta = 0,         ///< t=0. a=node count, b=flow count, v0=channel bps, v1=payload bytes.
  kSubflowMeta = 1,     ///< t=0. node=source, a=subflow, b=flow, v0=hop index.
  kFrameTx = 2,         ///< node=sender, a=FrameType, b=receiver, v0=bytes, v1=1 if RF-silent (crashed sender).
  kFrameRx = 3,         ///< node=receiver, a=FrameType, b=sender, v0=bytes.
  kFrameCollision = 4,  ///< node=receiver, b=sender, v0=bytes.
  kFrameFaulted = 5,    ///< node=receiver, a=0 dead-node/link, 1 loss draw, b=sender.
  kMacRetry = 6,        ///< node, a=retry count after this timeout.
  kMacDrop = 7,         ///< node, a=subflow, b=retries at the limit.
  kBackoffDraw = 8,     ///< node, a=slots drawn, b=retries, v0=Q slots, v1=last ACK R slots.
  kTagStart = 9,        ///< node, a=subflow, v0=start tag S (µs).
  kTagInternalFinish = 10,  ///< node, a=subflow, v0=internal finish tag I (µs).
  kTagExternalFinish = 11,  ///< node, a=subflow, v0=external finish tag E (µs).
  kVClockUpdate = 12,   ///< node, v0=new virtual clock, v1=previous (µs).
  kQueueEnqueue = 13,   ///< node, a=subflow, b=queue depth after the enqueue.
  kQueueDrop = 14,      ///< node, a=subflow, b=queue depth (full, drop-tail).
  kFaultEpoch = 15,     ///< a=epoch index, v0=epoch start (seconds).
  kLpResolve = 16,      ///< a=epoch index, b=LpStatus, v0=epoch start (seconds).
  kFlowTarget = 17,     ///< a=logical flow, v0=target share (units of B); 0 = inactive/suspended.
  kDelivery = 18,       ///< node=destination, a=logical flow, v0=end-to-end delay (s).
  kCtrlSend = 19,       ///< node=sender, a=CtrlMsg::Kind, b=directed target (-1 bcast), v0=wire bytes, v1=seq.
  kCtrlRecv = 20,       ///< node=receiver, a=CtrlMsg::Kind, b=origin, v0=wire bytes, v1=1 if piggybacked.
  kCtrlSolve = 21,      ///< node=source, a=flow, b=LpStatus, v0=solved share (units of B), v1=accumulated clique count.
  kCtrlRate = 22,       ///< node, a=subflow, b=flow, v0=applied lane share (units of B).
  kCtrlAdmit = 23,      ///< node, a=candidate flow, b=local verdict (1 admit), v0=worst local clique load.
  kCtrlRetransmit = 24, ///< node, a=CtrlMsg::Kind resent, b=flow, v0=retransmit count, v1=backoff wait (ticks).
  kCtrlSeqGap = 25,     ///< node=receiver, a=origin, b=gap (messages missed), v0=expected seq, v1=got seq.
  kCtrlReconv = 26,     ///< run-global, a=epoch index, v0=re-convergence time (s), v1=epoch boundary (s).
  kTransSend = 27,        ///< node=source, a=flow, b=0, v0=seq, v1=cwnd; parent=last kTransAckRx span (the ACK clock).
  kTransAckTx = 28,       ///< node=sink/relay, a=flow, b=next upstream hop, v0=cumack, v1=echo seq; span owned, parent=cause.
  kTransAckRx = 29,       ///< node=source, a=flow, b=sink, v0=cumack, v1=echo seq; span owned, parent=carrying kTransAckTx.
  kTransRetransmit = 30,  ///< node=source, a=flow, b=1 timeout / 0 dupack, v0=seq, v1=cwnd.
  kTransTimeout = 31,     ///< node=source, a=flow, b=backoff exponent, v0=RTO (s), v1=srtt (s).
  kTransCwnd = 32,        ///< node=source, a=flow, v0=cwnd (pkts), v1=srtt (s); emitted when floor(cwnd) moves.
};

struct TraceEventInfo {
  TraceEvent event;
  const char* name;  ///< JSONL and report name.
  TraceCat cat;      ///< Drives filtering.
};

/// The event table: one row per TraceEvent, in enum order.
inline constexpr TraceEventInfo kTraceEvents[] = {
    {TraceEvent::kRunMeta, "run_meta", TraceCat::kMeta},
    {TraceEvent::kSubflowMeta, "subflow_meta", TraceCat::kMeta},
    {TraceEvent::kFrameTx, "frame_tx", TraceCat::kPhy},
    {TraceEvent::kFrameRx, "frame_rx", TraceCat::kPhy},
    {TraceEvent::kFrameCollision, "frame_collision", TraceCat::kPhy},
    {TraceEvent::kFrameFaulted, "frame_faulted", TraceCat::kPhy},
    {TraceEvent::kMacRetry, "mac_retry", TraceCat::kMac},
    {TraceEvent::kMacDrop, "mac_drop", TraceCat::kMac},
    {TraceEvent::kBackoffDraw, "backoff_draw", TraceCat::kBackoff},
    {TraceEvent::kTagStart, "tag_start", TraceCat::kTag},
    {TraceEvent::kTagInternalFinish, "tag_internal_finish", TraceCat::kTag},
    {TraceEvent::kTagExternalFinish, "tag_external_finish", TraceCat::kTag},
    {TraceEvent::kVClockUpdate, "vclock_update", TraceCat::kVClock},
    {TraceEvent::kQueueEnqueue, "queue_enqueue", TraceCat::kQueue},
    {TraceEvent::kQueueDrop, "queue_drop", TraceCat::kQueue},
    {TraceEvent::kFaultEpoch, "fault_epoch", TraceCat::kFault},
    {TraceEvent::kLpResolve, "lp_resolve", TraceCat::kLp},
    {TraceEvent::kFlowTarget, "flow_target", TraceCat::kLp},
    {TraceEvent::kDelivery, "delivery", TraceCat::kFlow},
    {TraceEvent::kCtrlSend, "ctrl_send", TraceCat::kCtrl},
    {TraceEvent::kCtrlRecv, "ctrl_recv", TraceCat::kCtrl},
    {TraceEvent::kCtrlSolve, "ctrl_solve", TraceCat::kCtrl},
    {TraceEvent::kCtrlRate, "ctrl_rate", TraceCat::kCtrl},
    {TraceEvent::kCtrlAdmit, "ctrl_admit", TraceCat::kCtrl},
    {TraceEvent::kCtrlRetransmit, "ctrl_retransmit", TraceCat::kCtrl},
    {TraceEvent::kCtrlSeqGap, "ctrl_seq_gap", TraceCat::kCtrl},
    {TraceEvent::kCtrlReconv, "ctrl_reconv", TraceCat::kCtrl},
    {TraceEvent::kTransSend, "trans_send", TraceCat::kTransport},
    {TraceEvent::kTransAckTx, "trans_ack_tx", TraceCat::kTransport},
    {TraceEvent::kTransAckRx, "trans_ack_rx", TraceCat::kTransport},
    {TraceEvent::kTransRetransmit, "trans_retransmit", TraceCat::kTransport},
    {TraceEvent::kTransTimeout, "trans_timeout", TraceCat::kTransport},
    {TraceEvent::kTransCwnd, "trans_cwnd", TraceCat::kTransport},
};

/// Number of defined TraceEvent values; readers reject anything >= this
/// (a corrupt record, not a format they should silently accept).
constexpr std::uint16_t kTraceEventCount = std::size(kTraceEvents);

static_assert(
    [] {
      for (std::uint16_t i = 0; i < kTraceEventCount; ++i)
        if (static_cast<std::uint16_t>(kTraceEvents[i].event) != i) return false;
      return true;
    }(),
    "kTraceEvents rows must follow TraceEvent order");

constexpr TraceCat trace_category(TraceEvent e) {
  return kTraceEvents[static_cast<std::uint16_t>(e)].cat;
}

/// Table name of an event ("unknown" outside the table).
constexpr const char* to_string(TraceEvent e) {
  const auto i = static_cast<std::uint16_t>(e);
  return i < kTraceEventCount ? kTraceEvents[i].name : "unknown";
}

/// One fixed-size trace row. The explicit `pad` keeps the on-disk bytes
/// fully determined (fwrite of the struct must not leak uninitialized
/// padding into the file).
struct TraceRecord {
  TimeNs t = 0;            ///< Simulation time, nanoseconds.
  std::uint16_t type = 0;  ///< TraceEvent.
  std::int16_t node = -1;  ///< Node the event happened at (-1: run-global).
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::uint32_t span = 0;    ///< Causal span id of this record (0 = none).
  std::uint32_t parent = 0;  ///< Span id that caused this record (0 = root).
  std::uint32_t pad = 0;
  double v0 = 0.0;
  double v1 = 0.0;

  TraceEvent event() const { return static_cast<TraceEvent>(type); }
  bool operator==(const TraceRecord&) const = default;
};
static_assert(sizeof(TraceRecord) == 48, "trace record layout is part of the file format");

/// Parses a comma-separated category list ("phy,backoff,queue"; "all" for
/// everything) into a filter mask. kMeta is always included — structural
/// records cost a handful of rows and every tool needs them. Returns false
/// and fills *error on an unknown category name. `named`, when given,
/// receives the categories the list names one by one ("all" names none).
bool parse_trace_filter(const std::string& spec, std::uint32_t* mask,
                        std::string* error, std::uint32_t* named = nullptr);

class TraceSink {
 public:
  /// `buffer_records` bounds memory in streaming mode (the buffer flushes
  /// to the file whenever it fills). In in-memory mode (no open()) the
  /// buffer simply grows.
  explicit TraceSink(std::size_t buffer_records = 1u << 16);
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Starts streaming records to the binary trace file `path`. Returns
  /// false and fills *error if the file cannot be created. Call before the
  /// run; close() finalizes (patches the header's record count). Mutually
  /// exclusive with set_ring().
  bool open(const std::string& path, std::string* error);
  /// Flushes buffered records and closes the file (no-op in memory mode).
  void close();

  /// Flight-recorder mode: keep only the most recent `capacity` records in
  /// a bounded in-memory ring (older records are overwritten, never
  /// flushed). Call before any record; mutually exclusive with open().
  void set_ring(std::size_t capacity);
  bool ring_mode() const { return ring_capacity_ != 0; }

  /// The most recent records in chronological order: the ring contents in
  /// ring mode, otherwise every record of an in-memory sink. This is what
  /// the flight-recorder dump contains. A streaming sink has flushed its
  /// history to the file, so asking it is a contract violation.
  std::vector<TraceRecord> recent_records() const;

  /// Runtime category filter (default: everything).
  void set_filter(std::uint32_t mask) { mask_ = mask | trace_bit(TraceCat::kMeta); }
  std::uint32_t filter() const { return mask_; }

  /// True when the event's category passes the runtime filter. Call sites
  /// whose record() *arguments* are expensive to compute (e.g. the Q/R
  /// tag-lag sums) must test this first, so a filtered-out category costs
  /// no more than a mask test.
  bool enabled(TraceEvent type) const {
    return (mask_ & trace_bit(trace_category(type))) != 0u;
  }

  /// Emits one record if the filter passes its category. `span`/`parent`
  /// thread the causal chain (0 = none); call sites that don't participate
  /// simply omit them.
  void record(TimeNs t, TraceEvent type, std::int16_t node, std::int32_t a,
              std::int32_t b, double v0 = 0.0, double v1 = 0.0,
              std::uint32_t span = 0, std::uint32_t parent = 0) {
    if (!enabled(type)) return;
    push(TraceRecord{t, static_cast<std::uint16_t>(type), node, a, b, span,
                     parent, 0, v0, v1});
  }

  /// Allocates a fresh causal span id (never 0). Ids are handed out in
  /// call order, so they are deterministic per (seed, filter) — callers
  /// must gate allocation on enabled() exactly like record().
  std::uint32_t new_span() { return ++next_span_; }

  /// Records seen (post-filter) over the sink's lifetime.
  std::uint64_t recorded() const { return recorded_; }

  /// In-memory mode: the accumulated records. Streaming mode: the unflushed
  /// tail only (use the file).
  const std::vector<TraceRecord>& records() const { return buf_; }

 private:
  void push(const TraceRecord& r);
  void flush();

  std::vector<TraceRecord> buf_;
  std::size_t capacity_;
  std::uint32_t mask_ = kTraceAllCategories;
  std::uint64_t recorded_ = 0;
  std::uint32_t next_span_ = 0;
  std::FILE* file_ = nullptr;
  std::size_t ring_capacity_ = 0;  ///< 0 = not in ring mode.
  std::size_t ring_next_ = 0;      ///< Slot the next ring record overwrites.
  std::uint64_t written_ = 0;      ///< Records flushed to the file so far.
};

/// Renders one record as a single JSON line (no trailing newline); what
/// `trace-tool jsonl` prints.
std::string trace_record_jsonl(const TraceRecord& r);

/// Writes `records` as a complete trace file (header with the exact record
/// count, then the records) — the flight-recorder dump path. Returns false
/// and fills *error if the file cannot be created.
bool write_trace_file(const std::vector<TraceRecord>& records,
                      const std::string& path, std::string* error);

/// Reads a binary trace file. Returns false and fills *error on a missing
/// file, a bad/unknown header, a record-count mismatch, an unknown event
/// type, or a truncated record tail; record-level errors name the 1-based
/// record number and byte offset.
bool read_trace(const std::string& path, std::vector<TraceRecord>* out,
                std::string* error);

}  // namespace e2efa
