#include "obs/trace.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace e2efa {

namespace {

// "E2FA" + version + record size: readers reject anything they don't
// understand instead of misparsing it. Version 2 widened records to 48
// bytes (span/parent ids) and repurposed the reserved word as the record
// count, patched in at close so readers can detect truncation exactly.
constexpr std::uint32_t kTraceMagic = 0x45324641u;
constexpr std::uint32_t kTraceVersion = 2;
// Streams that die before close() leave the sentinel; readers then fall
// back to "count unknown" and only check for a partial trailing record.
constexpr std::uint32_t kTraceCountUnknown = 0xffffffffu;

struct TraceHeader {
  std::uint32_t magic = kTraceMagic;
  std::uint32_t version = kTraceVersion;
  std::uint32_t record_size = sizeof(TraceRecord);
  std::uint32_t record_count = kTraceCountUnknown;
};
static_assert(sizeof(TraceHeader) == 16);
constexpr long kTraceCountOffset = 12;  ///< Byte offset of record_count.

/// Writes the binary-format header to an open file with the "unknown
/// count" sentinel (TraceSink::close patches the real count in).
void write_trace_header(std::FILE* f) {
  const TraceHeader h;
  std::fwrite(&h, sizeof(h), 1, f);
}

}  // namespace

bool parse_trace_filter(const std::string& spec, std::uint32_t* mask,
                        std::string* error) {
  E2EFA_ASSERT(mask != nullptr && error != nullptr);
  std::uint32_t m = trace_bit(TraceCat::kMeta);
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string name = spec.substr(pos, comma - pos);
    pos = comma + 1;
    while (!name.empty() && (name.front() == ' ' || name.front() == '\t'))
      name.erase(name.begin());
    while (!name.empty() && (name.back() == ' ' || name.back() == '\t'))
      name.pop_back();
    if (name.empty()) continue;
    if (name == "all") {
      m = kTraceAllCategories;
      continue;
    }
    const auto* const it = std::find(std::begin(kTraceCategoryNames),
                                     std::end(kTraceCategoryNames), name);
    if (it == std::end(kTraceCategoryNames)) {
      *error = "unknown trace category: " + name + " (expected ";
      for (const char* c : kTraceCategoryNames) *error += std::string(c) + "|";
      *error += "all)";
      return false;
    }
    m |= 1u << (it - std::begin(kTraceCategoryNames));
  }
  *mask = m;
  return true;
}

TraceSink::TraceSink(std::size_t buffer_records)
    : capacity_(buffer_records == 0 ? 1 : buffer_records) {
  buf_.reserve(capacity_);
}

TraceSink::~TraceSink() { close(); }

bool TraceSink::open(const std::string& path, std::string* error) {
  E2EFA_ASSERT(error != nullptr);
  E2EFA_ASSERT_MSG(file_ == nullptr, "trace sink already streaming");
  E2EFA_ASSERT_MSG(ring_capacity_ == 0, "trace sink is a flight-recorder ring");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot open trace file: " + path;
    return false;
  }
  file_ = f;
  written_ = 0;
  write_trace_header(file_);
  return true;
}

void TraceSink::close() {
  if (file_ == nullptr) return;
  flush();
  if (written_ < kTraceCountUnknown &&
      std::fseek(file_, kTraceCountOffset, SEEK_SET) == 0) {
    const std::uint32_t count = static_cast<std::uint32_t>(written_);
    std::fwrite(&count, sizeof(count), 1, file_);
  }
  std::fclose(file_);
  file_ = nullptr;
}

void TraceSink::set_ring(std::size_t capacity) {
  E2EFA_ASSERT_MSG(file_ == nullptr, "trace sink already streaming");
  E2EFA_ASSERT_MSG(capacity > 0, "flight-recorder ring needs a capacity");
  ring_capacity_ = capacity;
  ring_next_ = 0;
  buf_.clear();
  buf_.reserve(capacity);
}

std::vector<TraceRecord> TraceSink::recent_records() const {
  E2EFA_ASSERT_MSG(file_ == nullptr,
                   "a streaming trace sink keeps its history in the file");
  if (ring_capacity_ == 0 || buf_.size() < ring_capacity_)
    return buf_;  // Not wrapped yet (or not a ring): already chronological.
  std::vector<TraceRecord> out;
  out.reserve(buf_.size());
  out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(ring_next_),
             buf_.end());
  out.insert(out.end(), buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(ring_next_));
  return out;
}

void TraceSink::push(const TraceRecord& r) {
  ++recorded_;
  if (ring_capacity_ != 0) {
    if (buf_.size() < ring_capacity_) {
      buf_.push_back(r);
    } else {
      buf_[ring_next_] = r;
      ring_next_ = (ring_next_ + 1) % ring_capacity_;
    }
    return;
  }
  buf_.push_back(r);
  if (file_ != nullptr && buf_.size() >= capacity_) flush();
}

void TraceSink::flush() {
  if (file_ == nullptr || buf_.empty()) return;
  std::fwrite(buf_.data(), sizeof(TraceRecord), buf_.size(), file_);
  written_ += buf_.size();
  buf_.clear();
}

std::string trace_record_jsonl(const TraceRecord& r) {
  // %.17g round-trips doubles exactly, keeping JSONL output as deterministic
  // as the binary file it renders.
  return strformat(
      "{\"t_ns\":%lld,\"ev\":\"%s\",\"node\":%d,\"a\":%d,\"b\":%d,"
      "\"span\":%u,\"parent\":%u,\"v0\":%.17g,\"v1\":%.17g}",
      static_cast<long long>(r.t), to_string(r.event()), static_cast<int>(r.node),
      static_cast<int>(r.a), static_cast<int>(r.b),
      static_cast<unsigned>(r.span), static_cast<unsigned>(r.parent), r.v0, r.v1);
}

bool write_trace_file(const std::vector<TraceRecord>& records,
                      const std::string& path, std::string* error) {
  E2EFA_ASSERT(error != nullptr);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot open trace file: " + path;
    return false;
  }
  TraceHeader h;
  h.record_count = records.size() < kTraceCountUnknown
                       ? static_cast<std::uint32_t>(records.size())
                       : kTraceCountUnknown;
  std::fwrite(&h, sizeof(h), 1, f);
  if (!records.empty())
    std::fwrite(records.data(), sizeof(TraceRecord), records.size(), f);
  std::fclose(f);
  return true;
}

bool read_trace(const std::string& path, std::vector<TraceRecord>* out,
                std::string* error) {
  E2EFA_ASSERT(out != nullptr && error != nullptr);
  out->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open trace file: " + path;
    return false;
  }
  TraceHeader h;
  if (std::fread(&h, sizeof(h), 1, f) != 1 || h.magic != kTraceMagic) {
    *error = "not a trace file (bad header): " + path;
    std::fclose(f);
    return false;
  }
  if (h.version != kTraceVersion || h.record_size != sizeof(TraceRecord)) {
    *error = strformat(
        "unsupported trace format in %s: version %u record_size %u "
        "(this build reads version %u record_size %zu)",
        path.c_str(), static_cast<unsigned>(h.version),
        static_cast<unsigned>(h.record_size),
        static_cast<unsigned>(kTraceVersion), sizeof(TraceRecord));
    std::fclose(f);
    return false;
  }
  TraceRecord r;
  std::size_t got;
  while ((got = std::fread(&r, 1, sizeof(r), f)) == sizeof(r)) {
    if (r.type >= kTraceEventCount) {
      *error = strformat(
          "corrupt trace record %zu (byte offset %zu) in %s: unknown event "
          "type %u",
          out->size() + 1,
          sizeof(TraceHeader) + out->size() * sizeof(TraceRecord), path.c_str(),
          static_cast<unsigned>(r.type));
      std::fclose(f);
      return false;
    }
    out->push_back(r);
  }
  std::fclose(f);
  if (got != 0) {
    *error = strformat(
        "truncated trace record %zu (byte offset %zu) in %s: got %zu of %zu "
        "bytes",
        out->size() + 1,
        sizeof(TraceHeader) + out->size() * sizeof(TraceRecord), path.c_str(),
        got, sizeof(TraceRecord));
    return false;
  }
  if (h.record_count != kTraceCountUnknown && out->size() != h.record_count) {
    *error = strformat(
        "trace file %s is incomplete: header promises %u records, found %zu",
        path.c_str(), static_cast<unsigned>(h.record_count), out->size());
    return false;
  }
  return true;
}

}  // namespace e2efa
