#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "util/assert.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace e2efa {

namespace {

std::string double_array_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += strformat("%.17g", v[i]);
  }
  out += "]";
  return out;
}

/// One sample as a single JSON line (no trailing newline).
std::string metrics_sample_jsonl(const MetricsSample& s, double period_s) {
  std::vector<double> goodput_pps;
  for (std::int64_t delivered : s.flow_delivered)
    goodput_pps.push_back(static_cast<double>(delivered) / period_s);
  const std::string goodput = double_array_json(goodput_pps);
  std::string line = strformat(
      "{\"t_s\":%.17g,\"flow_goodput_pps\":%s,\"jain\":%.17g,"
      "\"queue_p50\":%.17g,\"queue_p95\":%.17g,\"queue_max\":%.17g,"
      "\"mac_retry_rate\":%.17g,\"channel_utilization\":%.17g,"
      "\"ctrl_bytes\":%.17g,\"ctrl_overhead\":%.17g,"
      "\"ctrl_retransmits\":%.17g,\"ctrl_seq_gaps\":%.17g",
      s.t_s, goodput.c_str(), s.jain, s.queue_depth_p50, s.queue_depth_p95,
      s.queue_depth_max, s.mac_retry_rate, s.channel_utilization, s.ctrl_bytes,
      s.ctrl_overhead, s.ctrl_retransmits, s.ctrl_seq_gaps);
  // Transport columns appear only for elastic runs, so open-loop CBR
  // artifacts stay byte-identical to their pre-transport goldens.
  if (!s.flow_cwnd.empty())
    line += strformat(",\"flow_cwnd\":%s,\"flow_srtt_s\":%s,"
                      "\"flow_delivery_pps\":%s",
                      double_array_json(s.flow_cwnd).c_str(),
                      double_array_json(s.flow_srtt_s).c_str(),
                      double_array_json(s.flow_delivery_pps).c_str());
  line += "}";
  return line;
}

}  // namespace

WindowScore score_window(const std::vector<std::int64_t>& delivered, double period_s,
                         double payload_bytes, double channel_bps,
                         const std::vector<double>& targets) {
  WindowScore out;
  std::vector<double> rate;
  for (std::int64_t d : delivered) {
    const double count = static_cast<double>(d);
    rate.push_back(count / period_s);
    out.share.push_back(count * 8.0 * payload_bytes / (period_s * channel_bps));
  }
  const std::vector<double> normalized = normalized_by(out.share, targets);
  out.jain = jain_fairness_index(normalized.empty() ? rate : normalized);
  return out;
}

std::size_t epoch_at(const std::vector<double>& starts, double t_s) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), t_s + 1e-12);
  return it == starts.begin() ? 0 : static_cast<std::size_t>(it - starts.begin()) - 1;
}

std::size_t window_epoch(const std::vector<double>& starts, double end_s, double period_s) {
  return epoch_at(starts, end_s - 0.5 * period_s);
}

bool write_metrics_jsonl(const MetricsTimeSeries& ts, const std::string& path,
                         std::string* error) {
  E2EFA_ASSERT(error != nullptr);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot open metrics file: " + path;
    return false;
  }
  const std::string reconv = double_array_json(ts.reconv_s);
  const std::string header =
      strformat("{\"metrics_period_s\":%.17g,\"samples\":%zu,\"reconv_s\":%s}\n",
                ts.period_s, ts.samples.size(), reconv.c_str());
  std::fwrite(header.data(), 1, header.size(), f);
  for (const MetricsSample& s : ts.samples) {
    const std::string line = metrics_sample_jsonl(s, ts.period_s);
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
  }
  std::fclose(f);
  return true;
}

}  // namespace e2efa
