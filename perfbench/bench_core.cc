#include "bench_core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", "lower"},
      {"query_qps", "1/s", "higher"},
      {"query_p50_ms", "ms", "lower"},
      {"query_p90_ms", "ms", "lower"},
      {"append_p50_ms", "ms", "lower"},
      {"ingest_points_per_s", "1/s", "higher"},
      {"space_amp", "ratio", "lower"},
      {"server_rss_mb", "MB", "lower"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"net.ping_rtt_ms", "ms", "lower"},
      {"net.transport_ms", "ms", "lower"},
      {"net.request_bytes", "bytes", "lower"},
      {"net.response_bytes", "bytes", "lower"},
      {"net.encode_ms", "ms", "lower"},
      {"service.queue_p50_ms", "ms", "lower"},
      {"service.queue_p99_ms", "ms", "lower"},
      {"service.acquire_ms", "ms", "lower"},
      {"service.session_opens_per_query", "count", "lower"},
      {"service.commit_ms", "ms", "lower"},
      {"service.commit_unattributed_frac", "ratio", "lower"},
      {"matchdp.plan_ms", "ms", "lower"},
      {"match.probe_ms", "ms", "lower"},
      {"match.verify_ms", "ms", "lower"},
      {"match.candidates", "count", "lower"},
      {"match.ab_pruned_frac", "ratio", "higher"},
      {"match.verify_yield", "ratio", "higher"},
      {"match.selectivity_ratio", "ratio", "lower"},
      {"index.probes", "count", "lower"},
      {"index.rows_fetched", "count", "lower"},
      {"index.bytes_fetched", "bytes", "lower"},
      {"index.cache_hit_frac", "ratio", "higher"},
      {"distance.exact_calls", "count", "lower"},
      {"distance.lb_pruned_frac", "ratio", "higher"},
      {"distance.dtw_us_per_call", "us", "lower"},
      {"distance.ed_ns_per_call", "ns", "lower"},
      {"storage.flush_ms", "ms", "lower"},
      {"storage.flushes_per_commit", "count", "lower"},
      {"storage.write_amp", "ratio", "lower"},
      {"storage.read_amp", "ratio", "lower"},
      {"storage.scan_ms", "ms", "lower"},
      {"ts.series_read_ms", "ms", "lower"},
      {"coord.overhead_ms", "ms", "lower"},
      {"coord.merge_ms", "ms", "lower"},
      {"coord.shards_per_query", "count", "lower"},
      {"bench.trace_overhead_frac", "ratio", "lower"},
      {"bench.query_path_coverage", "ratio", "higher"},
      {"bench.append_path_coverage", "ratio", "higher"},
      {"bench.failed_frac", "ratio", "lower"},
      {"bench.query_p99_ms", "ms", "lower"},
      {"bench.append_p90_ms", "ms", "lower"},
  };
  return kMetrics;
}

Outcome ClassifyStatus(const kvmatch::Status& status, bool transport_ok) {
  if (!transport_ok) return Outcome::kTransport;
  if (status.ok()) return Outcome::kOk;
  if (status.IsResourceExhausted()) return Outcome::kShed;
  if (status.IsDeadlineExceeded()) return Outcome::kDeadline;
  return Outcome::kError;
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kShed: return "shed";
    case Outcome::kDeadline: return "deadline";
    case Outcome::kTransport: return "transport";
    case Outcome::kWrongAnswer: return "wrong_answer";
    case Outcome::kError: return "error";
  }
  return "?";
}

uint64_t OutcomeCounts::failed() const {
  uint64_t failed = 0;
  for (const auto& [outcome, count] : by_outcome) {
    if (outcome != Outcome::kOk) failed += count;
  }
  return failed;
}

std::string CompareToReference(
    const std::vector<kvmatch::MatchResult>& served,
    const std::vector<kvmatch::MatchResult>& reference, double epsilon,
    size_t settled_end) {
  std::map<size_t, double> ref;
  for (const auto& m : reference) ref[m.offset] = m.distance;
  std::set<size_t> seen;
  for (const auto& m : served) {
    auto it = ref.find(m.offset);
    if (it == ref.end()) {
      return "served offset " + std::to_string(m.offset) +
             " is not a reference match";
    }
    if (!seen.insert(m.offset).second) {
      return "served offset " + std::to_string(m.offset) + " twice";
    }
    const double tol = 1e-6 * std::max(1.0, std::fabs(it->second));
    if (std::fabs(m.distance - it->second) > tol) {
      std::ostringstream os;
      os.precision(17);
      os << "distance at offset " << m.offset << ": served " << m.distance
         << ", reference " << it->second;
      return os.str();
    }
  }
  const double sure = epsilon * (1.0 - kBoundaryRel);
  for (const auto& [offset, distance] : ref) {
    if (offset < settled_end && distance <= sure && seen.count(offset) == 0) {
      return "reference match at offset " + std::to_string(offset) +
             " was not served";
    }
  }
  return "";
}

std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    char* end = nullptr;
    const double v = std::strtod(line.c_str() + sp + 1, &end);
    if (end == line.c_str() + sp + 1) continue;
    out[line.substr(0, sp)] = v;
  }
  return out;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& key) {
  auto a = after.find(key);
  if (a == after.end()) return 0.0;
  auto b = before.find(key);
  return a->second - (b == before.end() ? 0.0 : b->second);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
