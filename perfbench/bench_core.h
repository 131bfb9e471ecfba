// Pure helpers of the served benchmark: percentiles, the metric catalogue,
// outcome accounting, the answer gate and Prometheus text parsing. Kept
// apart from the load generator (kvbench.cc) so kvbench_test.cc can check
// them without starting a server.
#ifndef PERFBENCH_BENCH_CORE_H_
#define PERFBENCH_BENCH_CORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "match/query_types.h"

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `values`: the smallest value
/// with at least p% of the samples at or below it. Linear time
/// (nth_element); 0 for an empty input.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Samples strictly above the nearest-rank percentile p — the count the
/// output reports so a reader can tell how well a tail is supported.
size_t SamplesBeyond(size_t n, double p);

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
};

/// Printed with --trace 0. Every workload reports every one of them.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Printed with --trace 1 (module.metric names).
const std::vector<MetricSpec>& PerLayerMetrics();

/// What became of one timed operation. Everything but kOk counts as failed.
enum class Outcome {
  kOk,
  kShed,         // ResourceExhausted: the server queue was full
  kDeadline,     // DeadlineExceeded
  kTransport,    // connection lost / frame corruption
  kWrongAnswer,  // answer differs from the brute-force reference
  kError,        // any other non-OK status
};
Outcome ClassifyStatus(const kvmatch::Status& status, bool transport_ok);
const char* OutcomeName(Outcome outcome);

struct OutcomeCounts {
  uint64_t attempted = 0;
  std::map<Outcome, uint64_t> by_outcome;

  void Add(Outcome outcome) {
    ++attempted;
    ++by_outcome[outcome];
  }
  uint64_t failed() const;
};

/// Compares a served ε-match answer against a reference computed at
/// ε·(1 + kBoundaryRel): every reference match at distance <= ε·(1 -
/// kBoundaryRel) must be served, nothing outside the reference may be, and
/// served distances must equal the reference's to 1e-6 relative. Matches
/// within kBoundaryRel of ε may go either way (summation order differs
/// between the SIMD verifier and the scalar reference). Reference matches
/// at offsets >= `settled_end` need not be served: for a series that was
/// being appended to, they cover points the request may not have seen
/// (served matches there must still be reference matches). Returns "" on
/// agreement, else a description of the first difference.
inline constexpr double kBoundaryRel = 1e-9;
std::string CompareToReference(
    const std::vector<kvmatch::MatchResult>& served,
    const std::vector<kvmatch::MatchResult>& reference, double epsilon,
    size_t settled_end = SIZE_MAX);

/// Parses a Prometheus text dump into "name{labels}" -> value.
std::map<std::string, double> ParsePrometheus(const std::string& text);

/// Value of `key` in `after` minus its value in `before` (0 if absent).
double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& key);

/// Minimal JSON number formatting: all significant digits, finite only.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CORE_H_
