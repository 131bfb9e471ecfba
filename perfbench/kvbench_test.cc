// Tests of the benchmark's own logic (no server needed).
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_core.h"
#include "common/rng.h"

namespace pb = perfbench;
using kvmatch::MatchResult;

TEST(Percentile, AgreesWithExactSort) {
  kvmatch::Rng rng(3);
  for (size_t n : {1u, 2u, 7u, 100u, 1001u, 4096u}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.Uniform(0, 100);
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {1.0, 50.0, 90.0, 99.0, 100.0}) {
      // Nearest rank: the smallest value with >= p% of samples at or below.
      size_t rank = 0;
      while (rank < n && (rank + 1) * 100.0 < p * n) ++rank;
      EXPECT_EQ(pb::Percentile(v, p), sorted[rank]) << "n=" << n << " p=" << p;
      const size_t at_or_below = rank + 1;
      EXPECT_EQ(pb::SamplesBeyond(n, p), n - at_or_below);
    }
  }
  EXPECT_EQ(pb::Percentile({}, 50), 0.0);
}

TEST(Metrics, NamesAreTheExpectedSet) {
  const std::set<std::string> e2e = {
      "setup_s", "query_qps", "query_p50_ms", "query_p90_ms",
      "append_p50_ms", "ingest_points_per_s", "space_amp", "server_rss_mb"};
  std::set<std::string> got;
  for (const auto& m : pb::EndToEndMetrics()) got.insert(m.name);
  EXPECT_EQ(got, e2e);

  const std::set<std::string> layer = {
      "net.ping_rtt_ms", "net.transport_ms", "net.request_bytes",
      "net.response_bytes", "net.encode_ms", "service.queue_p50_ms",
      "service.queue_p99_ms", "service.acquire_ms",
      "service.session_opens_per_query", "service.commit_ms",
      "service.commit_unattributed_frac", "matchdp.plan_ms",
      "match.probe_ms", "match.verify_ms", "match.candidates",
      "match.ab_pruned_frac", "match.verify_yield", "match.selectivity_ratio",
      "index.probes", "index.rows_fetched", "index.bytes_fetched",
      "index.cache_hit_frac", "distance.exact_calls",
      "distance.lb_pruned_frac", "distance.dtw_us_per_call",
      "distance.ed_ns_per_call", "storage.flush_ms",
      "storage.flushes_per_commit", "storage.write_amp", "storage.read_amp",
      "storage.scan_ms", "ts.series_read_ms", "coord.overhead_ms",
      "coord.merge_ms", "coord.shards_per_query",
      "bench.trace_overhead_frac", "bench.query_path_coverage",
      "bench.append_path_coverage", "bench.failed_frac", "bench.query_p99_ms",
      "bench.append_p90_ms"};
  got.clear();
  for (const auto& m : pb::PerLayerMetrics()) got.insert(m.name);
  EXPECT_EQ(got, layer);
}

TEST(Gate, InjectedWrongMatchSetFails) {
  const std::vector<MatchResult> ref = {{10, 1.0}, {11, 1.5}, {500, 1.9}};
  EXPECT_EQ(pb::CompareToReference(ref, ref, 2.0), "");
  // A dropped match, an extra match and a wrong distance all fail.
  EXPECT_NE(pb::CompareToReference({{10, 1.0}, {11, 1.5}}, ref, 2.0), "");
  EXPECT_NE(pb::CompareToReference({{10, 1.0}, {11, 1.5}, {12, 1.6},
                                    {500, 1.9}},
                                   ref, 2.0),
            "");
  EXPECT_NE(pb::CompareToReference({{10, 1.0}, {11, 1.25}, {500, 1.9}}, ref,
                                   2.0),
            "");
  // A reference match on the threshold itself may go either way.
  const std::vector<MatchResult> edge = {{10, 1.0}, {20, 2.0}};
  EXPECT_EQ(pb::CompareToReference({{10, 1.0}}, edge, 2.0), "");
  EXPECT_EQ(pb::CompareToReference(edge, edge, 2.0), "");
  // Past the settled end (a growing series) a reference match may be
  // missing, but a served match must still be a reference match.
  EXPECT_EQ(pb::CompareToReference({{10, 1.0}, {11, 1.5}}, ref, 2.0, 400), "");
  EXPECT_NE(pb::CompareToReference({{10, 1.0}, {11, 1.5}}, ref, 2.0, 501), "");
  EXPECT_NE(pb::CompareToReference({{10, 1.0}, {11, 1.5}, {600, 1.0}}, ref,
                                   2.0, 400),
            "");
}

TEST(Outcomes, ShedRequestCountsAsFailed) {
  pb::OutcomeCounts counts;
  counts.Add(pb::ClassifyStatus(kvmatch::Status::OK(), true));
  counts.Add(pb::ClassifyStatus(
      kvmatch::Status::ResourceExhausted("queue full"), true));
  EXPECT_EQ(pb::ClassifyStatus(kvmatch::Status::ResourceExhausted("x"), true),
            pb::Outcome::kShed);
  EXPECT_EQ(counts.attempted, 2u);
  EXPECT_EQ(counts.failed(), 1u);
  counts.Add(pb::ClassifyStatus(kvmatch::Status::DeadlineExceeded("x"), true));
  counts.Add(pb::ClassifyStatus(kvmatch::Status::OK(), false));
  counts.Add(pb::Outcome::kWrongAnswer);
  EXPECT_EQ(counts.failed(), 4u);
}

TEST(Prometheus, ParsesLabelledCountersAndDeltas) {
  const auto a = pb::ParsePrometheus(
      "# HELP x\nkvmatch_commits_total 3\n"
      "kvmatch_commit_stage_ms_total{stage=\"flip\"} 12.5\n");
  const auto b = pb::ParsePrometheus(
      "kvmatch_commits_total 7\n"
      "kvmatch_commit_stage_ms_total{stage=\"flip\"} 20\n");
  EXPECT_EQ(pb::Delta(a, b, "kvmatch_commits_total"), 4.0);
  EXPECT_EQ(pb::Delta(a, b, "kvmatch_commit_stage_ms_total{stage=\"flip\"}"),
            7.5);
  EXPECT_EQ(pb::Delta(a, b, "absent"), 0.0);
}
