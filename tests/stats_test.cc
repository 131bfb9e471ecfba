// Unit tests for the observability layer: the log-bucketed
// LatencyHistogram (bucket math, percentile accuracy against exact
// sorted samples, lock-free multi-threaded recording) and the
// StatsRegistry's Prometheus exposition (every line must parse as
// `name{labels} value`, the histogram must emit a well-formed
// cumulative `_bucket` series, and per-series ingest volume must be
// attributed to the right series).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "service/service_stats.h"

namespace kvmatch {
namespace {

// ------------------------------------------------------------ histogram

TEST(HistogramTest, BucketBoundsAreMonotonicAndConsistent) {
  double prev = 0.0;
  for (size_t i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
    const double upper = LatencyHistogram::BucketUpperBoundMs(i);
    EXPECT_GT(upper, prev) << "bucket " << i;
    // A value exactly at the bound belongs to this bucket; just above
    // belongs to a later one.
    EXPECT_EQ(LatencyHistogram::BucketIndex(upper), i);
    EXPECT_GT(LatencyHistogram::BucketIndex(upper * 1.0001), i);
    prev = upper;
  }
  EXPECT_TRUE(std::isinf(LatencyHistogram::BucketUpperBoundMs(
      LatencyHistogram::kNumBuckets - 1)));
}

TEST(HistogramTest, DegenerateValuesLandSomewhereSane) {
  EXPECT_EQ(LatencyHistogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(-5.0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(
                std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1e18),
            LatencyHistogram::kNumBuckets - 1);

  LatencyHistogram h;
  h.Record(-1.0);
  h.Record(std::numeric_limits<double>::quiet_NaN());  // dropped
  h.Record(1e18);
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 2u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[LatencyHistogram::kNumBuckets - 1], 1u);
}

TEST(HistogramTest, SnapshotTracksExactExtremaAndMean) {
  LatencyHistogram h;
  const double values[] = {3.0, 0.25, 12.5, 0.25, 7.75};
  double sum = 0.0;
  for (double v : values) {
    h.Record(v);
    sum += v;
  }
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 5u);
  EXPECT_DOUBLE_EQ(snap.min_ms, 0.25);
  EXPECT_DOUBLE_EQ(snap.max_ms, 12.5);
  // sum_ms goes through integer nanoseconds: exact to ~1e-6 ms.
  EXPECT_NEAR(snap.sum_ms, sum, 1e-5);
  EXPECT_NEAR(snap.MeanMs(), sum / 5.0, 1e-5);
}

TEST(HistogramTest, EmptyHistogramReportsZeroes) {
  LatencyHistogram h;
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.Percentile(0.5), 0.0);
  EXPECT_EQ(snap.MeanMs(), 0.0);
}

// The core accuracy claim: bucketed percentiles stay within one bucket
// width (~9%, we allow 10%) of the exact sorted-sample percentile, for a
// latency-shaped (log-uniform) distribution.
TEST(HistogramTest, PercentilesTrackExactSortedSamples) {
  Rng rng(42);
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) {
    // Log-uniform over [0.05 ms, 5 s]: every decade equally likely, the
    // shape real latency tails take.
    const double v = 0.05 * std::pow(10.0, rng.Uniform(0.0, 5.0));
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  const auto snap = h.TakeSnapshot();
  ASSERT_EQ(snap.total, samples.size());
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const double exact =
        samples[static_cast<size_t>(q * (samples.size() - 1))];
    const double est = snap.Percentile(q);
    EXPECT_NEAR(est, exact, 0.10 * exact)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
  EXPECT_GE(snap.Percentile(0.0), snap.min_ms);
  EXPECT_LE(snap.Percentile(1.0), snap.max_ms);
}

TEST(HistogramTest, PercentileOfUniformSamplesInterpolates) {
  // All mass in one bucket: interpolation must not collapse to a bound.
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.Record(10.0);
  const auto snap = h.TakeSnapshot();
  EXPECT_NEAR(snap.Percentile(0.5), 10.0, 1.0);
  EXPECT_NEAR(snap.Percentile(0.99), 10.0, 1.0);
}

TEST(HistogramTest, ConcurrentRecordsAreLossless) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(rng.Uniform(0.1, 100.0));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total,
            static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_sum = 0;
  for (uint64_t c : snap.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, snap.total);
  EXPECT_GE(snap.min_ms, 0.1);
  EXPECT_LE(snap.max_ms, 100.0);
}

TEST(HistogramTest, ResetZeroesEverything) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(1.0 + i);
  h.Reset();
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.sum_ms, 0.0);
  h.Record(7.0);
  EXPECT_EQ(h.TakeSnapshot().total, 1u);
  EXPECT_DOUBLE_EQ(h.TakeSnapshot().min_ms, 7.0);
}

// ------------------------------------------------------------- registry

MatchStats SomeMatchStats(uint64_t scale) {
  MatchStats s;
  s.probe.index_accesses = 2 * scale;
  s.probe.rows_fetched = 10 * scale;
  s.candidate_positions = 5 * scale;
  s.distance_calls = 3 * scale;
  s.lb_pruned = scale;
  s.phase1_ms = 0.5 * static_cast<double>(scale);
  return s;
}

TEST(StatsRegistryTest, AggregatesPerSeriesAndGlobal) {
  StatsRegistry reg;
  reg.RecordQuery("a", 10.0, SomeMatchStats(1), /*ok=*/true);
  reg.RecordQuery("a", 20.0, SomeMatchStats(2), /*ok=*/false);
  reg.RecordQuery("b", 30.0, SomeMatchStats(3), /*ok=*/true);

  const ServiceStatsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.total_queries, 3u);
  EXPECT_EQ(snap.total_errors, 1u);
  ASSERT_EQ(snap.series.size(), 2u);
  EXPECT_EQ(snap.series[0].series, "a");
  EXPECT_EQ(snap.series[0].queries, 2u);
  EXPECT_EQ(snap.series[0].errors, 1u);
  EXPECT_EQ(snap.series[0].match.candidate_positions, 5u + 10u);
  EXPECT_NEAR(snap.series[0].match.phase1_ms, 1.5, 1e-5);
  EXPECT_EQ(snap.series[1].series, "b");
  EXPECT_EQ(snap.series[1].queries, 1u);
  EXPECT_EQ(snap.latency.count, 3u);
  EXPECT_DOUBLE_EQ(snap.latency.min_ms, 10.0);
  EXPECT_DOUBLE_EQ(snap.latency.max_ms, 30.0);
  EXPECT_EQ(snap.latency_hist.total, 3u);
}

TEST(StatsRegistryTest, RecordQueryIsThreadSafeAndLossless) {
  StatsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      const std::string series = "s" + std::to_string(t % 3);
      for (int i = 0; i < kPerThread; ++i) {
        reg.RecordQuery(series, 1.0 + i % 7, SomeMatchStats(1), true);
      }
    });
  }
  for (auto& th : threads) th.join();
  const ServiceStatsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.total_queries,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.latency_hist.total, snap.total_queries);
  uint64_t per_series = 0;
  for (const auto& s : snap.series) per_series += s.queries;
  EXPECT_EQ(per_series, snap.total_queries);
}

// The RecordIngest fix: points must be attributed to the series that
// ingested them, not just the global counter.
TEST(StatsRegistryTest, IngestPointsAreAttributedPerSeries) {
  StatsRegistry reg;
  reg.RecordIngest("alpha", 1000, 2);
  reg.RecordIngest("beta", 500, 1);
  reg.RecordIngest("alpha", 250, 1);

  const ServiceStatsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.points_appended, 1750u);
  EXPECT_EQ(snap.ingest_batches, 4u);
  ASSERT_EQ(snap.series_ingest_points.size(), 2u);
  EXPECT_EQ(snap.series_ingest_points[0].first, "alpha");
  EXPECT_EQ(snap.series_ingest_points[0].second, 1250u);
  EXPECT_EQ(snap.series_ingest_points[1].first, "beta");
  EXPECT_EQ(snap.series_ingest_points[1].second, 500u);

  const std::string text = StatsToText(snap);
  EXPECT_NE(text.find(
                "kvmatch_series_ingest_points_total{series=\"alpha\"} 1250"),
            std::string::npos);
  EXPECT_NE(text.find(
                "kvmatch_series_ingest_points_total{series=\"beta\"} 500"),
            std::string::npos);
}

TEST(StatsRegistryTest, CommitStagesCoverInstallAndRetire) {
  StatsRegistry reg;
  CommitRecord rec;
  rec.kind = "append";
  rec.journal_ms = 0.25;
  rec.data_ms = 0.5;
  rec.index_ms = 2.0;
  rec.header_ms = 0.125;
  rec.flip_ms = 1.0;
  rec.flush_ms = 0.75;
  rec.install_ms = 0.5;
  rec.retire_ms = 0.25;
  rec.total_ms = 4.625;  // every stage but the flush, which is in the flip
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) reg.RecordCommit(rec);
    });
  }
  for (auto& t : threads) t.join();

  const ServiceStatsSnapshot snap = reg.Snapshot();
  constexpr double kCommits = kThreads * kPerThread;
  EXPECT_EQ(snap.commits_append, static_cast<uint64_t>(kCommits));
  EXPECT_DOUBLE_EQ(snap.commit_install_ms, 0.5 * kCommits);
  EXPECT_DOUBLE_EQ(snap.commit_retire_ms, 0.25 * kCommits);
  const double stages = snap.commit_journal_ms + snap.commit_data_ms +
                        snap.commit_index_ms + snap.commit_header_ms +
                        snap.commit_flip_ms + snap.commit_install_ms +
                        snap.commit_retire_ms;
  EXPECT_NEAR(stages, snap.commit_latency_hist.sum_ms, 1e-6);

  const std::string text = StatsToText(snap);
  EXPECT_NE(text.find("kvmatch_commit_stage_ms_total{stage=\"install\"} 500"),
            std::string::npos);
  EXPECT_NE(text.find("kvmatch_commit_stage_ms_total{stage=\"retire\"} 250"),
            std::string::npos);

  reg.Reset();
  EXPECT_EQ(reg.Snapshot().commit_install_ms, 0.0);
  EXPECT_EQ(reg.Snapshot().commit_retire_ms, 0.0);
}

TEST(StatsRegistryTest, ResetClearsCountersButKeepsLiveGauges) {
  StatsRegistry reg;
  reg.RecordQuery("a", 5.0, SomeMatchStats(1), true);
  reg.RecordIngest("a", 100, 1);
  reg.RecordQueryStarted();
  reg.RecordConnectionOpened();
  reg.RecordEpochInstalled("a", 3);
  reg.Reset();

  const ServiceStatsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.total_queries, 0u);
  EXPECT_EQ(snap.points_appended, 0u);
  EXPECT_TRUE(snap.series_ingest_points.empty());
  EXPECT_EQ(snap.latency_hist.total, 0u);
  // Live gauges survive a rebase — they describe current state.
  EXPECT_EQ(snap.in_flight, 1u);
  EXPECT_EQ(snap.connections_open, 1u);
  ASSERT_EQ(snap.series_epochs.size(), 1u);
  EXPECT_EQ(snap.series_epochs[0].second, 3u);
  // Gauge decrements racing a Reset must not wrap.
  reg.RecordQueryFinished();
  reg.RecordQueryFinished();  // extra decrement: floor at 0, no wrap
  EXPECT_EQ(reg.Snapshot().in_flight, 0u);
}

// ------------------------------------------------------- text exposition

// Every exposition line must look like `name{labels} value` — one metric
// name, optional well-formed label set, one numeric value. A scraper
// should never have to special-case a line.
TEST(StatsToTextTest, EveryLineParsesAsPrometheusSample) {
  StatsRegistry reg;
  reg.RecordQuery("s0", 1.5, SomeMatchStats(1), true);
  reg.RecordQuery("s1", 250.0, SomeMatchStats(2), false);
  reg.RecordIngest("s0", 4096, 4);
  reg.RecordEpochInstalled("s0", 1);
  reg.RecordRejected();
  reg.RecordProtocolError();

  ServiceStatsSnapshot snap = reg.Snapshot();
  snap.queue_depth = 2;
  snap.workers_busy = 3;
  snap.workers_total = 4;
  const std::string text = StatsToText(snap);

  const std::regex line_re(
      R"re(^[a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*,?\})? -?[0-9].*$)re");
  std::istringstream in(text);
  std::string line;
  size_t lines = 0;
  std::map<std::string, double> metrics;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_TRUE(std::regex_match(line, line_re)) << "bad line: " << line;
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos);
    metrics[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    ++lines;
  }
  EXPECT_GT(lines, 30u);

  // The counters the scrape dashboard keys on must all be present.
  EXPECT_EQ(metrics.at("kvmatch_queries_total"), 2.0);
  EXPECT_EQ(metrics.at("kvmatch_query_errors_total"), 1.0);
  EXPECT_EQ(metrics.at("kvmatch_rejected_total"), 1.0);
  EXPECT_EQ(metrics.at("kvmatch_protocol_errors_total"), 1.0);
  EXPECT_EQ(metrics.at("kvmatch_queue_depth"), 2.0);
  EXPECT_EQ(metrics.at("kvmatch_workers_busy"), 3.0);
  EXPECT_EQ(metrics.at("kvmatch_workers_total"), 4.0);
  EXPECT_EQ(metrics.at("kvmatch_ingest_points_total"), 4096.0);
  EXPECT_EQ(
      metrics.at("kvmatch_series_ingest_points_total{series=\"s0\"}"),
      4096.0);
  EXPECT_EQ(metrics.at("kvmatch_series_queries_total{series=\"s1\"}"), 1.0);
  EXPECT_TRUE(metrics.count("kvmatch_latency_ms{stat=\"p50\"}"));
  EXPECT_TRUE(metrics.count("kvmatch_latency_ms{stat=\"p95\"}"));
  EXPECT_TRUE(metrics.count(
      "kvmatch_series_latency_ms{series=\"s0\",stat=\"p99\"}"));
}

// The histogram exposition: cumulative, monotone, +Inf-terminated, and
// `_count` == the +Inf bucket == total observations.
TEST(StatsToTextTest, HistogramExpositionIsWellFormed) {
  StatsRegistry reg;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    reg.RecordQuery("s", rng.Uniform(0.5, 400.0), MatchStats{}, true);
  }
  const std::string text = reg.ToText();

  const std::regex bucket_re(
      R"re(kvmatch_query_latency_ms_bucket\{le="([^"]+)"\} ([0-9]+))re");
  std::istringstream in(text);
  std::string line;
  uint64_t prev_cum = 0;
  double prev_le = 0.0;
  size_t buckets = 0;
  bool saw_inf = false;
  uint64_t inf_count = 0;
  while (std::getline(in, line)) {
    std::smatch m;
    if (!std::regex_match(line, m, bucket_re)) continue;
    ++buckets;
    const uint64_t cum = std::stoull(m[2]);
    EXPECT_GE(cum, prev_cum) << "non-monotone at " << line;
    prev_cum = cum;
    if (m[1] == "+Inf") {
      saw_inf = true;
      inf_count = cum;
    } else {
      EXPECT_FALSE(saw_inf) << "+Inf bucket must be last";
      const double le = std::stod(m[1]);
      EXPECT_GT(le, prev_le);
      prev_le = le;
    }
  }
  EXPECT_GT(buckets, 10u);
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(inf_count, 500u);
  EXPECT_NE(text.find("kvmatch_query_latency_ms_sum "), std::string::npos);
  EXPECT_NE(text.find("kvmatch_query_latency_ms_count 500"),
            std::string::npos);
}

// An empty registry still emits a parseable dump with the mandatory
// +Inf terminator (Prometheus requires it even for empty histograms).
TEST(StatsToTextTest, EmptyRegistryStillExposesHistogramTerminator) {
  StatsRegistry reg;
  const std::string text = reg.ToText();
  EXPECT_NE(text.find("kvmatch_query_latency_ms_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("kvmatch_query_latency_ms_count 0"),
            std::string::npos);
}

}  // namespace
}  // namespace kvmatch
