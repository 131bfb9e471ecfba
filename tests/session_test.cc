// Tests for the Session facade: in-memory, ingest, reopen, query types,
// top-k, the exploratory re-tuning loop, and in-place epoch extension over
// a shared series buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "baseline/brute_force.h"
#include "common/rng.h"
#include "matchdp/session.h"
#include "storage/mem_kvstore.h"
#include "storage/minikv.h"
#include "ts/generator.h"

namespace kvmatch {
namespace {

namespace fs = std::filesystem;

Session::Options SmallOptions() {
  Session::Options options;
  options.wu = 25;
  options.levels = 3;
  return options;
}

TEST(SessionTest, FromSeriesAnswersAllQueryTypes) {
  Rng rng(501);
  TimeSeries x = GenerateSynthetic(6000, &rng);
  const TimeSeries reference = x;  // session takes ownership
  auto session = Session::FromSeries(std::move(x), SmallOptions());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->num_indexes(), 3u);
  EXPECT_GT((*session)->IndexBytes(), 0u);

  const auto q = ExtractQuery(reference, 2000, 150, 0.2, &rng);
  for (QueryType type : {QueryType::kRsmEd, QueryType::kRsmDtw,
                         QueryType::kCnsmEd, QueryType::kCnsmDtw}) {
    QueryParams params{type, 3.5, 1.5, 3.0, 5};
    const auto expected = BruteForceMatch(reference, q, params);
    MatchStats stats;
    auto got = (*session)->Query(q, params, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), expected.size())
        << "type=" << static_cast<int>(type);
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].offset, expected[i].offset);
    }
  }
}

TEST(SessionTest, SeriesTooShortRejected) {
  TimeSeries tiny(std::vector<double>(10, 1.0));
  auto session = Session::FromSeries(std::move(tiny), SmallOptions());
  EXPECT_FALSE(session.ok());
}

TEST(SessionTest, IngestThenOpenRoundTrip) {
  Rng rng(502);
  TimeSeries x = GenerateUcrLike(8000, &rng);
  const TimeSeries reference = x;
  MemKvStore store;
  {
    auto ingested = Session::Ingest(&store, std::move(x), SmallOptions());
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  }
  auto session = Session::Open(&store, SmallOptions());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE(std::ranges::equal((*session)->series().values(),
                                 reference.values()));

  const auto q = ExtractQuery(reference, 3000, 200, 0.1, &rng);
  QueryParams params{QueryType::kCnsmEd, 3.0, 1.5, 2.0, 0};
  const auto expected = BruteForceMatch(reference, q, params);
  MatchStats stats;
  auto got = (*session)->Query(q, params, &stats);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), expected.size());
  // Store-backed probes actually read from the store.
  EXPECT_GT(stats.probe.bytes_fetched + stats.probe.cache_hits, 0u);
}

TEST(SessionTest, OpenOverMiniKvSurvivesCompaction) {
  Rng rng(503);
  TimeSeries x = GenerateSynthetic(6000, &rng);
  const TimeSeries reference = x;
  const std::string dir =
      (fs::temp_directory_path() / "kvm_session_minikv").string();
  fs::remove_all(dir);
  auto kv = MiniKv::Open(dir);
  ASSERT_TRUE(kv.ok());
  {
    auto ingested = Session::Ingest(kv->get(), std::move(x), SmallOptions());
    ASSERT_TRUE(ingested.ok());
  }
  ASSERT_TRUE((*kv)->Compact().ok());
  auto session = Session::Open(kv->get(), SmallOptions());
  ASSERT_TRUE(session.ok());
  const auto q = ExtractQuery(reference, 1000, 100, 0.2, &rng);
  QueryParams params{QueryType::kRsmEd, 4.0, 1.0, 0.0, 0};
  const auto expected = BruteForceMatch(reference, q, params);
  auto got = (*session)->Query(q, params);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), expected.size());
  fs::remove_all(dir);
}

TEST(SessionTest, OpenWithoutIngestFails) {
  MemKvStore empty;
  auto session = Session::Open(&empty, SmallOptions());
  EXPECT_FALSE(session.ok());
}

TEST(SessionTest, TopKMatchesThresholdSemantics) {
  Rng rng(504);
  TimeSeries x = GenerateSynthetic(6000, &rng);
  const TimeSeries reference = x;
  auto session = Session::FromSeries(std::move(x), SmallOptions());
  ASSERT_TRUE(session.ok());
  const auto q = ExtractQuery(reference, 2500, 150, 0.3, &rng);
  QueryParams params{QueryType::kRsmEd, 0.0, 1.0, 0.0, 0};
  auto top = (*session)->QueryTopK(q, params, 8);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 8u);
  // Distances are sorted and each result is a genuine ε-match at its own
  // distance.
  for (size_t i = 1; i < top->size(); ++i) {
    EXPECT_GE((*top)[i].distance, (*top)[i - 1].distance);
  }
  params.epsilon = (*top)[7].distance + 1e-9;
  const auto all = BruteForceMatch(reference, q, params);
  EXPECT_GE(all.size(), 8u);
}

TEST(SessionTest, ExploratoryRetuningLoop) {
  // The paper's pitch: one index, interactive knob turning. Tighten β
  // progressively and observe a monotone shrinking result set.
  Rng rng(505);
  TimeSeries x = GenerateSynthetic(8000, &rng);
  const TimeSeries reference = x;
  auto session = Session::FromSeries(std::move(x), SmallOptions());
  ASSERT_TRUE(session.ok());
  const auto q = ExtractQuery(reference, 4000, 200, 0.3, &rng);
  size_t prev = SIZE_MAX;
  for (double beta : {10.0, 5.0, 2.0, 0.5}) {
    QueryParams params{QueryType::kCnsmEd, 4.0, 1.5, beta, 0};
    auto got = (*session)->Query(q, params);
    ASSERT_TRUE(got.ok());
    EXPECT_LE(got->size(), prev) << "beta=" << beta;
    prev = got->size();
  }
}


// ---- Extend: the next epoch shares (and grows) the series buffer ----

/// The series values of x[0, n) as their own TimeSeries.
TimeSeries Prefix(const TimeSeries& x, size_t n) {
  return TimeSeries(std::vector<double>(x.values().begin(),
                                        x.values().begin() + n));
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Values and both prefix arrays, bit for bit.
bool SameSeriesBits(const SeriesView& a, const SeriesView& b) {
  return SameBits(a.values(), b.values()) &&
         SameBits(a.prefix_sums(), b.prefix_sums()) &&
         SameBits(a.prefix_squares(), b.prefix_squares());
}

/// One query per type, all drawn from x's first points.
std::vector<std::pair<std::vector<double>, QueryParams>> MixedQueries(
    const TimeSeries& x, Rng* rng) {
  std::vector<std::pair<std::vector<double>, QueryParams>> out;
  for (QueryType type : {QueryType::kRsmEd, QueryType::kRsmDtw,
                         QueryType::kCnsmEd, QueryType::kCnsmDtw}) {
    out.emplace_back(ExtractQuery(x, 700 + 300 * out.size(), 120, 0.2, rng),
                     QueryParams{type, 3.5, 1.5, 3.0, 5});
  }
  return out;
}

/// Answers with offsets and distances compared exactly.
bool SameAnswers(const std::vector<MatchResult>& a,
                 const std::vector<MatchResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].offset != b[i].offset || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

std::string EpochNs(int epoch) { return "e" + std::to_string(epoch) + "/"; }

TEST(SessionTest, ExtendEqualsReopenBitForBitAcross300Appends) {
  Rng rng(511);
  const TimeSeries full = GenerateSynthetic(3000 + 300 * 24, &rng);
  const auto queries = MixedQueries(full, &rng);
  MemKvStore store;
  const Session::Options opts = SmallOptions();
  size_t n = 3000;
  auto first = Session::Ingest(&store, EpochNs(0), Prefix(full, n), opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::unique_ptr<Session> cur = std::move(first).value();
  for (int epoch = 1; epoch <= 300; ++epoch) {
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 24));
    const std::string ns = EpochNs(epoch);
    ASSERT_TRUE(Session::Ingest(&store, ns, Prefix(full, n + k), opts).ok());
    auto next = cur->Extend(&store, ns, opts, full.Subsequence(n, k));
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    n += k;
    auto reopened = Session::Open(&store, ns, opts);
    ASSERT_TRUE(reopened.ok());
    ASSERT_TRUE(SameSeriesBits((*next)->series(), (*reopened)->series()))
        << "after append " << epoch;
    if (epoch == 1 || epoch == 17 || epoch == 300) {
      for (const auto& [q, params] : queries) {
        auto got = (*next)->Query(q, params);
        auto want = (*reopened)->Query(q, params);
        ASSERT_TRUE(got.ok() && want.ok());
        EXPECT_TRUE(SameAnswers(*got, *want))
            << "append " << epoch << " type "
            << static_cast<int>(params.type);
      }
    }
    // The previous epoch's keys are no longer needed.
    const std::string prev = EpochNs(epoch - 1);
    ASSERT_TRUE(store.DeleteRange(prev, PrefixUpperBound(prev)).ok());
    cur = std::move(next).value();
  }
  // A create reads through a buffer of exact size, so the first append
  // had to grow it; the later ones mostly extended in place.
  EXPECT_GT(cur->buffer()->capacity(), n);
}

/// Ingests x[0, lengths[i]) under EpochNs(i + 1) for every i.
void IngestEpochs(KvStore* store, const TimeSeries& x,
                  const std::vector<size_t>& lengths) {
  for (size_t i = 0; i < lengths.size(); ++i) {
    ASSERT_TRUE(Session::Ingest(store, EpochNs(static_cast<int>(i) + 1),
                                Prefix(x, lengths[i]), SmallOptions())
                    .ok());
  }
}

TEST(SessionTest, PinnedEpochUnchangedWhileItsBufferGrowsAndReallocates) {
  Rng rng(512);
  const TimeSeries full = GenerateSynthetic(12000, &rng);
  const auto queries = MixedQueries(full, &rng);
  MemKvStore store;
  const Session::Options opts = SmallOptions();
  std::vector<size_t> lengths;
  for (size_t n = 3500; n <= 12000; n += 500) lengths.push_back(n);
  IngestEpochs(&store, full, lengths);

  // Epoch 1 reads a grown buffer with spare capacity: pin it.
  auto created = Session::Ingest(&store, EpochNs(0), Prefix(full, 3000), opts);
  ASSERT_TRUE(created.ok());
  auto pinned_or = (*created)->Extend(&store, EpochNs(1), opts,
                                      full.Subsequence(3000, 500));
  ASSERT_TRUE(pinned_or.ok());
  const std::unique_ptr<Session> pinned = std::move(pinned_or).value();
  const std::vector<double> values(pinned->series().values().begin(),
                                   pinned->series().values().end());
  const std::vector<double> sums(pinned->series().prefix_sums().begin(),
                                 pinned->series().prefix_sums().end());
  std::vector<std::vector<MatchResult>> answers;
  for (const auto& [q, params] : queries) {
    auto got = pinned->Query(q, params);
    ASSERT_TRUE(got.ok());
    answers.push_back(*got);
  }

  bool grew_in_place = false;
  bool reallocated = false;
  const Session* cur = pinned.get();
  std::unique_ptr<Session> newest;
  for (size_t i = 1; i < lengths.size(); ++i) {
    auto next = cur->Extend(&store, EpochNs(static_cast<int>(i) + 1), opts,
                            full.Subsequence(lengths[i - 1], 500));
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if ((*next)->buffer() == pinned->buffer()) grew_in_place = true;
    if ((*next)->buffer() != cur->buffer()) reallocated = true;
    newest = std::move(next).value();
    cur = newest.get();

    ASSERT_TRUE(SameBits(pinned->series().values(), values));
    ASSERT_TRUE(SameBits(pinned->series().prefix_sums(), sums));
    for (size_t j = 0; j < queries.size(); ++j) {
      auto got = pinned->Query(queries[j].first, queries[j].second);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameAnswers(*got, answers[j])) << "extend " << i;
    }
  }
  EXPECT_TRUE(grew_in_place);
  EXPECT_TRUE(reallocated);
  EXPECT_EQ(cur->series().size(), full.size());
}

TEST(SessionTest, ExtendingAnOlderEpochCopiesInsteadOfOverwriting) {
  Rng rng(513);
  const TimeSeries full = GenerateSynthetic(6000, &rng);
  const TimeSeries other = GenerateSynthetic(1000, &rng);
  MemKvStore store;
  const Session::Options opts = SmallOptions();
  IngestEpochs(&store, full, {4000, 5000});
  auto base = Session::Ingest(&store, EpochNs(0), Prefix(full, 3000), opts);
  ASSERT_TRUE(base.ok());
  auto a = (*base)->Extend(&store, EpochNs(1), opts,
                           full.Subsequence(3000, 1000));
  ASSERT_TRUE(a.ok());
  auto b = (*a)->Extend(&store, EpochNs(2), opts,
                        full.Subsequence(4000, 1000));
  ASSERT_TRUE(b.ok());
  ASSERT_EQ((*a)->buffer(), (*b)->buffer());  // grew in place

  // A second successor of epoch 1 with different values: the slots past
  // epoch 1 belong to epoch 2, so this must land in a copy.
  std::vector<double> fork(full.values().begin(), full.values().begin() + 4000);
  fork.insert(fork.end(), other.values().begin(), other.values().end());
  ASSERT_TRUE(Session::Ingest(&store, "fork/", TimeSeries(fork), opts).ok());
  auto c = (*a)->Extend(&store, "fork/", opts, other.values());
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_NE((*c)->buffer(), (*b)->buffer());
  EXPECT_TRUE(SameBits((*c)->series().values(), fork));
  EXPECT_TRUE(SameBits((*b)->series().values(),
                       full.Subsequence(0, 5000)));

  // A tail that does not match the header's length is refused.
  EXPECT_FALSE((*a)->Extend(&store, EpochNs(2), opts,
                            full.Subsequence(4000, 999))
                   .ok());
}

TEST(SessionTest, ConcurrentQueriesOnPinnedEpochWhileItIsExtended) {
  Rng rng(514);
  const TimeSeries full = GenerateSynthetic(9000, &rng);
  const auto queries = MixedQueries(full, &rng);
  MemKvStore store;
  const Session::Options opts = SmallOptions();
  std::vector<size_t> lengths;
  for (size_t n = 3200; n <= 9000; n += 200) lengths.push_back(n);
  IngestEpochs(&store, full, lengths);
  auto created = Session::Ingest(&store, EpochNs(0), Prefix(full, 3000), opts);
  ASSERT_TRUE(created.ok());
  auto pinned_or = (*created)->Extend(&store, EpochNs(1), opts,
                                      full.Subsequence(3000, 200));
  ASSERT_TRUE(pinned_or.ok());
  const std::shared_ptr<const Session> pinned = std::move(pinned_or).value();
  std::vector<std::vector<MatchResult>> answers;
  for (const auto& [q, params] : queries) {
    auto got = pinned->Query(q, params);
    ASSERT_TRUE(got.ok());
    answers.push_back(*got);
  }

  // Readers query the pinned epoch while the writer extends its buffer in
  // place (and past its capacity): run under TSan.
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (size_t j = t; !stop.load(std::memory_order_relaxed);
           j = (j + 1) % queries.size()) {
        auto got = pinned->Query(queries[j].first, queries[j].second);
        if (!got.ok() || !SameAnswers(*got, answers[j])) wrong.fetch_add(1);
      }
    });
  }
  std::shared_ptr<const Session> cur = pinned;
  for (size_t i = 1; i < lengths.size(); ++i) {
    auto next = cur->Extend(&store, EpochNs(static_cast<int>(i) + 1), opts,
                            full.Subsequence(lengths[i - 1], 200));
    ASSERT_TRUE(next.ok());
    cur = std::move(next).value();
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_TRUE(SameBits(cur->series().values(), full.values()));
}

}  // namespace
}  // namespace kvmatch
