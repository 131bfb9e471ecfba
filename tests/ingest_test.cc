// Tests for the online-ingest write path: epoch-versioned catalog
// mutations (create/append/replace/drop) racing live queries.
//
// The load-bearing property: a query pins one epoch's snapshot at acquire
// time and its results are exactly brute force over that epoch's series —
// never a torn mix of generations — while appends, replaces and drops
// install new epochs underneath it. Run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baseline/brute_force.h"
#include "bench_util/process_io.h"
#include "common/rng.h"
#include "fault_kvstore.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "service/service_stats.h"
#include "storage/file_kvstore.h"
#include "storage/mem_kvstore.h"
#include "storage/minikv.h"
#include "ts/generator.h"
#include "ts/series_store.h"

namespace kvmatch {
namespace {

Session::Options SmallOptions() {
  Session::Options options;
  options.wu = 25;
  options.levels = 3;
  return options;
}

Catalog::Options SmallCatalogOptions() {
  Catalog::Options copts;
  copts.session = SmallOptions();
  return copts;
}

QueryParams EdParams(double epsilon) {
  QueryParams params;
  params.type = QueryType::kRsmEd;
  params.epsilon = epsilon;
  return params;
}

/// Do `got` and `expected` describe the same matches (exact offsets,
/// distances within float-summation tolerance)?
bool SameMatches(const std::vector<MatchResult>& got,
                 const std::vector<MatchResult>& expected) {
  if (got.size() != expected.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].offset != expected[i].offset) return false;
    if (std::abs(got[i].distance - expected[i].distance) > 1e-6) return false;
  }
  return true;
}

/// Number of live keys under `prefix`.
size_t CountKeys(KvStore* store, const std::string& prefix) {
  size_t n = 0;
  for (auto it = store->Scan(prefix, PrefixUpperBound(prefix)); it->Valid();
       it->Next()) {
    ++n;
  }
  return n;
}

TEST(IngestTest, AppendInstallsNewEpochAndMatchesBruteForce) {
  MemKvStore store;
  Catalog catalog(&store, SmallCatalogOptions());

  Rng rng(11);
  TimeSeries base = GenerateSynthetic(3000, &rng);
  TimeSeries full = base;
  ASSERT_TRUE(catalog.CreateSeries("s", base).ok());
  ASSERT_EQ(*catalog.SeriesEpoch("s"), 0u);

  const auto q = ExtractQuery(base, 137, 120, 0.1, &rng);
  const QueryParams params = EdParams(3.0);

  auto session0 = catalog.Acquire("s");
  ASSERT_TRUE(session0.ok());
  const auto expected0 = BruteForceMatch(base, q, params);
  auto got0 = (*session0)->Query(q, params);
  ASSERT_TRUE(got0.ok());
  EXPECT_TRUE(SameMatches(*got0, expected0));

  // Append: a new epoch appears; the query now also sees the extension.
  TimeSeries ext = GenerateSynthetic(1000, &rng);
  ASSERT_TRUE(catalog.AppendSeries("s", ext.values()).ok());
  ASSERT_EQ(*catalog.SeriesEpoch("s"), 1u);
  full.Extend(ext.values());

  auto session1 = catalog.Acquire("s");
  ASSERT_TRUE(session1.ok());
  EXPECT_EQ((*session1)->series().size(), full.size());
  const auto expected1 = BruteForceMatch(full, q, params);
  auto got1 = (*session1)->Query(q, params);
  ASSERT_TRUE(got1.ok());
  EXPECT_TRUE(SameMatches(*got1, expected1));
  // Append never loses matches: epoch 0's results are a prefix subset.
  EXPECT_GE(expected1.size(), expected0.size());

  // The pinned old-epoch session is untouched by the append.
  auto again0 = (*session0)->Query(q, params);
  ASSERT_TRUE(again0.ok());
  EXPECT_TRUE(SameMatches(*again0, expected0));

  // Releasing the last epoch-0 reader purges its keys; epoch 1 stays.
  EXPECT_GT(CountKeys(&store, "series/s/e0/"), 0u);
  session0 = Status::NotFound("released");  // drop our pin
  EXPECT_EQ(CountKeys(&store, "series/s/e0/"), 0u);
  EXPECT_GT(CountKeys(&store, "series/s/e1/"), 0u);
}

TEST(IngestTest, ReplaceSwapsContentWholesale) {
  MemKvStore store;
  Catalog catalog(&store, SmallCatalogOptions());
  Rng rng(12);
  TimeSeries a = GenerateSynthetic(2000, &rng);
  TimeSeries b = GenerateUcrLike(2500, &rng);
  ASSERT_TRUE(catalog.CreateSeries("s", a).ok());
  ASSERT_TRUE(catalog.ReplaceSeries("s", b).ok());
  ASSERT_EQ(*catalog.SeriesEpoch("s"), 1u);

  const auto q = ExtractQuery(b, 400, 100, 0.05, &rng);
  const QueryParams params = EdParams(2.5);
  auto session = catalog.Acquire("s");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->series().size(), b.size());
  auto got = (*session)->Query(q, params);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(SameMatches(*got, BruteForceMatch(b, q, params)));

  EXPECT_TRUE(catalog.ReplaceSeries("nope", std::move(b)).IsNotFound());
}

TEST(IngestTest, DropReturnsNotFoundWhileInFlightReadersComplete) {
  MemKvStore store;
  Catalog catalog(&store, SmallCatalogOptions());
  QueryService service(&catalog, {.num_threads = 2});

  Rng rng(13);
  TimeSeries base = GenerateSynthetic(2000, &rng);
  ASSERT_TRUE(catalog.CreateSeries("s", base).ok());
  const auto q = ExtractQuery(base, 50, 100, 0.1, &rng);
  const QueryParams params = EdParams(3.0);
  const auto expected = BruteForceMatch(base, q, params);

  // Pin a snapshot, then drop the series.
  auto pinned = catalog.Acquire("s");
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(catalog.DropSeries("s").ok());
  EXPECT_TRUE(catalog.DropSeries("s").IsNotFound());  // idempotent check

  // New queries: NotFound, immediately.
  QueryRequest req;
  req.series = "s";
  req.query.assign(q.begin(), q.end());
  req.params = params;
  EXPECT_TRUE(service.Submit(req).get().status.IsNotFound());
  EXPECT_FALSE(catalog.Contains("s"));
  EXPECT_TRUE(catalog.Acquire("s").status().IsNotFound());

  // The pinned reader is unaffected — and its keys survive it.
  EXPECT_GT(CountKeys(&store, "series/s/"), 0u);
  auto got = (*pinned)->Query(q, params);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(SameMatches(*got, expected));

  // Last reader out turns off the lights.
  pinned = Status::NotFound("released");
  EXPECT_EQ(CountKeys(&store, "series/s/"), 0u);
  EXPECT_EQ(CountKeys(&store, "catalog/"), 0u);

  // The name is immediately reusable, at a fresh epoch: the recreated
  // series must never collide with the dropped generation's keys.
  ASSERT_TRUE(catalog.CreateSeries("s", std::move(base)).ok());
  EXPECT_GE(*catalog.SeriesEpoch("s"), 1u);  // epoch 0 is never reused
}

TEST(IngestTest, CatalogReopensMutatedSeriesFromStore) {
  // Epoch state round-trips through the directory rows: a fresh catalog
  // over the same store serves the latest generation.
  MemKvStore store;
  Rng rng(14);
  TimeSeries base = GenerateSynthetic(1500, &rng);
  TimeSeries full = base;
  TimeSeries ext = GenerateSynthetic(700, &rng);
  full.Extend(ext.values());
  {
    Catalog catalog(&store, SmallCatalogOptions());
    ASSERT_TRUE(catalog.CreateSeries("s", std::move(base)).ok());
    ASSERT_TRUE(catalog.AppendSeries("s", ext.values()).ok());
  }
  Catalog reopened(&store, SmallCatalogOptions());
  ASSERT_EQ(*reopened.SeriesEpoch("s"), 1u);
  auto session = reopened.Acquire("s");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->series().size(), full.size());

  // ...and appends continue where the old process left off (the ingest
  // state reseeds from the reopened session).
  TimeSeries more = GenerateSynthetic(500, &rng);
  ASSERT_TRUE(reopened.AppendSeries("s", more.values()).ok());
  full.Extend(more.values());
  auto session2 = reopened.Acquire("s");
  ASSERT_TRUE(session2.ok());
  EXPECT_EQ((*session2)->series().size(), full.size());
}

TEST(IngestTest, IngestWorksOverMiniKvBackend) {
  // The LSM backend exercises tombstones + table turnover on the same
  // epoch lifecycle (tiny memtable so every commit spills tables).
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kvm_ingest_minikv")
          .string();
  std::filesystem::remove_all(dir);
  MiniKv::Options mopts;
  mopts.memtable_limit_bytes = 16 * 1024;
  auto kv = MiniKv::Open(dir, mopts);
  ASSERT_TRUE(kv.ok());

  Catalog catalog(kv->get(), SmallCatalogOptions());
  Rng rng(15);
  TimeSeries base = GenerateSynthetic(2000, &rng);
  TimeSeries full = base;
  ASSERT_TRUE(catalog.CreateSeries("s", base).ok());
  TimeSeries ext = GenerateSynthetic(800, &rng);
  ASSERT_TRUE(catalog.AppendSeries("s", ext.values()).ok());
  full.Extend(ext.values());

  const auto q = ExtractQuery(full, 2100, 100, 0.05, &rng);
  const QueryParams params = EdParams(3.0);
  auto session = catalog.Acquire("s");
  ASSERT_TRUE(session.ok());
  auto got = (*session)->Query(q, params);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(SameMatches(*got, BruteForceMatch(full, q, params)));

  // Old-epoch keys are tombstoned out of scans once the reader count
  // drops (CreateSeries cached the epoch-0 session; replace our pin).
  session = Status::NotFound("released");
  ASSERT_TRUE(catalog.DropSeries("s").ok());
  EXPECT_EQ(CountKeys(kv->get(), "series/s/"), 0u);
  std::filesystem::remove_all(dir);
}

// ---- Delta-commit write amplification: appends are O(appended) ----

TEST(IngestTest, AppendWritesOnlyTheGrownTailChunks) {
  // Counts the actual KvStore chunk-row writes through the fault wrapper:
  // appending k points to a long series must write ~k/chunk rows into the
  // shared data namespace and must never rewrite a chunk row a previous
  // commit already wrote.
  MemKvStore base;
  FaultInjectingKvStore store(&base);
  Catalog::Options copts = SmallCatalogOptions();
  copts.session.series_chunk = 128;
  Catalog catalog(&store, copts);

  constexpr size_t kBase = 20000;
  constexpr size_t kAppend = 200;
  constexpr size_t kChunk = 128;
  Rng rng(31);
  TimeSeries big = GenerateSynthetic(kBase, &rng);
  ASSERT_TRUE(catalog.CreateSeries("s", big).ok());
  // The first epoch of a fresh catalog is 0, so its data generation is
  // "d0" — and appends keep extending it.
  const std::string data_ns = "series/s/d0/";
  EXPECT_EQ(store.puts_with_prefix(data_ns),
            (kBase + kChunk - 1) / kChunk);

  store.ResetLog();
  TimeSeries ext = GenerateSynthetic(kAppend, &rng);
  ASSERT_TRUE(catalog.AppendSeries("s", ext.values()).ok());

  // O(appended): the grown partial chunk plus the new tail chunks — not
  // the ~156 rows the series already has.
  const uint64_t append_chunk_puts = store.puts_with_prefix(data_ns);
  EXPECT_GT(append_chunk_puts, 0u);
  EXPECT_LE(append_chunk_puts, kAppend / kChunk + 2);

  // No write touched a chunk row before the grown tail, and the new
  // epoch's namespace holds no chunk rows at all (header + index only).
  const uint64_t tail_floor = (kBase / kChunk) * kChunk;
  const std::string tail_key = SeriesStore::ChunkKey(data_ns, tail_floor);
  for (const auto& key : store.put_log()) {
    if (key.size() >= data_ns.size() &&
        key.compare(0, data_ns.size(), data_ns) == 0) {
      EXPECT_GE(key, tail_key) << "append rewrote an old chunk row";
    }
  }
  EXPECT_EQ(store.puts_with_prefix("series/s/e1/data/c"), 0u);

  // The appended series still reads back exactly (delta commits must not
  // trade correctness for write savings).
  TimeSeries full = big;
  full.Extend(ext.values());
  auto session = catalog.Acquire("s");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->series().values(), full.values());

  // A replace starts a fresh data generation and leaves nothing shared.
  store.ResetLog();
  ASSERT_TRUE(
      catalog.ReplaceSeries("s", GenerateSynthetic(1000, &rng)).ok());
  EXPECT_EQ(store.puts_with_prefix(data_ns), 0u);
  EXPECT_EQ(store.puts_with_prefix("series/s/d2/"), (1000 + 127) / 128);
}

/// One 1000-point append to a 2000-point series in a FileKvStore-backed
/// catalog that also holds `bystander_points` points of other series.
struct AppendBytes {
  uint64_t written = 0;        // bytes the append wrote (to any file)
  uint64_t file_growth = 0;    // bytes the append added to the store file
  uint64_t commit_bytes = 0;   // CommitBreakdown::bytes_written
  uint64_t compactions = 0;    // compactions the append triggered
  double flip_ms = 0.0;
  double flush_ms = 0.0;
};

AppendBytes MeasureAppend(size_t bystander_points, const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("kvm_wamp_" + tag))
          .string();
  std::filesystem::remove(path);
  AppendBytes out;
  {
    auto opened = FileKvStore::Open(path);
    EXPECT_TRUE(opened.ok());
    FileKvStore& file = **opened;
    Catalog catalog(&file);
    StatsRegistry stats;
    catalog.SetStatsRegistry(&stats);
    Rng rng(77);
    // Bystanders in 1M-point series, so both sizes share their shape.
    for (size_t done = 0, i = 0; done < bystander_points; ++i) {
      const size_t n = std::min<size_t>(bystander_points - done, 1'000'000);
      EXPECT_TRUE(catalog
                      .CreateSeries("by" + std::to_string(i),
                                    GenerateSynthetic(n, &rng))
                      .ok());
      done += n;
    }
    // The appended-to series draws from its own generator: the same values
    // (and so the same index rows) at both sizes.
    rng = Rng(78);
    EXPECT_TRUE(
        catalog.CreateSeries("hot", GenerateSynthetic(2000, &rng)).ok());
    // Start from a dead-byte-free log so one append cannot reach the
    // compaction trigger.
    EXPECT_TRUE(file.Compact().ok());

    const TimeSeries tail = GenerateSynthetic(1000, &rng);
    const uint64_t before = file.FileBytes();
    const uint64_t compactions = file.Gauge("compactions_total").value_or(0);
    stats.Reset();
    const uint64_t written = ProcessBytesWritten();
    EXPECT_TRUE(catalog.AppendSeries("hot", tail.values()).ok());
    out.written = ProcessBytesWritten() - written;
    const ServiceStatsSnapshot snap = stats.Snapshot();
    out.file_growth = file.FileBytes() - before;
    out.commit_bytes = snap.commit_bytes;
    out.compactions = file.Gauge("compactions_total").value_or(0) - compactions;
    out.flip_ms = snap.commit_flip_ms;
    out.flush_ms = snap.commit_flush_ms;
    EXPECT_NE(stats.ToText().find("kvmatch_commit_flush_ms_total"),
              std::string::npos);
  }
  std::filesystem::remove(path);
  return out;
}

TEST(IngestTest, AppendBytesWrittenDoNotGrowWithTheStore) {
  // Byte-level O(appended): between compactions a FileKvStore commit
  // appends only its staged rows, so what one append writes is the same
  // whether the rest of the catalog holds 1 MB or 32 MB. Counted as bytes
  // written, not file growth: a store that rewrote itself would grow the
  // file by as little.
  const AppendBytes small = MeasureAppend(1'000'000 / 8, "small");
  const AppendBytes large = MeasureAppend(32'000'000 / 8, "large");
  for (const AppendBytes* m : {&small, &large}) {
    EXPECT_EQ(m->compactions, 0u);
    EXPECT_GT(m->commit_bytes, 0u);
    EXPECT_GT(m->file_growth, 0u);
    // Appended, nothing rewritten (slack for writes a sanitizer runtime
    // may make on its own).
    EXPECT_GE(m->written, m->file_growth);
    EXPECT_LT(m->written - m->file_growth, 4096u);
    EXPECT_LT(m->written, 4 * m->commit_bytes);
    EXPECT_GT(m->flush_ms, 0.0);
    EXPECT_LE(m->flush_ms, m->flip_ms);
  }
  const uint64_t diff = small.written > large.written
                            ? small.written - large.written
                            : large.written - small.written;
  EXPECT_LE(diff, 4096u) << small.written << " vs " << large.written;
}

// ---- The acceptance scenario: mutations racing an 8-thread query load ----

TEST(IngestTest, ConcurrentQueriesAlwaysMatchSomePinnedEpoch) {
  MemKvStore store;
  Catalog catalog(&store, SmallCatalogOptions());
  QueryService::Options sopts;
  sopts.num_threads = 8;
  QueryService service(&catalog, sopts);
  catalog.SetStatsRegistry(service.stats_registry());

  // Script the epoch history up front so every generation's brute-force
  // answer is known: e0 = base, e1..e3 appends, e4 replace, e5..e6 appends.
  Rng rng(77);
  std::vector<TimeSeries> epochs;
  epochs.push_back(GenerateSynthetic(3000, &rng));
  for (int i = 0; i < 3; ++i) {
    TimeSeries next = epochs.back();
    next.Extend(GenerateSynthetic(400, &rng).values());
    epochs.push_back(std::move(next));
  }
  epochs.push_back(GenerateSynthetic(3500, &rng));  // the replace
  for (int i = 0; i < 2; ++i) {
    TimeSeries next = epochs.back();
    next.Extend(GenerateSynthetic(400, &rng).values());
    epochs.push_back(std::move(next));
  }

  const auto q = ExtractQuery(epochs[0], 211, 100, 0.1, &rng);
  const QueryParams params = EdParams(3.5);
  std::vector<std::vector<MatchResult>> expected;
  expected.reserve(epochs.size());
  for (const auto& series : epochs) {
    expected.push_back(BruteForceMatch(series, q, params));
  }

  ASSERT_TRUE(catalog.CreateSeries("s", epochs[0]).ok());

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> completed{0};

  auto check_response = [&](const QueryResponse& response) {
    if (!response.status.ok()) {
      failures.fetch_add(1);
      return;
    }
    completed.fetch_add(1);
    for (const auto& exp : expected) {
      if (SameMatches(response.matches, exp)) return;
    }
    mismatches.fetch_add(1);
  };

  QueryRequest req;
  req.series = "s";
  req.query.assign(q.begin(), q.end());
  req.params = params;

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        check_response(service.Submit(req).get());
      }
    });
  }

  // The writer walks the scripted history while the readers hammer away.
  for (size_t e = 1; e < epochs.size(); ++e) {
    Status st;
    if (e == 4) {
      st = catalog.ReplaceSeries("s", epochs[e]);
    } else {
      const size_t old_len = epochs[e - 1].size();
      std::span<const double> tail(epochs[e].data() + old_len,
                                   epochs[e].size() - old_len);
      st = catalog.AppendSeries("s", tail);
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << mismatches.load() << " of " << completed.load()
      << " responses matched no epoch (torn read)";
  EXPECT_GT(completed.load(), 0u);

  // Settled state: exactly the final epoch, by brute force.
  auto session = catalog.Acquire("s");
  ASSERT_TRUE(session.ok());
  auto got = (*session)->Query(q, params);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(SameMatches(*got, expected.back()));
  EXPECT_EQ(*catalog.SeriesEpoch("s"), epochs.size() - 1);

  const ServiceStatsSnapshot snap = service.Stats();
  EXPECT_EQ(snap.epochs_retired, epochs.size() - 1);
  EXPECT_GT(snap.points_appended, 0u);
  EXPECT_GT(snap.ingest_batches, 0u);
  ASSERT_EQ(snap.series_epochs.size(), 1u);
  EXPECT_EQ(snap.series_epochs[0].second, epochs.size() - 1);
}

// ---- Satellite: LRU eviction racing concurrent queries ----

TEST(IngestTest, EvictionNeverDestroysPinnedSnapshots) {
  MemKvStore store;
  Catalog::Options copts = SmallCatalogOptions();
  // A budget far below one session: every acquire evicts everything but
  // the entry it protects, so sessions constantly fall out of the cache
  // while queries still hold them.
  copts.memory_budget_bytes = 1;
  Catalog catalog(&store, copts);

  constexpr size_t kNumSeries = 4;
  Rng rng(21);
  std::vector<TimeSeries> refs;
  for (size_t i = 0; i < kNumSeries; ++i) {
    refs.push_back(GenerateSynthetic(1500, &rng));
    ASSERT_TRUE(
        catalog.CreateSeries("s" + std::to_string(i), refs.back()).ok());
  }
  const QueryParams params = EdParams(3.0);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      Rng trng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t i = static_cast<size_t>(
            trng.UniformInt(0, kNumSeries - 1));
        auto session = catalog.Acquire("s" + std::to_string(i));
        if (!session.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // The pinned snapshot must stay fully usable however hard the
        // budget churns the cache underneath.
        const auto q = ExtractQuery(refs[i], 30, 80, 0.05, &trng);
        if (!(*session)->Query(q, params).ok()) failures.fetch_add(1);
      }
    });
  }
  // Writer thread: appends force retirement churn on top of eviction.
  std::thread writer([&] {
    Rng wrng(999);
    for (int round = 0; round < 10; ++round) {
      const std::string name =
          "s" + std::to_string(round % kNumSeries);
      const TimeSeries ext = GenerateSynthetic(200, &wrng);
      if (!catalog.AppendSeries(name, ext.values()).ok()) {
        failures.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  writer.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  // The budget was honored (modulo the always-kept MRU entry).
  EXPECT_LE(catalog.cached_sessions(), 1u);
}

}  // namespace
}  // namespace kvmatch
