// Tests for the online-ingest write path: epoch-versioned catalog
// mutations (create/append/replace/drop) racing live queries.
//
// The load-bearing property: a query pins one epoch's snapshot at acquire
// time and its results are exactly brute force over that epoch's series —
// never a torn mix of generations — while appends, replaces and drops
// install new epochs underneath it. Run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
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
  EXPECT_TRUE(
      std::ranges::equal((*session)->series().values(), full.values()));

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


// ---- The install step: appends extend the live session in place ----

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The catalog's session for `name` equals a cold Session::Open of the
/// same epoch bit for bit (values, prefix sums, prefix squares), and its
/// answers for every query type equal the reopened session's exactly.
void ExpectSameAsReopened(Catalog* catalog, KvStore* store,
                          const std::string& name,
                          const std::vector<double>& expected,
                          const std::vector<double>& q, bool answers) {
  auto live = catalog->Acquire(name);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  auto epoch = catalog->SeriesEpoch(name);
  ASSERT_TRUE(epoch.ok());
  auto reopened = Session::Open(
      store, "series/" + name + "/e" + std::to_string(*epoch) + "/",
      SmallOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const SeriesView a = (*live)->series();
  const SeriesView b = (*reopened)->series();
  ASSERT_TRUE(SameBits(a.values(), expected));
  ASSERT_TRUE(SameBits(a.values(), b.values()));
  ASSERT_TRUE(SameBits(a.prefix_sums(), b.prefix_sums()));
  ASSERT_TRUE(SameBits(a.prefix_squares(), b.prefix_squares()));
  if (!answers) return;
  for (QueryType type : {QueryType::kRsmEd, QueryType::kRsmDtw,
                         QueryType::kCnsmEd, QueryType::kCnsmDtw}) {
    const QueryParams params{type, 3.5, 1.5, 3.0, 5};
    auto got = (*live)->Query(q, params);
    auto want = (*reopened)->Query(q, params);
    ASSERT_TRUE(got.ok() && want.ok());
    ASSERT_EQ(got->size(), want->size()) << static_cast<int>(type);
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].offset, (*want)[i].offset);
      EXPECT_EQ((*got)[i].distance, (*want)[i].distance);
    }
  }
}

TEST(IngestTest, ExtendedSessionEqualsReopenedEpochAcross300Appends) {
  MemKvStore store;
  Catalog catalog(&store, SmallCatalogOptions());
  Rng rng(31);
  const TimeSeries full = GenerateSynthetic(2000 + 300 * 24, &rng);
  std::vector<double> expected(full.values().begin(),
                               full.values().begin() + 2000);
  ASSERT_TRUE(catalog.CreateSeries("s", TimeSeries(expected)).ok());
  const auto q = ExtractQuery(full, 500, 120, 0.2, &rng);
  ExpectSameAsReopened(&catalog, &store, "s", expected, q, true);
  for (int append = 1; append <= 300; ++append) {
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 24));
    const auto tail = full.Subsequence(expected.size(), k);
    ASSERT_TRUE(catalog.AppendSeries("s", tail).ok());
    expected.insert(expected.end(), tail.begin(), tail.end());
    const bool answers = append == 1 || append == 23 || append == 300;
    ExpectSameAsReopened(&catalog, &store, "s", expected, q, answers);
    if (HasFatalFailure()) FAIL() << "after append " << append;
  }
  // Every retired epoch was purged: only the live one is left.
  EXPECT_EQ(catalog.retired_sessions(), 0u);
}

TEST(IngestTest, FailedAppendThenRetryNeverExposesTheAbandonedTail) {
  MemKvStore base;
  FaultInjectingKvStore fault(&base);
  Catalog catalog(&fault, SmallCatalogOptions());
  Rng rng(32);
  std::vector<double> expected = GenerateSynthetic(2000, &rng).values();
  ASSERT_TRUE(catalog.CreateSeries("s", TimeSeries(expected)).ok());
  const auto q = ExtractQuery(TimeSeries(expected), 400, 100, 0.2, &rng);
  // One good append first, so the live session reads a buffer with spare
  // capacity that an abandoned tail could land in.
  const TimeSeries first = GenerateSynthetic(300, &rng);
  ASSERT_TRUE(catalog.AppendSeries("s", first.values()).ok());
  expected.insert(expected.end(), first.values().begin(),
                  first.values().end());

  // Fail the commit at every write op it issues, then retry with
  // different values; nothing of the abandoned tail may surface.
  for (uint64_t fail_after = 0; fail_after < 8; ++fail_after) {
    auto pinned = catalog.Acquire("s");
    ASSERT_TRUE(pinned.ok());
    const TimeSeries abandoned = GenerateSynthetic(150, &rng);
    fault.FailAfter(fail_after);
    EXPECT_FALSE(catalog.AppendSeries("s", abandoned.values()).ok())
        << "fail after " << fail_after;
    fault.Heal();
    EXPECT_TRUE(SameBits((*pinned)->series().values(), expected));

    const TimeSeries retry = GenerateSynthetic(
        static_cast<size_t>(rng.UniformInt(1, 200)), &rng);
    ASSERT_TRUE(catalog.AppendSeries("s", retry.values()).ok());
    expected.insert(expected.end(), retry.values().begin(),
                    retry.values().end());
    ExpectSameAsReopened(&catalog, &base, "s", expected, q,
                         fail_after % 3 == 0);
    EXPECT_TRUE(SameBits((*pinned)->series().values(),
                         std::span<const double>(expected).first(
                             (*pinned)->series().size())));
  }
}

TEST(IngestTest, AppendAfterEvictionReopensFromTheStore) {
  MemKvStore store;
  Catalog::Options copts = SmallCatalogOptions();
  copts.memory_budget_bytes = 1;  // only the most recent session stays
  Catalog catalog(&store, copts);
  Rng rng(33);
  std::vector<double> a = GenerateSynthetic(3000, &rng).values();
  const std::vector<double> b = GenerateSynthetic(3000, &rng).values();
  ASSERT_TRUE(catalog.CreateSeries("a", TimeSeries(a)).ok());
  ASSERT_TRUE(catalog.CreateSeries("b", TimeSeries(b)).ok());
  ASSERT_TRUE(catalog.Acquire("b").ok());  // evicts "a"
  ASSERT_EQ(catalog.cached_sessions(), 1u);

  const auto q = ExtractQuery(TimeSeries(a), 1000, 100, 0.2, &rng);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(catalog.Acquire("b").ok());  // "a" is cold again
    const TimeSeries tail = GenerateSynthetic(400, &rng);
    ASSERT_TRUE(catalog.AppendSeries("a", tail.values()).ok());
    a.insert(a.end(), tail.values().begin(), tail.values().end());
    ExpectSameAsReopened(&catalog, &store, "a", a, q, round == 2);
    auto session = catalog.Acquire("a");
    ASSERT_TRUE(session.ok());
    const QueryParams params = EdParams(3.0);
    auto got = (*session)->Query(q, params);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameMatches(*got, BruteForceMatch(TimeSeries(a), q, params)));
  }
}

TEST(IngestTest, BufferSharedByOpenAndPinnedEpochIsCountedOnce) {
  MemKvStore store;
  Catalog catalog(&store, SmallCatalogOptions());
  Rng rng(34);
  ASSERT_TRUE(
      catalog.CreateSeries("s", GenerateSynthetic(4000, &rng)).ok());
  ASSERT_TRUE(catalog.Acquire("s").ok());
  // The first append outgrows the create's exact-size buffer...
  ASSERT_TRUE(
      catalog.AppendSeries("s", GenerateSynthetic(100, &rng).values()).ok());
  auto pinned = catalog.Acquire("s");
  ASSERT_TRUE(pinned.ok());
  // ...the second extends it in place, under the pinned epoch.
  ASSERT_TRUE(
      catalog.AppendSeries("s", GenerateSynthetic(100, &rng).values()).ok());
  auto live = catalog.Acquire("s");
  ASSERT_TRUE(live.ok());
  ASSERT_EQ((*live)->buffer(), (*pinned)->buffer());
  ASSERT_EQ(catalog.retired_sessions(), 1u);

  const uint64_t pinned_rest =
      (*pinned)->MemoryBytes() - (*pinned)->SeriesBytes();
  EXPECT_EQ(catalog.cached_bytes(), (*live)->MemoryBytes());
  EXPECT_EQ(catalog.retired_bytes(), pinned_rest);
  EXPECT_EQ(catalog.Gauges().resident_bytes,
            (*live)->MemoryBytes() + pinned_rest);

  // A later append that reallocates moves the open epoch off the shared
  // buffer: the pinned epoch's series bytes count again.
  ASSERT_TRUE(catalog.AppendSeries("s", GenerateSynthetic(5000, &rng).values())
                  .ok());
  live = catalog.Acquire("s");
  ASSERT_TRUE(live.ok());
  ASSERT_NE((*live)->buffer(), (*pinned)->buffer());
  EXPECT_EQ(catalog.retired_bytes(), (*pinned)->MemoryBytes());
  pinned->reset();
  EXPECT_EQ(catalog.retired_bytes(), 0u);
}

TEST(IngestTest, InstallingAnEpochReadsNoSeriesData) {
  MemKvStore store;
  Catalog catalog(&store, SmallCatalogOptions());
  Rng rng(37);
  constexpr size_t kPoints = 50000;  // 400 KB of values
  const auto bytes_read = [&] {
    return catalog.storage_stats()->TakeSnapshot().bytes_read;
  };
  uint64_t before = bytes_read();
  ASSERT_TRUE(
      catalog.CreateSeries("s", GenerateSynthetic(kPoints, &rng)).ok());
  // Create builds its session from the series it was given; only the
  // header and the index levels' meta rows are read back.
  EXPECT_LT(bytes_read() - before, 8 * kPoints / 10);
  for (int i = 0; i < 5; ++i) {
    before = bytes_read();
    ASSERT_TRUE(
        catalog.AppendSeries("s", GenerateSynthetic(1000, &rng).values())
            .ok());
    EXPECT_LT(bytes_read() - before, 8 * kPoints / 10) << "append " << i;
  }
}

// ---- Satellite: purges are staged, not flushed ----

TEST(IngestTest, CrashBetweenPurgeAndNextFlushReopensClean) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kvm_ingest_purge").string();
  std::filesystem::remove_all(path);
  Rng rng(35);
  std::vector<double> values = GenerateSynthetic(3000, &rng).values();
  const TimeSeries tail = GenerateSynthetic(500, &rng);
  std::string retired_prefix;
  {
    auto file = FileKvStore::Open(path);
    ASSERT_TRUE(file.ok());
    FaultInjectingKvStore fault(file->get());
    Catalog catalog(&fault, SmallCatalogOptions());
    ASSERT_TRUE(catalog.CreateSeries("s", TimeSeries(values)).ok());
    retired_prefix =
        "series/s/e" + std::to_string(*catalog.SeriesEpoch("s")) + "/";
    const uint64_t before = fault.write_ops();
    ASSERT_TRUE(catalog.AppendSeries("s", tail.values()).ok());
    values.insert(values.end(), tail.values().begin(), tail.values().end());
    // The purge of the superseded epoch was the commit's last write op
    // and was only staged: the commit flushed once, before it.
    EXPECT_GT(fault.write_ops(), before);
    EXPECT_GT(CountKeys(file->get(), retired_prefix), 0u);
    // Die before anything flushes the staged purge (the catalog's
    // shutdown Flush included).
    fault.CrashAfter(0);
  }
  {
    auto file = FileKvStore::Open(path);
    ASSERT_TRUE(file.ok());
    Catalog catalog(file->get(), SmallCatalogOptions());
    // The lost purge left the old epoch behind; the open reclaimed it
    // (the append's journal clear was lost with it, so recovery rolls the
    // commit forward) and the committed append is intact.
    const Catalog::RecoveryReport& report = catalog.recovery_report();
    EXPECT_EQ(report.epochs_rolled_back, 0u);
    EXPECT_GE(report.epochs_rolled_forward + report.orphans_swept, 1u);
    EXPECT_EQ(CountKeys(file->get(), retired_prefix), 0u);
    auto session = catalog.Acquire("s");
    ASSERT_TRUE(session.ok());
    EXPECT_TRUE(SameBits((*session)->series().values(), values));
  }
  {
    auto file = FileKvStore::Open(path);
    ASSERT_TRUE(file.ok());
    Catalog catalog(file->get(), SmallCatalogOptions());
    EXPECT_TRUE(catalog.recovery_report().clean());
    EXPECT_EQ(*catalog.SeriesLength("s"), values.size());
  }
  std::filesystem::remove_all(path);
}

TEST(IngestTest, AppendCommitFlushesOnceAndAttributesInstallAndRetire) {
  MemKvStore store;
  Catalog catalog(&store, SmallCatalogOptions());
  StatsRegistry stats;
  catalog.SetStatsRegistry(&stats);
  Rng rng(36);
  ASSERT_TRUE(catalog.CreateSeries("s", GenerateSynthetic(3000, &rng)).ok());
  ASSERT_TRUE(catalog.Acquire("s").ok());
  const auto flushes = [&] {
    return catalog.storage_stats()
        ->TakeSnapshot()
        .ops[KvStoreStats::kFlush]
        .count;
  };
  const uint64_t before = flushes();
  constexpr int kAppends = 5;
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(
        catalog.AppendSeries("s", GenerateSynthetic(200, &rng).values())
            .ok());
  }
  EXPECT_EQ(flushes() - before, static_cast<uint64_t>(kAppends));

  const ServiceStatsSnapshot snap = stats.Snapshot();
  EXPECT_GT(snap.commit_install_ms, 0.0);
  EXPECT_GT(snap.commit_retire_ms, 0.0);
  const double stages = snap.commit_journal_ms + snap.commit_data_ms +
                        snap.commit_index_ms + snap.commit_header_ms +
                        snap.commit_flip_ms + snap.commit_install_ms +
                        snap.commit_retire_ms;
  EXPECT_LE(stages, snap.commit_latency_hist.sum_ms * 1.0001);
  const std::string text = stats.ToText();
  EXPECT_NE(text.find("kvmatch_commit_stage_ms_total{stage=\"install\"}"),
            std::string::npos);
  EXPECT_NE(text.find("kvmatch_commit_stage_ms_total{stage=\"retire\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace kvmatch
