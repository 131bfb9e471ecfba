// Query latency under a live ingest stream: the cost of the catalog's
// online write path (epoch builds, WriteBatch commits, retired-epoch
// cleanup) as seen by concurrent readers.
//
// Two phases over the same catalog and query batch:
//   1. baseline — queries only;
//   2. contended — the same queries while a writer thread streams chunked
//      AppendSeries calls into one series (each append installs a new
//      epoch) and periodically ReplaceSeries to force full rebuilds.
// Reported per phase: aggregate QPS and mean/p99 latency, plus the
// ingest-side throughput (points/s, epochs installed) and the mean commit
// latency of appends vs replaces. The interesting numbers are the p99
// delta — how much an epoch flip costs a reader — and the append/replace
// latency gap: with epoch delta-commits an append writes only the grown
// tail chunks (O(appended)), so it should stay flat as the series grows
// while a replace pays the full O(n) rewrite.
//
// Also reported, from the StatsRegistry the catalog feeds: the per-commit
// span breakdown (journal / data / index / header / flip wall time, and
// the store Flush's share of the flip) and the write amplification
// (encoded bytes committed per raw point byte), then an ingest-path A/B of
// Catalog::Options::instrument_storage off vs on, the overhead of the
// per-op storage instrumentation.
//
// Last, a bystander sweep: a fresh catalog per size holding 1, 16, 64 and
// 256 MB of other series (--quick stops at 16 MB) plus a 100k-point series
// that takes sequential 1000-point appends. Per size it prints append
// p50/p90, the bytes the process wrote (wchar of /proc/self/io, so
// segment appends and compactions alike) per appended byte, and the
// store-file growth per appended byte of the appends that did not compact.
// On the file backend an append writes its staged rows, so latency and
// growth stay flat as the bystanders grow; compactions (counted) are the
// only whole-file writes.
//
//   ./bench_ingest_while_query [--n <points per series>] [--runs <mult>]
//                              [--seed <s>] [--backend mem|file] [--quick]
//
// --backend picks the store every phase runs on: MemKvStore (default) or
// a FileKvStore in the system temp directory, the backend `serve` uses.
#include "bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>

#include "bench_util/process_io.h"
#include "common/histogram.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "storage/file_kvstore.h"
#include "storage/mem_kvstore.h"

using namespace kvmatch;

namespace {

struct PhaseResult {
  double seconds = 0.0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  size_t queries = 0;
};

PhaseResult RunPhase(QueryService* service,
                     const std::vector<QueryRequest>& requests, int rounds) {
  service->ResetStats();
  Stopwatch sw;
  size_t ok = 0;
  for (int r = 0; r < rounds; ++r) {
    auto futures = service->SubmitBatch(requests);
    for (auto& f : futures) {
      if (f.get().status.ok()) ++ok;
    }
  }
  PhaseResult out;
  out.seconds = sw.Seconds();
  out.queries = ok;
  const ServiceStatsSnapshot snap = service->Stats();
  out.mean_ms = snap.latency.mean_ms;
  out.p99_ms = snap.latency.p99_ms;
  return out;
}

/// The store a phase runs on: MemKvStore, or a FileKvStore on a fresh
/// file that is removed again with the store.
struct BenchStore {
  std::unique_ptr<KvStore> store;
  std::string path;  // set on the file backend

  static BenchStore Make(bool file_backend, const std::string& tag) {
    BenchStore out;
    if (!file_backend) {
      out.store = std::make_unique<MemKvStore>();
      return out;
    }
    out.path = (std::filesystem::temp_directory_path() /
                ("kvm_bench_iwq_" + std::to_string(::getpid()) + "_" + tag))
                   .string();
    std::filesystem::remove(out.path);
    auto opened = FileKvStore::Open(out.path);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s: %s\n", out.path.c_str(),
                   opened.status().ToString().c_str());
      std::exit(1);
    }
    out.store = std::move(opened).value();
    return out;
  }

  BenchStore() = default;
  BenchStore(BenchStore&&) = default;
  BenchStore& operator=(BenchStore&&) = default;
  ~BenchStore() {
    store.reset();
    if (!path.empty()) std::filesystem::remove(path);
  }

  uint64_t Gauge(const char* name) const {
    return store->Gauge(name).value_or(0);
  }
};

/// Append latency and bytes written as the rest of the catalog grows.
int RunBystanderSweep(const BenchFlags& flags, bool file_backend) {
  std::vector<size_t> sizes_mb = {1, 16, 64, 256};
  if (flags.quick) sizes_mb = {1, 16};
  const size_t kHotPoints = 100'000;
  const size_t kAppend = 1000;
  const size_t appends = flags.quick ? 30 : 100;
  std::printf("\nbystander sweep (%s backend): %zu appends of %zu points "
              "into a %zu-point series\n",
              file_backend ? "file" : "mem", appends, kAppend, kHotPoints);
  TablePrinter table({"Bystanders (MB)", "Store (MB)", "Append p50 (ms)",
                      "Append p90 (ms)", "Written / appended B",
                      "Growth / appended B", "Compactions"});
  for (const size_t mb : sizes_mb) {
    BenchStore bs = BenchStore::Make(file_backend, std::to_string(mb));
    Catalog catalog(bs.store.get());
    Rng rng(flags.seed + mb);
    const size_t points = mb * (1u << 20) / 8;
    for (size_t done = 0, i = 0; done < points; ++i) {
      const size_t n = std::min<size_t>(points - done, 1u << 20);
      if (!catalog.CreateSeries("by" + std::to_string(i),
                                GenerateUcrLike(n, &rng))
               .ok()) {
        std::fprintf(stderr, "bystander create failed\n");
        return 1;
      }
      done += n;
    }
    if (!catalog.CreateSeries("hot", GenerateUcrLike(kHotPoints, &rng))
             .ok()) {
      std::fprintf(stderr, "create failed\n");
      return 1;
    }
    std::vector<TimeSeries> chunks;
    for (size_t i = 0; i <= appends; ++i) {
      chunks.push_back(GenerateUcrLike(kAppend, &rng));
    }
    // One untimed warm-up append.
    if (!catalog.AppendSeries("hot", chunks.back().values()).ok()) return 1;
    chunks.pop_back();

    const uint64_t compactions0 = bs.Gauge("compactions_total");
    const uint64_t written0 = ProcessBytesWritten();
    LatencyHistogram ms;
    double growth = 0.0;  // over the appends that did not compact
    size_t growth_appends = 0;
    for (const auto& chunk : chunks) {
      const uint64_t bytes0 = bs.Gauge("file_bytes");
      const uint64_t compacted0 = bs.Gauge("compactions_total");
      Stopwatch sw;
      if (!catalog.AppendSeries("hot", chunk.values()).ok()) {
        std::fprintf(stderr, "append failed\n");
        return 1;
      }
      ms.Record(sw.Ms());
      if (bs.Gauge("compactions_total") == compacted0) {
        growth += static_cast<double>(bs.Gauge("file_bytes") - bytes0);
        ++growth_appends;
      }
    }
    const double written =
        static_cast<double>(ProcessBytesWritten() - written0);
    const LatencyHistogram::Snapshot latency = ms.TakeSnapshot();
    const double appended = 8.0 * kAppend * appends;
    const double growth_per_byte =
        growth_appends > 0 ? growth / (8.0 * kAppend * growth_appends) : 0.0;
    table.AddRow(
        {TablePrinter::FmtInt(mb),
         file_backend
             ? TablePrinter::Fmt(bs.Gauge("file_bytes") / 1048576.0, 1)
             : "-",
         TablePrinter::Fmt(latency.Percentile(0.50), 2),
         TablePrinter::Fmt(latency.Percentile(0.90), 2),
         file_backend ? TablePrinter::Fmt(written / appended, 1) : "-",
         file_backend ? TablePrinter::Fmt(growth_per_byte, 2) : "-",
         file_backend ? TablePrinter::FmtInt(bs.Gauge("compactions_total") -
                                             compactions0)
                      : "-"});
  }
  table.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  bool file_backend = false;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--backend") != 0) continue;
    const std::string backend = argv[i + 1];
    if (backend != "mem" && backend != "file") {
      std::fprintf(stderr, "--backend must be mem or file\n");
      return 2;
    }
    file_backend = backend == "file";
  }
  size_t per_series = flags.n == 2'000'000 ? 200'000 : flags.n;
  size_t batch = 48 * static_cast<size_t>(std::max(1, flags.runs));
  int rounds = 4;
  size_t append_chunk = 20'000;
  if (flags.quick) {
    per_series = 50'000;
    batch = 16;
    rounds = 2;
    append_chunk = 10'000;
  }
  const size_t m = 256;
  const size_t kQuerySeries = 4;

  std::printf("ingest-while-query (%s backend): %zu query series x %zu "
              "points, |Q|=%zu, %zu queries x %d rounds, append chunk %zu\n\n",
              file_backend ? "file" : "mem", kQuerySeries, per_series, m,
              batch, rounds, append_chunk);

  BenchStore main_store = BenchStore::Make(file_backend, "main");
  Catalog catalog(main_store.store.get());
  std::vector<TimeSeries> references;
  for (size_t i = 0; i < kQuerySeries; ++i) {
    Rng rng(flags.seed + i);
    TimeSeries x = GenerateUcrLike(per_series, &rng);
    references.push_back(x);
    if (!catalog.CreateSeries("q" + std::to_string(i), std::move(x)).ok()) {
      std::fprintf(stderr, "create failed\n");
      return 1;
    }
  }
  // The series the writer hammers; queries touch it too, so epoch flips
  // land on the hot path instead of a cold bystander.
  {
    Rng rng(flags.seed + 500);
    if (!catalog.CreateSeries("hot", GenerateUcrLike(per_series, &rng))
             .ok()) {
      std::fprintf(stderr, "create failed\n");
      return 1;
    }
  }

  Rng rng(flags.seed + 100);
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < batch; ++i) {
    const size_t series = i % (kQuerySeries + 1);
    QueryRequest req;
    const bool hot = series == kQuerySeries;
    req.series = hot ? "hot" : "q" + std::to_string(series);
    const auto& ref = references[hot ? 0 : series];
    const size_t qoff = (1237 * i) % (per_series - m);
    req.query = ExtractQuery(ref, qoff, m, 0.05, &rng);
    req.params.type = i % 2 == 0 ? QueryType::kRsmEd : QueryType::kCnsmEd;
    req.params.epsilon = 3.0;
    req.params.alpha = 1.5;
    req.params.beta = 3.0;
    requests.push_back(std::move(req));
  }

  QueryService::Options sopts;
  sopts.num_threads = 4;
  sopts.max_queue = 4 * batch;
  QueryService service(&catalog, sopts);
  catalog.SetStatsRegistry(service.stats_registry());

  const PhaseResult baseline = RunPhase(&service, requests, rounds);

  // Phase 2: identical query load with a live writer.
  std::atomic<bool> stop{false};
  std::atomic<size_t> points_ingested{0};
  std::atomic<size_t> epochs{0};
  std::atomic<double> append_ms_total{0.0};
  std::atomic<size_t> append_count{0};
  std::atomic<double> replace_ms_total{0.0};
  std::atomic<size_t> replace_count{0};
  std::thread writer([&] {
    Rng wrng(flags.seed + 900);
    size_t appends = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const TimeSeries chunk = GenerateUcrLike(append_chunk, &wrng);
      Status st;
      if (++appends % 8 == 0) {
        // Periodic wholesale replace: the worst-case write (full rebuild
        // into a fresh data generation). Generated outside the timer so
        // the commit latencies compare writes, not data generation.
        TimeSeries fresh = GenerateUcrLike(per_series, &wrng);
        Stopwatch commit_sw;
        st = catalog.ReplaceSeries("hot", std::move(fresh));
        if (st.ok()) {
          points_ingested += per_series;
          replace_ms_total.store(replace_ms_total.load() +
                                 commit_sw.Seconds() * 1e3);
          replace_count += 1;
        }
      } else {
        // Delta commit: only the grown tail chunks + header + index.
        Stopwatch commit_sw;
        st = catalog.AppendSeries("hot", chunk.values());
        if (st.ok()) {
          points_ingested += append_chunk;
          append_ms_total.store(append_ms_total.load() +
                                commit_sw.Seconds() * 1e3);
          append_count += 1;
        }
      }
      if (!st.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
        return;
      }
      epochs += 1;
    }
  });
  const PhaseResult contended = RunPhase(&service, requests, rounds);
  stop.store(true);
  writer.join();
  const double ingest_pps =
      contended.seconds > 0.0
          ? static_cast<double>(points_ingested.load()) / contended.seconds
          : 0.0;

  TablePrinter table({"Phase", "Queries", "Wall (s)", "QPS", "Mean (ms)",
                      "p99 (ms)"});
  table.AddRow({"query only", TablePrinter::FmtInt(baseline.queries),
                TablePrinter::Fmt(baseline.seconds, 2),
                TablePrinter::Fmt(baseline.queries / baseline.seconds, 1),
                TablePrinter::Fmt(baseline.mean_ms, 2),
                TablePrinter::Fmt(baseline.p99_ms, 2)});
  table.AddRow({"with ingest", TablePrinter::FmtInt(contended.queries),
                TablePrinter::Fmt(contended.seconds, 2),
                TablePrinter::Fmt(contended.queries / contended.seconds, 1),
                TablePrinter::Fmt(contended.mean_ms, 2),
                TablePrinter::Fmt(contended.p99_ms, 2)});
  table.Print();
  std::printf("\ningest stream: %zu epochs installed, %.0f points/s; "
              "p99 %.2f -> %.2f ms (%+.1f%%)\n",
              epochs.load(), ingest_pps, baseline.p99_ms, contended.p99_ms,
              baseline.p99_ms > 0.0
                  ? 100.0 * (contended.p99_ms - baseline.p99_ms) /
                        baseline.p99_ms
                  : 0.0);
  if (append_count.load() > 0) {
    const double append_mean =
        append_ms_total.load() / static_cast<double>(append_count.load());
    std::printf("delta commits: %zu appends, mean %.2f ms "
                "(%zu-point tail into a %zu+-point series)",
                append_count.load(), append_mean, append_chunk, per_series);
    if (replace_count.load() > 0) {
      std::printf("; %zu replaces, mean %.2f ms (full rewrite)",
                  replace_count.load(),
                  replace_ms_total.load() /
                      static_cast<double>(replace_count.load()));
    }
    std::printf("\n");
  }

  // Commit span breakdown, from the registry the catalog fed during the
  // contended phase (RunPhase reset it at the phase boundary).
  const ServiceStatsSnapshot snap = service.Stats();
  const uint64_t commits =
      snap.commits_create + snap.commits_append + snap.commits_replace;
  if (commits > 0) {
    const double stage_total = snap.commit_journal_ms + snap.commit_data_ms +
                               snap.commit_index_ms + snap.commit_header_ms +
                               snap.commit_flip_ms + snap.commit_install_ms +
                               snap.commit_retire_ms;
    std::printf("\ncommit spans (%llu commits: %llu append, %llu replace):\n",
                static_cast<unsigned long long>(commits),
                static_cast<unsigned long long>(snap.commits_append),
                static_cast<unsigned long long>(snap.commits_replace));
    TablePrinter spans({"Stage", "Total (ms)", "Mean (ms)", "Share"});
    const auto add_stage = [&](const char* name, double total) {
      spans.AddRow({name, TablePrinter::Fmt(total, 1),
                    TablePrinter::Fmt(total / commits, 3),
                    TablePrinter::Fmt(
                        stage_total > 0.0 ? 100.0 * total / stage_total : 0.0,
                        1) + "%"});
    };
    add_stage("journal", snap.commit_journal_ms);
    add_stage("data", snap.commit_data_ms);
    add_stage("index", snap.commit_index_ms);
    add_stage("header", snap.commit_header_ms);
    add_stage("flip", snap.commit_flip_ms);
    add_stage("install", snap.commit_install_ms);
    add_stage("retire", snap.commit_retire_ms);
    spans.Print();
    const double latency_total = snap.commit_latency_hist.sum_ms;
    std::printf("stages cover %.1f%% of the %.1f ms commit latency\n",
                latency_total > 0.0 ? 100.0 * stage_total / latency_total
                                    : 0.0,
                latency_total);
    std::printf("of the flip, store Flush: %.1f ms total, %.3f ms mean\n",
                snap.commit_flush_ms, snap.commit_flush_ms / commits);
    const uint64_t raw_bytes = 8ull * points_ingested.load();
    if (raw_bytes > 0) {
      std::printf("write amplification: %.2fx (%llu committed bytes / "
                  "%llu raw point bytes; %llu chunk rows, %llu index rows)\n",
                  static_cast<double>(snap.commit_bytes) / raw_bytes,
                  static_cast<unsigned long long>(snap.commit_bytes),
                  static_cast<unsigned long long>(raw_bytes),
                  static_cast<unsigned long long>(snap.commit_chunk_rows),
                  static_cast<unsigned long long>(snap.commit_index_rows));
    }
  }

  // Instrumentation overhead A/B: the same append stream into a fresh
  // catalog, storage instrumentation off vs on. Chunks are pre-generated
  // so the loop times only the write path.
  const size_t overhead_appends = flags.quick ? 6 : 16;
  const size_t overhead_rounds = flags.quick ? 3 : 5;
  double pps[2] = {0.0, 0.0};
  const auto run_once = [&](bool instrumented) -> double {
    BenchStore plain = BenchStore::Make(file_backend, "ab");
    Catalog::Options copts;
    copts.instrument_storage = instrumented;
    Catalog bench_catalog(plain.store.get(), copts);
    Rng brng(flags.seed + 1234);  // same seed both ways: identical bytes
    if (!bench_catalog
             .CreateSeries("w", GenerateUcrLike(per_series, &brng))
             .ok()) {
      return -1.0;
    }
    std::vector<TimeSeries> chunks;
    for (size_t i = 0; i <= overhead_appends; ++i) {
      chunks.push_back(GenerateUcrLike(append_chunk, &brng));
    }
    // One untimed warmup append so allocator/page-cache warmup lands
    // outside the measurement.
    if (!bench_catalog.AppendSeries("w", chunks.back().values()).ok()) {
      return -1.0;
    }
    chunks.pop_back();
    Stopwatch sw;
    for (const auto& chunk : chunks) {
      if (!bench_catalog.AppendSeries("w", chunk.values()).ok()) {
        return -1.0;
      }
    }
    const double secs = sw.Seconds();
    return secs > 0.0
               ? static_cast<double>(overhead_appends * append_chunk) / secs
               : 0.0;
  };
  // Alternate configurations across rounds and keep each one's best rate,
  // so process warmup and scheduler noise don't bias whichever side runs
  // first; best-of-N is the standard noise filter for a rate.
  for (size_t round = 0; round < overhead_rounds; ++round) {
    for (int instrumented = 0; instrumented <= 1; ++instrumented) {
      const double rate = run_once(instrumented == 1);
      if (rate < 0.0) {
        std::fprintf(stderr, "overhead run failed\n");
        return 1;
      }
      if (rate > pps[instrumented]) pps[instrumented] = rate;
    }
  }
  std::printf("\ninstrumentation overhead (%zu appends x %zu points):\n",
              overhead_appends, append_chunk);
  TablePrinter overhead({"Instrumentation", "Points/s", "Overhead"});
  overhead.AddRow({"off", TablePrinter::Fmt(pps[0], 0), "-"});
  overhead.AddRow(
      {"on", TablePrinter::Fmt(pps[1], 0),
       TablePrinter::Fmt(
           pps[1] > 0.0 ? 100.0 * (pps[0] / pps[1] - 1.0) : 0.0, 1) + "%"});
  overhead.Print();
  return RunBystanderSweep(flags, file_backend);
}
