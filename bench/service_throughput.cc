// Service throughput scaling: aggregate QPS of the QueryService as the
// worker pool grows from 1 to N threads over a multi-series catalog.
//
// Setup mirrors the production shape the ROADMAP targets: one shared
// KvStore holding 8 independent series (default 10⁶ points total), a
// Catalog of store-backed sessions with the synchronized row cache, and a
// fixed batch of mixed ε-match queries fanned across the series. The same
// batch is replayed at each pool size; speedup is wall-clock relative to
// the 1-thread run.
//
//   ./bench_service_throughput [--n <total points>] [--runs <batch mult>]
//                              [--seed <s>] [--quick]
#include "bench_common.h"

#include <cmath>
#include <future>

#include "service/catalog.h"
#include "service/query_service.h"
#include "storage/mem_kvstore.h"

using namespace kvmatch;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  const size_t kSeries = 8;
  size_t total_points = flags.n == 2'000'000 ? 1'000'000 : flags.n;
  size_t batch = 64 * static_cast<size_t>(std::max(1, flags.runs));
  if (flags.quick) {
    total_points = 200'000;
    batch = 32;
  }
  const size_t per_series = total_points / kSeries;
  const size_t m = 256;

  std::printf("service throughput: %zu series x %zu points, |Q|=%zu, "
              "batch=%zu\n\n", kSeries, per_series, m, batch);

  MemKvStore store;
  std::vector<TimeSeries> references;
  {
    Catalog ingest_catalog(&store);
    Stopwatch sw;
    for (size_t i = 0; i < kSeries; ++i) {
      Rng rng(flags.seed + i);
      TimeSeries x = GenerateUcrLike(per_series, &rng);
      references.push_back(x);
      if (!ingest_catalog.Ingest("bench" + std::to_string(i), std::move(x))
               .ok()) {
        std::fprintf(stderr, "ingest failed\n");
        return 1;
      }
    }
    std::printf("ingested %zu series in %.2fs\n", kSeries, sw.Seconds());
  }

  // The workload: ε-matches alternating raw/normalized ED, drawn from the
  // data with light noise so every query does real phase-1 + phase-2 work.
  Rng rng(flags.seed + 100);
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < batch; ++i) {
    const size_t series = i % kSeries;
    QueryRequest req;
    req.series = "bench" + std::to_string(series);
    const size_t qoff = (1237 * i) % (per_series - m);
    req.query = ExtractQuery(references[series], qoff, m, 0.05, &rng);
    req.params.type = i % 2 == 0 ? QueryType::kRsmEd : QueryType::kCnsmEd;
    req.params.epsilon = 3.0;
    req.params.alpha = 1.5;
    req.params.beta = 3.0;
    requests.push_back(std::move(req));
  }

  TablePrinter table({"Threads", "Batch", "Wall (s)", "Agg QPS", "Speedup",
                      "Mean (ms)", "p99 (ms)"});
  double base_seconds = 0.0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    // A fresh catalog per pool size: cold sessions and row caches, so
    // every run pays the same open + fetch costs.
    Catalog catalog(&store);
    QueryService::Options sopts;
    sopts.num_threads = threads;
    sopts.max_queue = 2 * batch;
    QueryService service(&catalog, sopts);

    Stopwatch sw;
    auto futures = service.SubmitBatch(requests);
    size_t failed = 0;
    for (auto& f : futures) {
      if (!f.get().status.ok()) ++failed;
    }
    const double seconds = sw.Seconds();
    if (failed > 0) {
      std::fprintf(stderr, "%zu queries failed\n", failed);
      return 1;
    }
    if (threads == 1) base_seconds = seconds;

    const ServiceStatsSnapshot snap = service.Stats();
    table.AddRow({TablePrinter::FmtInt(threads),
                  TablePrinter::FmtInt(batch),
                  TablePrinter::Fmt(seconds, 2),
                  TablePrinter::Fmt(static_cast<double>(batch) / seconds, 1),
                  TablePrinter::Fmt(base_seconds / seconds, 2),
                  TablePrinter::Fmt(snap.latency.mean_ms, 2),
                  TablePrinter::Fmt(snap.latency.p99_ms, 2)});
  }
  table.Print();
  std::printf("\nnote: speedup is bounded by available cores "
              "(hardware_concurrency=%u)\n",
              std::thread::hardware_concurrency());

  // ---- Intra-query parallelism: verify slices of ONE query fanned
  // across the pool (QueryService::Options::parallel_verify). The
  // workload is verification-heavy by construction: a cNSM-ED query with
  // loose α/β/ε bounds, so phase 1 prunes little and nearly every
  // position reaches the phase-2 distance cascade.
  const size_t heavy_n = total_points;
  const size_t heavy_m = 256;
  {
    Catalog ingest_catalog(&store);
    Rng rng(flags.seed + 77);
    TimeSeries heavy = GenerateUcrLike(heavy_n, &rng);
    if (!ingest_catalog.Ingest("verifyheavy", std::move(heavy)).ok()) {
      std::fprintf(stderr, "heavy ingest failed\n");
      return 1;
    }
  }
  QueryRequest heavy_req;
  heavy_req.series = "verifyheavy";
  heavy_req.params.type = QueryType::kCnsmEd;
  // ε at ~0.75·√(2m): unrelated z-normalized windows sit near √(2m), so
  // early abandoning triggers late and phase 2 does real work per
  // candidate without flooding the result set.
  heavy_req.params.epsilon =
      0.75 * std::sqrt(2.0 * static_cast<double>(heavy_m));
  heavy_req.params.alpha = 4.0;
  heavy_req.params.beta = 16.0;
  {
    Catalog probe(&store);
    auto session = probe.Acquire("verifyheavy");
    if (!session.ok()) {
      std::fprintf(stderr, "acquire failed\n");
      return 1;
    }
    Rng rng(flags.seed + 78);
    heavy_req.query =
        ExtractQuery((*session)->series().values(), heavy_n / 3, heavy_m, 0.05, &rng);
  }

  std::printf("\nintra-query parallel verify: one cNSM-ED query, %zu "
              "points, |Q|=%zu, eps=%.1f\n\n",
              heavy_n, heavy_m, heavy_req.params.epsilon);
  TablePrinter ptable({"Parallel verify", "Threads", "Latency (ms)",
                       "Speedup", "Matches", "Candidates"});
  const size_t pool_threads = 8;
  const int reps = flags.quick ? 2 : 3;
  double serial_ms = 0.0;
  for (bool parallel : {false, true}) {
    Catalog catalog(&store);
    QueryService::Options sopts;
    sopts.num_threads = pool_threads;
    sopts.parallel_verify = parallel;
    QueryService service(&catalog, sopts);
    double best_ms = 0.0;
    size_t matches = 0;
    uint64_t candidates = 0;
    for (int r = 0; r < reps; ++r) {
      const QueryResponse response = service.Submit(heavy_req).get();
      if (!response.status.ok()) {
        std::fprintf(stderr, "heavy query failed: %s\n",
                     response.status.ToString().c_str());
        return 1;
      }
      if (r == 0 || response.latency_ms < best_ms) {
        best_ms = response.latency_ms;
      }
      matches = response.matches.size();
      candidates = response.stats.candidate_positions;
    }
    if (!parallel) serial_ms = best_ms;
    ptable.AddRow({parallel ? "on" : "off",
                   TablePrinter::FmtInt(pool_threads),
                   TablePrinter::Fmt(best_ms, 2),
                   TablePrinter::Fmt(serial_ms / best_ms, 2),
                   TablePrinter::FmtInt(matches),
                   TablePrinter::FmtInt(candidates)});
  }
  ptable.Print();
  std::printf("\nnote: like the table above, intra-query speedup is "
              "bounded by available cores (hardware_concurrency=%u)\n",
              std::thread::hardware_concurrency());

  // ---- Tracing overhead: the same batch replayed with per-request span
  // collection off vs on. Off is the production default and must stay
  // within noise of the pre-tracing baseline (the <5% regression budget);
  // on shows what a "trace everything" deployment pays.
  std::printf("\ntracing overhead: %zu-query batch on 4 threads, "
              "collect_trace off vs on\n\n",
              batch);
  TablePrinter ttable({"Tracing", "Wall (s)", "Agg QPS", "vs off"});
  double off_seconds = 0.0;
  for (bool tracing : {false, true}) {
    std::vector<QueryRequest> traced = requests;
    for (auto& req : traced) req.collect_trace = tracing;
    Catalog catalog(&store);
    QueryService::Options sopts;
    sopts.num_threads = 4;
    sopts.max_queue = 2 * batch;
    QueryService service(&catalog, sopts);
    Stopwatch sw;
    auto futures = service.SubmitBatch(traced);
    size_t failed = 0;
    for (auto& f : futures) {
      if (!f.get().status.ok()) ++failed;
    }
    const double seconds = sw.Seconds();
    if (failed > 0) {
      std::fprintf(stderr, "%zu traced queries failed\n", failed);
      return 1;
    }
    if (!tracing) off_seconds = seconds;
    ttable.AddRow({tracing ? "on" : "off", TablePrinter::Fmt(seconds, 3),
                   TablePrinter::Fmt(static_cast<double>(batch) / seconds, 1),
                   TablePrinter::Fmt(
                       100.0 * (seconds - off_seconds) / off_seconds, 1) +
                       "%"});
  }
  ttable.Print();
  return 0;
}
