// Service-level observability: per-series throughput and latency plus the
// paper's per-query MatchStats/ProbeStats, aggregated across every request
// the QueryService executes. Feeds the bench harness, the CLI's
// batch-query / serve-bench tables, and the Prometheus STATS exposition.
//
// The hot path (RecordQuery and friends) is lock-free: every counter is a
// relaxed atomic and latencies go into striped LatencyHistograms, so a
// pool of workers finishing queries never serializes on a registry mutex.
// The per-series map itself is guarded by a shared_mutex taken shared for
// lookups (the common case — the series already exists) and exclusive
// only on first touch and Reset().
#ifndef KVMATCH_SERVICE_SERVICE_STATS_H_
#define KVMATCH_SERVICE_SERVICE_STATS_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "match/query_types.h"
#include "storage/instrumented_kvstore.h"

namespace kvmatch {

class EventLog;

/// Live state of the Catalog's MVCC machinery, filled by
/// QueryService::Stats() from Catalog::Gauges() (the registry itself does
/// not own the catalog).
struct CatalogGauges {
  uint64_t live_epochs = 0;         // series with a committed epoch
  uint64_t data_generations = 0;    // live shared data-chunk namespaces
  uint64_t pinned_snapshots = 0;    // retired generations held by readers
  uint64_t resident_series = 0;     // sessions in the open cache
  uint64_t resident_bytes = 0;      // open + retired-but-pinned bytes
  uint64_t memory_budget_bytes = 0;
  uint64_t ingest_state_bytes = 0;  // warm incremental-builder state
  uint64_t journal_replays = 0;     // recovery roll-backs + roll-forwards
  uint64_t orphans_swept = 0;       // at the catalog's open
  uint64_t series_evicted = 0;      // LRU evictions from the open cache
  /// Backend-specific gauges (KvStore::FillGauges), exposed as
  /// kvmatch_storage_<name>.
  std::vector<std::pair<std::string, uint64_t>> backend;
};

/// One epoch commit's measured breakdown, recorded by the Catalog.
struct CommitRecord {
  const char* kind = "";  // "create" | "append" | "replace"
  double total_ms = 0.0;
  double journal_ms = 0.0;  // intent-record write
  double data_ms = 0.0;     // chunk puts
  double index_ms = 0.0;    // γ-merge + index-row batches
  double header_ms = 0.0;   // header flip batch (SeriesStore header)
  double flip_ms = 0.0;     // directory-row flip + flush
  double flush_ms = 0.0;    // the flip's store Flush (append + fdatasync)
  uint64_t chunk_rows = 0;
  uint64_t index_rows = 0;
  uint64_t bytes_written = 0;
  uint64_t batches = 0;
};

/// Latency distribution of a set of queries, in milliseconds. Percentiles
/// are derived from the log-bucketed histogram (within ~9% of exact).
struct LatencySummary {
  uint64_t count = 0;
  double min_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Snapshot of one series' service-side counters.
struct SeriesStatsSnapshot {
  std::string series;
  uint64_t queries = 0;   // completed (ok or error), excludes rejections
  uint64_t errors = 0;
  double qps = 0.0;       // queries / seconds since the registry started
  LatencySummary latency;
  MatchStats match;       // aggregated over completed queries
};

/// Snapshot of the whole service.
struct ServiceStatsSnapshot {
  double elapsed_seconds = 0.0;
  uint64_t total_queries = 0;
  uint64_t total_errors = 0;
  uint64_t rejected = 0;           // queue-full load sheds
  uint64_t deadline_exceeded = 0;  // expired before execution
  uint64_t not_found = 0;          // requests for unregistered series
  /// Accepted requests not yet answered (queued or executing) — gauge.
  uint64_t in_flight = 0;
  /// Queries aborted by an explicit Cancel (queued or mid-execution).
  uint64_t cancelled = 0;
  /// Deadlines enforced *mid-execution* by the cooperative executor
  /// (distinct from `deadline_exceeded`, which never started running).
  uint64_t deadline_aborted_running = 0;
  // Thread-pool gauges, filled in by QueryService::Stats() (the registry
  // itself does not own the pool). workers_busy counts workers currently
  // inside a task; queue_depth counts tasks waiting for a worker — their
  // sum splits the `in_flight` conflation apart.
  uint64_t queue_depth = 0;
  uint64_t workers_busy = 0;
  uint64_t workers_total = 0;
  // Network front-end gauges; all zero when no server is attached.
  uint64_t connections_open = 0;
  uint64_t connections_accepted = 0;  // lifetime, includes open ones
  uint64_t connections_rejected = 0;  // over the connection limit
  uint64_t protocol_errors = 0;       // corrupt/malformed frames received
  // Reactor gauges (epoll event-loop server); zero without one attached.
  uint64_t net_outbox_bytes = 0;      // queued-unsent response bytes, live
  uint64_t net_reads_paused = 0;      // backpressure read-pauses, lifetime
  uint64_t net_loop_iterations = 0;   // epoll_wait returns
  uint64_t net_epoll_wakeups = 0;     // eventfd prods from worker threads
  // Ingest pipeline counters (catalog write path).
  uint64_t points_appended = 0;    // across create/append/replace
  uint64_t ingest_batches = 0;     // WriteBatches committed
  uint64_t epochs_retired = 0;     // generations superseded or dropped
  uint64_t series_dropped = 0;
  /// Current epoch per live series (gauge), sorted by name.
  std::vector<std::pair<std::string, uint64_t>> series_epochs;
  /// Lifetime points appended per series (counter), sorted by name.
  std::vector<std::pair<std::string, uint64_t>> series_ingest_points;
  LatencySummary latency;          // across all series
  /// Raw bucket counts behind `latency`, for the Prometheus
  /// `_bucket`/`_sum`/`_count` exposition.
  LatencyHistogram::Snapshot latency_hist;
  std::vector<SeriesStatsSnapshot> series;  // sorted by name
  // Storage-layer op metrics (InstrumentedKvStore); present only when a
  // catalog with an instrumented store attached its sink.
  bool has_storage = false;
  KvStoreStats::Snapshot storage;
  // Epoch-commit breakdown (catalog write path).
  uint64_t commits_create = 0;
  uint64_t commits_append = 0;
  uint64_t commits_replace = 0;
  uint64_t slow_commits = 0;
  LatencyHistogram::Snapshot commit_latency_hist;
  double commit_journal_ms = 0.0;  // cumulative per-stage wall time
  double commit_data_ms = 0.0;
  double commit_index_ms = 0.0;
  double commit_header_ms = 0.0;
  double commit_flip_ms = 0.0;
  double commit_flush_ms = 0.0;  // the Flush share of commit_flip_ms
  uint64_t commit_chunk_rows = 0;
  uint64_t commit_index_rows = 0;
  uint64_t commit_bytes = 0;
  // Event-journal counters (EventLog::CountsByType), sorted by type.
  uint64_t events_total = 0;
  std::vector<std::pair<std::string, uint64_t>> event_counts;
  /// HTTP requests served by the /metrics responder.
  uint64_t http_requests = 0;
  /// Catalog MVCC gauges; all zero when no catalog fills them.
  CatalogGauges catalog;
};

/// Renders a snapshot as a Prometheus-style plaintext exposition:
/// service-wide counters, connection/pool gauges, the query-latency
/// histogram (`kvmatch_query_latency_ms_bucket{le="..."}` cumulative
/// lines plus `_sum`/`_count`), and per-series metrics with a
/// `series="<name>"` label (series names are [A-Za-z0-9._-] so no label
/// escaping is needed). Served over the wire as a STATS response.
std::string StatsToText(const ServiceStatsSnapshot& snapshot);

/// Thread-safe sink for per-request measurements. All record paths are
/// lock-free once a series has been seen (relaxed atomics + striped
/// histograms); only first-touch of a new series and administrative
/// updates (epoch gauges, Reset) take a lock.
class StatsRegistry {
 public:
  StatsRegistry();

  void RecordQuery(const std::string& series, double latency_ms,
                   const MatchStats& stats, bool ok);
  void RecordRejected();
  void RecordDeadlineExceeded(const std::string& series);
  /// Unknown-series request; counted service-wide, never per-series.
  void RecordLookupFailure();
  // In-flight gauge: Started when a request is accepted onto the queue,
  // Finished when its response is delivered (any outcome).
  void RecordQueryStarted();
  void RecordQueryFinished();
  /// Query aborted by an explicit Cancel (queued or mid-execution).
  void RecordCancelled(const std::string& series);
  /// Deadline enforced mid-execution by the cooperative executor.
  void RecordDeadlineAbortedRunning(const std::string& series);

  // Network front-end gauges, recorded by the TCP server.
  void RecordConnectionOpened();
  void RecordConnectionClosed();
  void RecordConnectionRejected();
  void RecordProtocolError();
  /// Live queued-but-unsent response bytes across every connection:
  /// positive deltas on enqueue, negative as the reactor writes them out
  /// (or drops them with a closing connection).
  void RecordNetOutboxBytes(int64_t delta);
  /// One backpressure read-pause (a connection's outbox hit its cap).
  void RecordNetReadPaused();
  /// Loop-health counters, exported by the reactor on its tick.
  void SetNetLoopCounters(uint64_t iterations, uint64_t wakeups);

  // Ingest pipeline metrics, recorded by the Catalog's write path.
  void RecordIngest(const std::string& series, uint64_t points,
                    uint64_t batches);
  /// One epoch commit's span breakdown.
  void RecordCommit(const CommitRecord& rec);
  /// A commit whose total latency crossed the catalog's slow threshold.
  void RecordSlowCommit();
  /// One request served by the HTTP /metrics responder.
  void RecordHttpRequest();

  /// Attaches the instrumented store's sink; Snapshot() folds it in and
  /// Reset() rebases it. shared_ptr: the sink outlives the catalog.
  void AttachStorage(std::shared_ptr<KvStoreStats> storage);
  /// Attaches the event journal; Snapshot() reads its per-type counters
  /// and Reset() rebases them (the flight-recorder ring is untouched).
  /// Not owned; must outlive this registry's use.
  void AttachEventLog(EventLog* events);
  /// Updates the per-series epoch gauge.
  void RecordEpochInstalled(const std::string& series, uint64_t epoch);
  void RecordEpochRetired();
  /// Drops the series' epoch gauge and counts the drop. The ingest-points
  /// counter survives (it is lifetime volume, not live state).
  void RecordSeriesDropped(const std::string& series);

  ServiceStatsSnapshot Snapshot() const;

  /// StatsToText(Snapshot()).
  std::string ToText() const;

  /// Resets every counter and restarts the QPS clock (bench warm-up).
  void Reset();

 private:
  /// Atomic mirror of MatchStats: counters as relaxed uint64 atomics,
  /// phase wall times as integer nanoseconds (atomic<double> has no
  /// portable lock-free fetch_add).
  struct AtomicMatchStats {
    std::atomic<uint64_t> index_accesses{0};
    std::atomic<uint64_t> rows_fetched{0};
    std::atomic<uint64_t> intervals_fetched{0};
    std::atomic<uint64_t> bytes_fetched{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> candidate_positions{0};
    std::atomic<uint64_t> candidate_intervals{0};
    std::atomic<uint64_t> distance_calls{0};
    std::atomic<uint64_t> lb_pruned{0};
    std::atomic<uint64_t> constraint_pruned{0};
    std::atomic<uint64_t> phase1_ns{0};
    std::atomic<uint64_t> phase2_ns{0};

    void Add(const MatchStats& s);
    MatchStats Load() const;
  };

  struct PerSeries {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> errors{0};
    AtomicMatchStats match;
    LatencyHistogram latency;
  };

  static LatencySummary Summarize(const LatencyHistogram::Snapshot& h);

  /// Shared-lock lookup; takes the exclusive lock only to insert.
  PerSeries* GetSeries(const std::string& series);

  mutable std::shared_mutex series_mu_;
  // shared_ptr so Snapshot()/Reset() can't free a PerSeries out from
  // under a concurrent lock-free recorder.
  std::map<std::string, std::shared_ptr<PerSeries>> series_;

  LatencyHistogram all_latency_;  // across every series

  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> not_found_{0};
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> deadline_aborted_running_{0};
  std::atomic<uint64_t> connections_open_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<int64_t> net_outbox_bytes_{0};
  std::atomic<uint64_t> net_reads_paused_{0};
  std::atomic<uint64_t> net_loop_iterations_{0};
  std::atomic<uint64_t> net_epoll_wakeups_{0};
  std::atomic<uint64_t> points_appended_{0};
  std::atomic<uint64_t> ingest_batches_{0};
  std::atomic<uint64_t> epochs_retired_{0};
  std::atomic<uint64_t> series_dropped_{0};
  std::atomic<uint64_t> http_requests_{0};

  // Commit-breakdown accumulators (stage times as integer nanoseconds —
  // atomic<double> has no portable lock-free fetch_add).
  std::atomic<uint64_t> commits_create_{0};
  std::atomic<uint64_t> commits_append_{0};
  std::atomic<uint64_t> commits_replace_{0};
  std::atomic<uint64_t> slow_commits_{0};
  std::atomic<uint64_t> commit_journal_ns_{0};
  std::atomic<uint64_t> commit_data_ns_{0};
  std::atomic<uint64_t> commit_index_ns_{0};
  std::atomic<uint64_t> commit_header_ns_{0};
  std::atomic<uint64_t> commit_flip_ns_{0};
  std::atomic<uint64_t> commit_flush_ns_{0};
  std::atomic<uint64_t> commit_chunk_rows_{0};
  std::atomic<uint64_t> commit_index_rows_{0};
  std::atomic<uint64_t> commit_bytes_{0};
  LatencyHistogram commit_latency_;

  // Cold administrative state: epoch gauges, per-series ingest totals,
  // and the QPS clock. Ingest is batched (catalog write path, not the
  // query hot path) so a plain mutex here is fine.
  mutable std::mutex gauge_mu_;
  std::chrono::steady_clock::time_point start_;
  std::map<std::string, uint64_t> epoch_gauges_;
  std::map<std::string, uint64_t> ingest_points_;
  std::shared_ptr<KvStoreStats> storage_;  // guarded by gauge_mu_
  EventLog* events_ = nullptr;             // guarded by gauge_mu_
};

}  // namespace kvmatch

#endif  // KVMATCH_SERVICE_SERVICE_STATS_H_
