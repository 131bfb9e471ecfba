#include "service/service_stats.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "common/event_log.h"

namespace kvmatch {

namespace {

constexpr double kNsPerMs = 1e6;

uint64_t ToNs(double ms) {
  return ms <= 0.0 ? 0 : static_cast<uint64_t>(ms * kNsPerMs);
}

}  // namespace

void StatsRegistry::AtomicMatchStats::Add(const MatchStats& s) {
  const auto add = [](std::atomic<uint64_t>& a, uint64_t v) {
    if (v) a.fetch_add(v, std::memory_order_relaxed);
  };
  add(index_accesses, s.probe.index_accesses);
  add(rows_fetched, s.probe.rows_fetched);
  add(intervals_fetched, s.probe.intervals_fetched);
  add(bytes_fetched, s.probe.bytes_fetched);
  add(cache_hits, s.probe.cache_hits);
  add(candidate_positions, s.candidate_positions);
  add(candidate_intervals, s.candidate_intervals);
  add(distance_calls, s.distance_calls);
  add(lb_pruned, s.lb_pruned);
  add(constraint_pruned, s.constraint_pruned);
  add(phase1_ns, ToNs(s.phase1_ms));
  add(phase2_ns, ToNs(s.phase2_ms));
}

MatchStats StatsRegistry::AtomicMatchStats::Load() const {
  MatchStats out;
  out.probe.index_accesses = index_accesses.load(std::memory_order_relaxed);
  out.probe.rows_fetched = rows_fetched.load(std::memory_order_relaxed);
  out.probe.intervals_fetched =
      intervals_fetched.load(std::memory_order_relaxed);
  out.probe.bytes_fetched = bytes_fetched.load(std::memory_order_relaxed);
  out.probe.cache_hits = cache_hits.load(std::memory_order_relaxed);
  out.candidate_positions =
      candidate_positions.load(std::memory_order_relaxed);
  out.candidate_intervals =
      candidate_intervals.load(std::memory_order_relaxed);
  out.distance_calls = distance_calls.load(std::memory_order_relaxed);
  out.lb_pruned = lb_pruned.load(std::memory_order_relaxed);
  out.constraint_pruned = constraint_pruned.load(std::memory_order_relaxed);
  out.phase1_ms =
      static_cast<double>(phase1_ns.load(std::memory_order_relaxed)) /
      kNsPerMs;
  out.phase2_ms =
      static_cast<double>(phase2_ns.load(std::memory_order_relaxed)) /
      kNsPerMs;
  return out;
}

StatsRegistry::StatsRegistry() : start_(std::chrono::steady_clock::now()) {}

StatsRegistry::PerSeries* StatsRegistry::GetSeries(const std::string& series) {
  {
    std::shared_lock<std::shared_mutex> lock(series_mu_);
    auto it = series_.find(series);
    if (it != series_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(series_mu_);
  auto& slot = series_[series];
  if (!slot) slot = std::make_shared<PerSeries>();
  return slot.get();
}

void StatsRegistry::RecordQuery(const std::string& series, double latency_ms,
                                const MatchStats& stats, bool ok) {
  PerSeries* s = GetSeries(series);
  s->queries.fetch_add(1, std::memory_order_relaxed);
  if (!ok) s->errors.fetch_add(1, std::memory_order_relaxed);
  s->match.Add(stats);
  s->latency.Record(latency_ms);
  all_latency_.Record(latency_ms);
}

void StatsRegistry::RecordRejected() {
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordLookupFailure() {
  // Deliberately not per-series: arbitrary unknown names must not grow
  // the series map without bound.
  not_found_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordDeadlineExceeded(const std::string& series) {
  deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  (void)series;  // deadline misses never ran, so no per-series latency
}

void StatsRegistry::RecordQueryStarted() {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordQueryFinished() {
  // fetch_sub with a floor: a Reset() racing a finish must not wrap the
  // gauge to 2^64.
  uint64_t cur = in_flight_.load(std::memory_order_relaxed);
  while (cur > 0 && !in_flight_.compare_exchange_weak(
                        cur, cur - 1, std::memory_order_relaxed)) {
  }
}

void StatsRegistry::RecordCancelled(const std::string& series) {
  cancelled_.fetch_add(1, std::memory_order_relaxed);
  (void)series;  // aborted runs report no completion latency
}

void StatsRegistry::RecordDeadlineAbortedRunning(const std::string& series) {
  deadline_aborted_running_.fetch_add(1, std::memory_order_relaxed);
  (void)series;
}

void StatsRegistry::RecordConnectionOpened() {
  connections_open_.fetch_add(1, std::memory_order_relaxed);
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordConnectionClosed() {
  uint64_t cur = connections_open_.load(std::memory_order_relaxed);
  while (cur > 0 && !connections_open_.compare_exchange_weak(
                        cur, cur - 1, std::memory_order_relaxed)) {
  }
}

void StatsRegistry::RecordConnectionRejected() {
  connections_rejected_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordProtocolError() {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordNetOutboxBytes(int64_t delta) {
  net_outbox_bytes_.fetch_add(delta, std::memory_order_relaxed);
}

void StatsRegistry::RecordNetReadPaused() {
  net_reads_paused_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::SetNetLoopCounters(uint64_t iterations,
                                       uint64_t wakeups) {
  net_loop_iterations_.store(iterations, std::memory_order_relaxed);
  net_epoll_wakeups_.store(wakeups, std::memory_order_relaxed);
}

void StatsRegistry::RecordIngest(const std::string& series, uint64_t points,
                                 uint64_t batches) {
  points_appended_.fetch_add(points, std::memory_order_relaxed);
  ingest_batches_.fetch_add(batches, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(gauge_mu_);
  ingest_points_[series] += points;
}

void StatsRegistry::RecordEpochInstalled(const std::string& series,
                                         uint64_t epoch) {
  std::lock_guard<std::mutex> lock(gauge_mu_);
  epoch_gauges_[series] = epoch;
}

void StatsRegistry::RecordEpochRetired() {
  epochs_retired_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordCommit(const CommitRecord& rec) {
  const std::string_view kind = rec.kind;
  if (kind == "create") {
    commits_create_.fetch_add(1, std::memory_order_relaxed);
  } else if (kind == "append") {
    commits_append_.fetch_add(1, std::memory_order_relaxed);
  } else {
    commits_replace_.fetch_add(1, std::memory_order_relaxed);
  }
  commit_latency_.Record(rec.total_ms);
  const auto add = [](std::atomic<uint64_t>& a, uint64_t v) {
    if (v) a.fetch_add(v, std::memory_order_relaxed);
  };
  add(commit_journal_ns_, ToNs(rec.journal_ms));
  add(commit_data_ns_, ToNs(rec.data_ms));
  add(commit_index_ns_, ToNs(rec.index_ms));
  add(commit_header_ns_, ToNs(rec.header_ms));
  add(commit_flip_ns_, ToNs(rec.flip_ms));
  add(commit_flush_ns_, ToNs(rec.flush_ms));
  add(commit_install_ns_, ToNs(rec.install_ms));
  add(commit_retire_ns_, ToNs(rec.retire_ms));
  add(commit_chunk_rows_, rec.chunk_rows);
  add(commit_index_rows_, rec.index_rows);
  add(commit_bytes_, rec.bytes_written);
}

void StatsRegistry::RecordSlowCommit() {
  slow_commits_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordHttpRequest() {
  http_requests_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::AttachStorage(std::shared_ptr<KvStoreStats> storage) {
  std::lock_guard<std::mutex> lock(gauge_mu_);
  storage_ = std::move(storage);
}

void StatsRegistry::AttachEventLog(EventLog* events) {
  std::lock_guard<std::mutex> lock(gauge_mu_);
  events_ = events;
}

void StatsRegistry::RecordSeriesDropped(const std::string& series) {
  series_dropped_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(gauge_mu_);
  epoch_gauges_.erase(series);
}

LatencySummary StatsRegistry::Summarize(
    const LatencyHistogram::Snapshot& h) {
  LatencySummary out;
  out.count = h.total;
  if (h.total == 0) return out;
  out.min_ms = h.min_ms;
  out.max_ms = h.max_ms;
  out.mean_ms = h.MeanMs();
  out.p50_ms = h.Percentile(0.50);
  out.p95_ms = h.Percentile(0.95);
  out.p99_ms = h.Percentile(0.99);
  return out;
}

ServiceStatsSnapshot StatsRegistry::Snapshot() const {
  ServiceStatsSnapshot snap;
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  snap.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  snap.not_found = not_found_.load(std::memory_order_relaxed);
  snap.in_flight = in_flight_.load(std::memory_order_relaxed);
  snap.cancelled = cancelled_.load(std::memory_order_relaxed);
  snap.deadline_aborted_running =
      deadline_aborted_running_.load(std::memory_order_relaxed);
  snap.connections_open = connections_open_.load(std::memory_order_relaxed);
  snap.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  snap.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  snap.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  // The outbox gauge can transiently read negative (an enqueue's add and
  // the flusher's subtract are not one atomic step); clamp for display.
  snap.net_outbox_bytes = static_cast<uint64_t>(std::max<int64_t>(
      0, net_outbox_bytes_.load(std::memory_order_relaxed)));
  snap.net_reads_paused = net_reads_paused_.load(std::memory_order_relaxed);
  snap.net_loop_iterations =
      net_loop_iterations_.load(std::memory_order_relaxed);
  snap.net_epoll_wakeups =
      net_epoll_wakeups_.load(std::memory_order_relaxed);
  snap.points_appended = points_appended_.load(std::memory_order_relaxed);
  snap.ingest_batches = ingest_batches_.load(std::memory_order_relaxed);
  snap.epochs_retired = epochs_retired_.load(std::memory_order_relaxed);
  snap.series_dropped = series_dropped_.load(std::memory_order_relaxed);
  snap.http_requests = http_requests_.load(std::memory_order_relaxed);

  snap.commits_create = commits_create_.load(std::memory_order_relaxed);
  snap.commits_append = commits_append_.load(std::memory_order_relaxed);
  snap.commits_replace = commits_replace_.load(std::memory_order_relaxed);
  snap.slow_commits = slow_commits_.load(std::memory_order_relaxed);
  snap.commit_latency_hist = commit_latency_.TakeSnapshot();
  const auto ns_to_ms = [](const std::atomic<uint64_t>& a) {
    return static_cast<double>(a.load(std::memory_order_relaxed)) / kNsPerMs;
  };
  snap.commit_journal_ms = ns_to_ms(commit_journal_ns_);
  snap.commit_data_ms = ns_to_ms(commit_data_ns_);
  snap.commit_index_ms = ns_to_ms(commit_index_ns_);
  snap.commit_header_ms = ns_to_ms(commit_header_ns_);
  snap.commit_flip_ms = ns_to_ms(commit_flip_ns_);
  snap.commit_flush_ms = ns_to_ms(commit_flush_ns_);
  snap.commit_install_ms = ns_to_ms(commit_install_ns_);
  snap.commit_retire_ms = ns_to_ms(commit_retire_ns_);
  snap.commit_chunk_rows =
      commit_chunk_rows_.load(std::memory_order_relaxed);
  snap.commit_index_rows =
      commit_index_rows_.load(std::memory_order_relaxed);
  snap.commit_bytes = commit_bytes_.load(std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lock(gauge_mu_);
    if (storage_ != nullptr) {
      snap.has_storage = true;
      snap.storage = storage_->TakeSnapshot();
    }
    if (events_ != nullptr) {
      snap.events_total = events_->TotalEvents();
      snap.event_counts = events_->CountsByType();
    }
    snap.elapsed_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    snap.series_epochs.assign(epoch_gauges_.begin(), epoch_gauges_.end());
    snap.series_ingest_points.assign(ingest_points_.begin(),
                                     ingest_points_.end());
  }

  std::vector<std::pair<std::string, std::shared_ptr<PerSeries>>> live;
  {
    std::shared_lock<std::shared_mutex> lock(series_mu_);
    live.assign(series_.begin(), series_.end());  // std::map: sorted by name
  }
  for (const auto& [name, s] : live) {
    SeriesStatsSnapshot out;
    out.series = name;
    out.queries = s->queries.load(std::memory_order_relaxed);
    out.errors = s->errors.load(std::memory_order_relaxed);
    out.qps = snap.elapsed_seconds > 0.0
                  ? static_cast<double>(out.queries) / snap.elapsed_seconds
                  : 0.0;
    out.latency = Summarize(s->latency.TakeSnapshot());
    out.match = s->match.Load();
    snap.total_queries += out.queries;
    snap.total_errors += out.errors;
    snap.series.push_back(std::move(out));
  }
  snap.latency_hist = all_latency_.TakeSnapshot();
  snap.latency = Summarize(snap.latency_hist);
  return snap;
}

void StatsRegistry::Reset() {
  {
    std::unique_lock<std::shared_mutex> lock(series_mu_);
    series_.clear();
  }
  all_latency_.Reset();
  rejected_.store(0, std::memory_order_relaxed);
  deadline_exceeded_.store(0, std::memory_order_relaxed);
  not_found_.store(0, std::memory_order_relaxed);
  // in_flight_ is a live gauge owned by the QueryService's submit/finish
  // pairing (like connections_open_ below); resetting it would desync it.
  cancelled_.store(0, std::memory_order_relaxed);
  deadline_aborted_running_.store(0, std::memory_order_relaxed);
  // connections_open_ is a live gauge owned by the server's accept loop;
  // resetting it would desync the open/close pairing. Re-base the
  // lifetime counter so accepted >= open still holds.
  connections_accepted_.store(
      connections_open_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  connections_rejected_.store(0, std::memory_order_relaxed);
  protocol_errors_.store(0, std::memory_order_relaxed);
  // net_outbox_bytes_ is a live gauge owned by the reactor's enqueue/flush
  // pairing; the loop counters are absolute exports overwritten on every
  // tick — resetting either would desync them.
  net_reads_paused_.store(0, std::memory_order_relaxed);
  points_appended_.store(0, std::memory_order_relaxed);
  ingest_batches_.store(0, std::memory_order_relaxed);
  epochs_retired_.store(0, std::memory_order_relaxed);
  series_dropped_.store(0, std::memory_order_relaxed);
  http_requests_.store(0, std::memory_order_relaxed);
  commits_create_.store(0, std::memory_order_relaxed);
  commits_append_.store(0, std::memory_order_relaxed);
  commits_replace_.store(0, std::memory_order_relaxed);
  slow_commits_.store(0, std::memory_order_relaxed);
  commit_journal_ns_.store(0, std::memory_order_relaxed);
  commit_data_ns_.store(0, std::memory_order_relaxed);
  commit_index_ns_.store(0, std::memory_order_relaxed);
  commit_header_ns_.store(0, std::memory_order_relaxed);
  commit_flip_ns_.store(0, std::memory_order_relaxed);
  commit_flush_ns_.store(0, std::memory_order_relaxed);
  commit_install_ns_.store(0, std::memory_order_relaxed);
  commit_retire_ns_.store(0, std::memory_order_relaxed);
  commit_chunk_rows_.store(0, std::memory_order_relaxed);
  commit_index_rows_.store(0, std::memory_order_relaxed);
  commit_bytes_.store(0, std::memory_order_relaxed);
  commit_latency_.Reset();
  std::lock_guard<std::mutex> lock(gauge_mu_);
  // epoch_gauges_ describes the catalog's current state, not this
  // registry's history; a stats rebase must not forget it.
  ingest_points_.clear();
  // The attached storage histograms and event counters are part of this
  // registry's exposition: a rebase that skipped them would make `stats
  // --watch` deltas drift. The event log's flight-recorder ring is
  // deliberately untouched (it is incident history, not a counter).
  if (storage_ != nullptr) storage_->Reset();
  if (events_ != nullptr) events_->ResetCounters();
  start_ = std::chrono::steady_clock::now();
}

std::string StatsRegistry::ToText() const { return StatsToText(Snapshot()); }

namespace {

void EmitCounter(std::string* out, const char* name, uint64_t value) {
  out->append(name);
  out->append(" ");
  out->append(std::to_string(value));
  out->append("\n");
}

void EmitGauge(std::string* out, const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out->append(name);
  out->append(" ");
  out->append(buf);
  out->append("\n");
}

// `extra_labels` is either empty or a "key=\"value\"," prefix for the
// stat label, e.g. "series=\"s0\",".
void EmitLatency(std::string* out, const std::string& name,
                 const std::string& extra_labels,
                 const LatencySummary& latency) {
  const auto emit = [&](const char* stat, double value) {
    EmitGauge(out,
              name + "{" + extra_labels + "stat=\"" + stat + "\"}", value);
  };
  emit("min", latency.min_ms);
  emit("mean", latency.mean_ms);
  emit("p50", latency.p50_ms);
  emit("p95", latency.p95_ms);
  emit("p99", latency.p99_ms);
  emit("max", latency.max_ms);
}

// Prometheus histogram exposition: cumulative buckets. Buckets with no
// observations are skipped (200 mostly-empty lines per poll would drown
// the dump) except the mandatory le="+Inf" terminator.
void EmitHistogram(std::string* out, const std::string& name,
                   const LatencyHistogram::Snapshot& h) {
  uint64_t cum = 0;
  for (size_t i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
    if (h.counts[i] == 0) continue;
    cum += h.counts[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g",
                  LatencyHistogram::BucketUpperBoundMs(i));
    EmitCounter(out, (name + "_bucket{le=\"" + buf + "\"}").c_str(), cum);
  }
  EmitCounter(out, (name + "_bucket{le=\"+Inf\"}").c_str(), h.total);
  EmitGauge(out, name + "_sum", h.sum_ms);
  EmitCounter(out, (name + "_count").c_str(), h.total);
}

}  // namespace

std::string StatsToText(const ServiceStatsSnapshot& snap) {
  std::string out;
  out.reserve(2048 + 512 * snap.series.size());
  EmitGauge(&out, "kvmatch_uptime_seconds", snap.elapsed_seconds);
  EmitCounter(&out, "kvmatch_queries_total", snap.total_queries);
  EmitCounter(&out, "kvmatch_query_errors_total", snap.total_errors);
  EmitCounter(&out, "kvmatch_rejected_total", snap.rejected);
  EmitCounter(&out, "kvmatch_deadline_exceeded_total",
              snap.deadline_exceeded);
  EmitCounter(&out, "kvmatch_not_found_total", snap.not_found);
  EmitCounter(&out, "kvmatch_queries_in_flight", snap.in_flight);
  EmitCounter(&out, "kvmatch_queue_depth", snap.queue_depth);
  EmitCounter(&out, "kvmatch_workers_busy", snap.workers_busy);
  EmitCounter(&out, "kvmatch_workers_total", snap.workers_total);
  EmitCounter(&out, "kvmatch_cancelled_total", snap.cancelled);
  EmitCounter(&out, "kvmatch_deadline_aborted_running_total",
              snap.deadline_aborted_running);
  EmitCounter(&out, "kvmatch_connections_open", snap.connections_open);
  EmitCounter(&out, "kvmatch_connections_accepted_total",
              snap.connections_accepted);
  EmitCounter(&out, "kvmatch_connections_rejected_total",
              snap.connections_rejected);
  EmitCounter(&out, "kvmatch_protocol_errors_total", snap.protocol_errors);
  // Reactor (epoll event-loop server) gauges.
  EmitCounter(&out, "kvmatch_net_open_connections", snap.connections_open);
  EmitCounter(&out, "kvmatch_net_accept_refused_total",
              snap.connections_rejected);
  EmitCounter(&out, "kvmatch_net_outbox_bytes", snap.net_outbox_bytes);
  EmitCounter(&out, "kvmatch_net_reads_paused_total", snap.net_reads_paused);
  EmitCounter(&out, "kvmatch_net_loop_iterations_total",
              snap.net_loop_iterations);
  EmitCounter(&out, "kvmatch_net_epoll_wakeups_total",
              snap.net_epoll_wakeups);
  EmitCounter(&out, "kvmatch_ingest_points_total", snap.points_appended);
  EmitCounter(&out, "kvmatch_ingest_batches_total", snap.ingest_batches);
  EmitCounter(&out, "kvmatch_epochs_retired_total", snap.epochs_retired);
  EmitCounter(&out, "kvmatch_series_dropped_total", snap.series_dropped);
  EmitCounter(&out, "kvmatch_http_requests_total", snap.http_requests);

  // Catalog MVCC gauges (zero when no catalog fills them).
  EmitCounter(&out, "kvmatch_live_epochs", snap.catalog.live_epochs);
  EmitCounter(&out, "kvmatch_data_generations",
              snap.catalog.data_generations);
  EmitCounter(&out, "kvmatch_pinned_snapshots",
              snap.catalog.pinned_snapshots);
  EmitCounter(&out, "kvmatch_resident_series", snap.catalog.resident_series);
  EmitCounter(&out, "kvmatch_resident_bytes", snap.catalog.resident_bytes);
  EmitCounter(&out, "kvmatch_memory_budget_bytes",
              snap.catalog.memory_budget_bytes);
  EmitCounter(&out, "kvmatch_ingest_state_bytes",
              snap.catalog.ingest_state_bytes);
  EmitCounter(&out, "kvmatch_journal_replays_total",
              snap.catalog.journal_replays);
  EmitCounter(&out, "kvmatch_orphans_swept_total",
              snap.catalog.orphans_swept);
  EmitCounter(&out, "kvmatch_series_evicted_total",
              snap.catalog.series_evicted);
  for (const auto& [name, value] : snap.catalog.backend) {
    EmitCounter(&out, ("kvmatch_storage_" + name).c_str(), value);
  }

  // Storage-layer op metrics (instrumented KvStore decorator).
  if (snap.has_storage) {
    for (int op = 0; op < KvStoreStats::kNumOps; ++op) {
      const std::string label =
          std::string("{op=\"") + KvStoreStats::OpName(op) + "\"}";
      EmitCounter(&out, ("kvmatch_kvstore_ops_total" + label).c_str(),
                  snap.storage.ops[op].count);
      EmitCounter(&out, ("kvmatch_kvstore_errors_total" + label).c_str(),
                  snap.storage.ops[op].errors);
      EmitHistogram(&out,
                    std::string("kvmatch_kvstore_") +
                        KvStoreStats::OpName(op) + "_latency_ms",
                    snap.storage.ops[op].latency);
    }
    EmitCounter(&out, "kvmatch_kvstore_bytes_read_total",
                snap.storage.bytes_read);
    EmitCounter(&out, "kvmatch_kvstore_bytes_written_total",
                snap.storage.bytes_written);
    EmitCounter(&out, "kvmatch_kvstore_scan_rows_total",
                snap.storage.scan_rows);
    EmitHistogram(&out, "kvmatch_kvstore_batch_ops", snap.storage.batch_ops);
  }

  // Epoch-commit breakdown (ingest write path).
  EmitCounter(&out, "kvmatch_commits_total{kind=\"create\"}",
              snap.commits_create);
  EmitCounter(&out, "kvmatch_commits_total{kind=\"append\"}",
              snap.commits_append);
  EmitCounter(&out, "kvmatch_commits_total{kind=\"replace\"}",
              snap.commits_replace);
  EmitCounter(&out, "kvmatch_slow_commits_total", snap.slow_commits);
  EmitHistogram(&out, "kvmatch_commit_latency_ms", snap.commit_latency_hist);
  EmitGauge(&out, "kvmatch_commit_stage_ms_total{stage=\"journal\"}",
            snap.commit_journal_ms);
  EmitGauge(&out, "kvmatch_commit_stage_ms_total{stage=\"data\"}",
            snap.commit_data_ms);
  EmitGauge(&out, "kvmatch_commit_stage_ms_total{stage=\"index\"}",
            snap.commit_index_ms);
  EmitGauge(&out, "kvmatch_commit_stage_ms_total{stage=\"header\"}",
            snap.commit_header_ms);
  EmitGauge(&out, "kvmatch_commit_stage_ms_total{stage=\"flip\"}",
            snap.commit_flip_ms);
  EmitGauge(&out, "kvmatch_commit_stage_ms_total{stage=\"install\"}",
            snap.commit_install_ms);
  EmitGauge(&out, "kvmatch_commit_stage_ms_total{stage=\"retire\"}",
            snap.commit_retire_ms);
  // Part of the flip stage above, not a stage of its own.
  EmitGauge(&out, "kvmatch_commit_flush_ms_total", snap.commit_flush_ms);
  EmitCounter(&out, "kvmatch_commit_chunk_rows_total",
              snap.commit_chunk_rows);
  EmitCounter(&out, "kvmatch_commit_index_rows_total",
              snap.commit_index_rows);
  EmitCounter(&out, "kvmatch_commit_bytes_total", snap.commit_bytes);

  // Event-journal counters.
  EmitCounter(&out, "kvmatch_events_emitted_total", snap.events_total);
  for (const auto& [type, count] : snap.event_counts) {
    EmitCounter(&out,
                ("kvmatch_events_total{type=\"" + type + "\"}").c_str(),
                count);
  }
  for (const auto& [name, epoch] : snap.series_epochs) {
    EmitCounter(&out, ("kvmatch_series_epoch{series=\"" + name + "\"}")
                          .c_str(),
                epoch);
  }
  for (const auto& [name, points] : snap.series_ingest_points) {
    EmitCounter(
        &out,
        ("kvmatch_series_ingest_points_total{series=\"" + name + "\"}")
            .c_str(),
        points);
  }
  EmitLatency(&out, "kvmatch_latency_ms", "", snap.latency);
  EmitHistogram(&out, "kvmatch_query_latency_ms", snap.latency_hist);
  for (const auto& s : snap.series) {
    const std::string label = "{series=\"" + s.series + "\"}";
    EmitCounter(&out, ("kvmatch_series_queries_total" + label).c_str(),
                s.queries);
    EmitCounter(&out, ("kvmatch_series_errors_total" + label).c_str(),
                s.errors);
    EmitGauge(&out, "kvmatch_series_qps" + label, s.qps);
    EmitLatency(&out, "kvmatch_series_latency_ms",
                "series=\"" + s.series + "\",", s.latency);
    EmitCounter(&out,
                ("kvmatch_series_candidates_total" + label).c_str(),
                s.match.candidate_positions);
    EmitCounter(&out,
                ("kvmatch_series_index_accesses_total" + label).c_str(),
                s.match.probe.index_accesses);
    EmitCounter(&out,
                ("kvmatch_series_distance_calls_total" + label).c_str(),
                s.match.distance_calls);
  }
  return out;
}

}  // namespace kvmatch
