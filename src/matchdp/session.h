// Session: the one-stop public entry point for the exploratory workflow
// the paper motivates (§I, §III "Analysis") — load or ingest a series
// once, then interactively issue any of the four query types, top-k
// variants, and re-tuned (ε, α, β, ρ) knobs against the same index stack.
//
// Owns the KV-index stack and a length-bounded share of a SeriesBuffer
// (the series values plus prefix sums). Cheap to query repeatedly.
//
// Successive epochs of an appended series share one buffer: Extend builds
// the next epoch by writing only the appended slots, so a commit's
// in-memory cost is O(appended), not O(series). Open is the one route that
// reads a series back from the store (a cold open after eviction or a
// restart).
//
// Once constructed, queries are const and touch only immutable state plus
// the internally synchronized index row caches, so a session can serve any
// number of threads concurrently (the QueryService relies on this).
#ifndef KVMATCH_MATCHDP_SESSION_H_
#define KVMATCH_MATCHDP_SESSION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/index_builder.h"
#include "match/top_k.h"
#include "matchdp/kv_match_dp.h"
#include "storage/kvstore.h"
#include "ts/series_buffer.h"
#include "ts/series_store.h"

namespace kvmatch {

class Session {
 public:
  struct Options {
    size_t wu = 25;          // smallest index window
    size_t levels = 5;       // Σ = {wu · 2^k}
    double width = 0.5;      // index row width d
    size_t row_cache_rows = 1024;  // per store-backed index; 0 disables
    size_t series_chunk = 1024;    // SeriesStore chunk size
  };

  /// Builds a session from an in-memory series: constructs the index
  /// stack in memory. The fastest way to get going.
  static Result<std::unique_ptr<Session>> FromSeries(TimeSeries series,
                                                     Options options);
  static Result<std::unique_ptr<Session>> FromSeries(TimeSeries series) {
    return FromSeries(std::move(series), Options());
  }

  /// Ingests a series into `store` (chunked data + persisted index stack
  /// under ns + "data/" and ns + "idx/w<w>/") and returns a session over
  /// it. The namespace prefix lets many series share one store (the
  /// Catalog uses "series/<name>/"). The store must outlive the session.
  static Result<std::unique_ptr<Session>> Ingest(KvStore* store,
                                                 const std::string& ns,
                                                 TimeSeries series,
                                                 Options options);
  static Result<std::unique_ptr<Session>> Ingest(KvStore* store,
                                                 TimeSeries series,
                                                 Options options) {
    return Ingest(store, "", std::move(series), options);
  }
  static Result<std::unique_ptr<Session>> Ingest(KvStore* store,
                                                 TimeSeries series) {
    return Ingest(store, "", std::move(series), Options());
  }

  /// Reopens a session previously written by Ingest under the same
  /// namespace: data and indexes are read back from the store (indexes
  /// stay store-backed with the row cache enabled).
  static Result<std::unique_ptr<Session>> Open(const KvStore* store,
                                               const std::string& ns,
                                               Options options);
  static Result<std::unique_ptr<Session>> Open(const KvStore* store,
                                               Options options) {
    return Open(store, "", options);
  }
  static Result<std::unique_ptr<Session>> Open(const KvStore* store) {
    return Open(store, "", Options());
  }

  /// Opens the index stack persisted under `ns` (as Open does) over
  /// `series`, the values the namespace's header describes, which the
  /// caller holds already (it just wrote them): nothing is read back.
  /// Corruption if the header's length differs.
  static Result<std::unique_ptr<Session>> OpenWithSeries(
      const KvStore* store, const std::string& ns, Options options,
      std::span<const double> series);

  /// The session of the epoch persisted under `ns`, whose series is this
  /// session's followed by `tail`: opens that index stack and extends
  /// this session's buffer by `tail` in place (a one-time copy if the
  /// buffer is full or already extended past this session). This session
  /// keeps answering as before. Corruption if the header's length is not
  /// series().size() + tail.size().
  Result<std::unique_ptr<Session>> Extend(const KvStore* store,
                                          const std::string& ns,
                                          Options options,
                                          std::span<const double> tail) const;

  /// ε-match with any of the four query types. |Q| must be >= wu. `ctx`
  /// makes the run abortable (Cancelled / DeadlineExceeded) at phase-1
  /// probe and phase-2 slice boundaries.
  Result<std::vector<MatchResult>> Query(std::span<const double> q,
                                         const QueryParams& params,
                                         MatchStats* stats = nullptr,
                                         const ExecContext& ctx = {}) const;

  /// Top-k best matches under the given query type (ε in `params` is
  /// ignored; the search expands ε internally). `ctx` is checked inside
  /// every ε-round's probe/verify steps.
  Result<std::vector<MatchResult>> QueryTopK(
      std::span<const double> q, QueryParams params, size_t k,
      const TopKOptions& options = {}, const ExecContext& ctx = {}) const;

  /// The resumable executor for one query (DP segmentation included) —
  /// what the QueryService uses to cancel mid-flight and fan verify
  /// slices across workers. The session must outlive the executor.
  Result<std::unique_ptr<QueryExecutor>> MakeExecutor(
      std::span<const double> q, const QueryParams& params,
      const MatchOptions& options = {}) const;

  /// The series values and prefix arrays; valid while the session lives.
  SeriesView series() const { return series_; }
  size_t num_indexes() const { return indexes_.size(); }
  /// Total encoded bytes across the index stack (in-memory form only).
  uint64_t IndexBytes() const;
  /// Approximate resident bytes of this session: series values, prefix
  /// sums, and the index stack (meta only for store-backed indexes).
  /// Drives the Catalog's eviction budget.
  uint64_t MemoryBytes() const;
  /// The series share of MemoryBytes(): values + prefix arrays up to this
  /// session's length.
  uint64_t SeriesBytes() const;
  /// The buffer this session reads, for callers that must count a buffer
  /// shared by several epochs once.
  const SeriesBuffer* buffer() const { return buffer_.get(); }

 private:
  Session() = default;

  /// Reads the index stack persisted under `ns` (store-backed, row cache
  /// per `options`) and checks the header's length against `length`.
  Status OpenIndexes(const KvStore* store, const std::string& ns,
                     Options options, size_t length);
  /// Adopts `buffer`'s first `length` points and builds the matcher.
  void Finish(std::shared_ptr<SeriesBuffer> buffer, size_t length);

  std::shared_ptr<SeriesBuffer> buffer_;
  SeriesView series_;
  std::vector<KvIndex> indexes_;
  std::vector<const KvIndex*> index_ptrs_;
  std::unique_ptr<KvMatchDp> matcher_;
};

}  // namespace kvmatch

#endif  // KVMATCH_MATCHDP_SESSION_H_
