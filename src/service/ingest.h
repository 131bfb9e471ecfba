// SeriesIngestor: the streaming write path of the catalog (ROADMAP's
// "catalog ingest pipeline").
//
// Points are fed in chunks; each level of the KV-matchDP index stack is
// maintained by an IncrementalIndexBuilder, so appending k points costs
// O(k · levels) bucket updates — no O(n) rebuild — and the γ-merge runs
// once per Commit. Commit persists into two caller-chosen namespaces: the
// chunked data rows land in a shared data namespace starting at a caller
// supplied offset (so an append writes only the grown tail, never the
// chunks a previous commit already wrote), while the index stack and the
// series header are written fresh under the per-epoch namespace. Writes
// are grouped into bounded WriteBatches so each chunk of the series lands
// atomically and peak batch memory stays flat.
//
// The ingestor holds no copy of the whole series: besides the level
// builders it keeps only the values from the last committed chunk boundary
// on (the partial last chunk a commit must rewrite, plus what was appended
// since). TrimCommitted drops the rest once a commit is durable.
//
// The Catalog drives one SeriesIngestor per mutable series and commits
// every generation under a fresh epoch namespace; the ingestor itself
// knows nothing about epochs or the commit journal.
//
// Not thread-safe: the Catalog serializes all ingest work.
#ifndef KVMATCH_SERVICE_INGEST_H_
#define KVMATCH_SERVICE_INGEST_H_

#include <span>
#include <string>
#include <vector>

#include "index/index_builder.h"
#include "matchdp/session.h"
#include "storage/kvstore.h"

namespace kvmatch {

/// Per-stage measurements of one Commit, for the catalog's commit spans
/// and the ingest bench's write-amplification table.
struct CommitBreakdown {
  double data_ms = 0.0;    // chunk-row batches
  double index_ms = 0.0;   // γ-merge snapshots + index-row batches
  double header_ms = 0.0;  // final header batch
  uint64_t chunk_rows = 0;
  uint64_t index_rows = 0;     // index rows + per-level meta rows
  uint64_t bytes_written = 0;  // encoded bytes across all batches
};

class SeriesIngestor {
 public:
  /// `options` fixes the index layout (wu, levels, width) and the data
  /// chunk size for every Commit of this ingestor.
  explicit SeriesIngestor(Session::Options options);

  /// Streams `values` into the logical series and every index level.
  void Append(std::span<const double> values);

  size_t size() const { return size_; }

  /// Drops the retained values before the last chunk boundary: call once
  /// a Commit covering them is durable. Later commits must then start at
  /// or after that boundary.
  void TrimCommitted();

  /// Approximate resident bytes of the ingest state (retained tail values
  /// + per-level builder rows).
  uint64_t MemoryBytes() const;

  /// Target encoded bytes per commit batch (data chunks are grouped up to
  /// this size; each index level commits as its own batch).
  static constexpr uint64_t kBatchTargetBytes = 1ull << 20;

  /// Persists the current state: chunk rows into `data_ns` starting at
  /// the chunk containing `from_offset` (pass 0 to write the whole
  /// series, or the previously committed length to write only the grown
  /// tail — the partial last chunk is rewritten, full older chunks are
  /// not; Internal if TrimCommitted already dropped that
  /// chunk), then the index stack under epoch_ns + "idx/", and — in the
  /// final batch — the series header under epoch_ns + "data/" with a
  /// redirect to `data_ns`, so the epoch only becomes openable once it is
  /// complete. `batches_committed` (may be null) reports how many
  /// WriteBatches were applied; `breakdown` (may be null) receives the
  /// per-stage timings and row/byte counts. On failure the namespaces are
  /// left partially written; the caller owns cleanup (the Catalog's
  /// journal rolls abandoned commits back).
  Status Commit(KvStore* store, const std::string& epoch_ns,
                const std::string& data_ns, uint64_t from_offset,
                uint64_t* batches_committed,
                CommitBreakdown* breakdown = nullptr) const;

 private:
  Session::Options options_;
  size_t size_ = 0;         // points appended in total
  size_t tail_offset_ = 0;  // chunk-aligned offset of tail_[0]
  std::vector<double> tail_;  // values [tail_offset_, size_)
  std::vector<IncrementalIndexBuilder> builders_;  // one per index level
};

}  // namespace kvmatch

#endif  // KVMATCH_SERVICE_INGEST_H_
