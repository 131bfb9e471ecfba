// SeriesStore: time series data stored *in* a KvStore (paper §VII-B).
//
// The paper's HBase deployment splits the series into equal-length disjoint
// chunks (1024 points by default), one row each: key = chunk start offset,
// value = the packed values. Phase 2 of KV-match then fetches candidate
// subsequences with ranged reads instead of holding the series in memory.
// This mirrors that layout over any KvStore.
//
// The header row may redirect chunk reads to a *different* namespace than
// the one it lives in (PutHeaderRedirect): the catalog's epoch delta-commit
// stores one shared, append-only chunk namespace per series and a tiny
// per-epoch header pointing at it, so appends never rewrite old chunk rows.
// Open follows the redirect transparently; headers without the field read
// chunks from their own namespace (the classic layout).
#ifndef KVMATCH_TS_SERIES_STORE_H_
#define KVMATCH_TS_SERIES_STORE_H_

#include <span>
#include <string>

#include "common/status.h"
#include "storage/kvstore.h"
#include "ts/time_series.h"

namespace kvmatch {

class SeriesStore {
 public:
  /// Writes `series` into `store` under namespace `ns` as chunked rows
  /// plus a header row recording length and chunk size.
  static Status Write(KvStore* store, const TimeSeries& series,
                      const std::string& ns = "",
                      size_t chunk_size = 1024);

  /// Stages the chunk row starting at `chunk_offset` (which must be a
  /// multiple of the chunk size) into `batch`. `values` is that chunk's
  /// payload: up to chunk_size points. Used by the ingest pipeline to
  /// commit data chunk-by-chunk.
  static void PutChunk(WriteBatch* batch, const std::string& ns,
                       uint64_t chunk_offset, std::span<const double> values);

  /// Stages the header row (series length + chunk size) into `batch`.
  static void PutHeader(WriteBatch* batch, const std::string& ns,
                        uint64_t length, uint64_t chunk_size);

  /// Stages a header row into `header_ns` whose chunk rows live in
  /// `data_ns` instead (the epoch delta-commit layout). Open on
  /// `header_ns` will read chunks from `data_ns`.
  static void PutHeaderRedirect(WriteBatch* batch,
                                const std::string& header_ns,
                                uint64_t length, uint64_t chunk_size,
                                const std::string& data_ns);

  /// The key of the chunk row covering offsets [chunk_offset,
  /// chunk_offset + chunk_size). Exposed so the catalog's recovery path
  /// can trim chunk rows past a rolled-back length, and so tests can
  /// count per-chunk write traffic.
  static std::string ChunkKey(const std::string& ns, uint64_t chunk_offset);

  /// Opens a series previously written with Write. Only the header is
  /// read; values are fetched on demand.
  static Result<SeriesStore> Open(const KvStore* store,
                                  const std::string& ns = "");

  size_t size() const { return length_; }
  size_t chunk_size() const { return chunk_size_; }
  /// Namespace the chunk rows are read from (== the header's namespace
  /// unless the header redirects).
  const std::string& data_ns() const { return ns_; }

  /// Reads values [offset, offset + len) with one ranged scan over the
  /// covering chunks. Fails with OutOfRange past the end.
  Result<std::vector<double>> ReadRange(size_t offset, size_t len) const;
  /// ReadRange into caller-owned memory: values [offset, offset +
  /// out.size()).
  Status ReadRangeInto(size_t offset, std::span<double> out) const;

  /// Loads the whole series (convenience for index building).
  Result<TimeSeries> ReadAll() const;

 private:
  SeriesStore() = default;

  const KvStore* store_ = nullptr;
  std::string ns_;
  size_t length_ = 0;
  size_t chunk_size_ = 0;
};

}  // namespace kvmatch

#endif  // KVMATCH_TS_SERIES_STORE_H_
