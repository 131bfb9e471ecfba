#include "service/ingest.h"

#include <algorithm>
#include <chrono>

#include "ts/series_store.h"

namespace kvmatch {

SeriesIngestor::SeriesIngestor(Session::Options options)
    : options_(options) {
  builders_.reserve(options_.levels);
  size_t w = options_.wu;
  for (size_t level = 0; level < options_.levels; ++level, w *= 2) {
    IndexBuildOptions opts;
    opts.window = w;
    opts.width = options_.width;
    builders_.emplace_back(opts);
  }
}

void SeriesIngestor::Append(std::span<const double> values) {
  tail_.insert(tail_.end(), values.begin(), values.end());
  size_ += values.size();
  for (auto& builder : builders_) builder.AppendChunk(values);
}

void SeriesIngestor::TrimCommitted() {
  const size_t chunk = options_.series_chunk;
  const size_t keep_from = (size_ / chunk) * chunk;
  if (keep_from == tail_offset_) return;
  // A fresh vector, not erase(): the create commit's full copy must
  // actually be released.
  tail_ = std::vector<double>(tail_.begin() + (keep_from - tail_offset_),
                              tail_.end());
  tail_offset_ = keep_from;
}

uint64_t SeriesIngestor::MemoryBytes() const {
  uint64_t bytes = 8 * static_cast<uint64_t>(tail_.capacity());
  for (const auto& builder : builders_) bytes += builder.ApproxMemoryBytes();
  return bytes;
}

Status SeriesIngestor::Commit(KvStore* store, const std::string& epoch_ns,
                              const std::string& data_ns,
                              uint64_t from_offset,
                              uint64_t* batches_committed,
                              CommitBreakdown* breakdown) const {
  using Clock = std::chrono::steady_clock;
  const auto stage_ms = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  uint64_t batches = 0;
  uint64_t bytes_written = 0;
  WriteBatch batch;
  auto flush_batch = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    bytes_written += batch.ApproximateBytes();
    KVMATCH_RETURN_NOT_OK(store->Apply(batch));
    batch.Clear();
    ++batches;
    return Status::OK();
  };

  // Data: only the chunk rows from `from_offset`'s chunk on — everything
  // before it was written by an earlier commit into the same shared
  // namespace and is byte-identical (appends never change old values).
  // Rewriting the partial last chunk only grows it, which readers pinned
  // on an older header never notice (they stop at their own length).
  const auto data_t0 = Clock::now();
  uint64_t chunk_rows = 0;
  const size_t chunk = options_.series_chunk;
  const size_t first_chunk =
      (std::min<size_t>(from_offset, size_) / chunk) * chunk;
  if (first_chunk < tail_offset_) {
    return Status::Internal(
        "ingest state no longer holds offset " + std::to_string(first_chunk));
  }
  for (size_t offset = first_chunk; offset < size_; offset += chunk) {
    const size_t len = std::min(chunk, size_ - offset);
    SeriesStore::PutChunk(
        &batch, data_ns, offset,
        std::span<const double>(tail_).subspan(offset - tail_offset_, len));
    ++chunk_rows;
    if (batch.ApproximateBytes() >= kBatchTargetBytes) {
      KVMATCH_RETURN_NOT_OK(flush_batch());
    }
  }
  KVMATCH_RETURN_NOT_OK(flush_batch());
  const double data_ms = stage_ms(data_t0);

  // Index stack: the γ-merge runs here, once per level per commit; each
  // level's rows + meta land as one atomic batch, versioned per epoch.
  const auto index_t0 = Clock::now();
  uint64_t index_rows = 0;
  for (const auto& builder : builders_) {
    const KvIndex index = builder.Snapshot();
    index.Persist(&batch,
                  epoch_ns + "idx/w" + std::to_string(index.window()) + "/");
    index_rows += batch.num_ops();
    KVMATCH_RETURN_NOT_OK(flush_batch());
  }
  const double index_ms = stage_ms(index_t0);

  // Header last: SeriesStore::Open (and therefore Session::Open) only
  // succeeds once every byte it will read exists. The header lives in the
  // epoch namespace but redirects chunk reads to the shared data rows.
  const auto header_t0 = Clock::now();
  SeriesStore::PutHeaderRedirect(&batch, epoch_ns + "data/", size_, chunk,
                                 data_ns);
  KVMATCH_RETURN_NOT_OK(flush_batch());

  if (batches_committed != nullptr) *batches_committed = batches;
  if (breakdown != nullptr) {
    breakdown->data_ms = data_ms;
    breakdown->index_ms = index_ms;
    breakdown->header_ms = stage_ms(header_t0);
    breakdown->chunk_rows = chunk_rows;
    breakdown->index_rows = index_rows;
    breakdown->bytes_written = bytes_written;
  }
  return Status::OK();
}

}  // namespace kvmatch
