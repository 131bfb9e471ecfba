#include "matchdp/session.h"

namespace kvmatch {

namespace {
std::string IndexNs(const std::string& ns, size_t w) {
  return ns + "idx/w" + std::to_string(w) + "/";
}
std::string DataNs(const std::string& ns) { return ns + "data/"; }
}  // namespace

void Session::Finish(std::shared_ptr<SeriesBuffer> buffer, size_t length) {
  buffer_ = std::move(buffer);
  series_ = buffer_->View(length);
  index_ptrs_.clear();
  for (const auto& index : indexes_) index_ptrs_.push_back(&index);
  matcher_ = std::make_unique<KvMatchDp>(series_, index_ptrs_);
}

Result<std::unique_ptr<Session>> Session::FromSeries(TimeSeries series,
                                                     Options options) {
  if (series.size() < options.wu) {
    return Status::InvalidArgument("series shorter than smallest window");
  }
  auto session = std::unique_ptr<Session>(new Session());
  session->indexes_ =
      BuildIndexSet(series, options.wu, options.levels, options.width);
  session->Finish(SeriesBuffer::Create(series.values()), series.size());
  return session;
}

Result<std::unique_ptr<Session>> Session::Ingest(KvStore* store,
                                                 const std::string& ns,
                                                 TimeSeries series,
                                                 Options options) {
  if (series.size() >= options.wu) {
    KVMATCH_RETURN_NOT_OK(SeriesStore::Write(store, series, DataNs(ns),
                                             options.series_chunk));
  }
  auto session = FromSeries(std::move(series), options);
  if (!session.ok()) return session.status();
  for (const auto& index : (*session)->indexes_) {
    KVMATCH_RETURN_NOT_OK(index.Persist(store, IndexNs(ns, index.window())));
  }
  return session;
}

Status Session::OpenIndexes(const KvStore* store, const std::string& ns,
                            Options options, size_t length) {
  auto header = SeriesStore::Open(store, DataNs(ns));
  if (!header.ok()) return header.status();
  if (header->size() != length) {
    return Status::Corruption("series header length " +
                              std::to_string(header->size()) + " != " +
                              std::to_string(length) + " under " + ns);
  }
  size_t w = options.wu;
  for (size_t level = 0; level < options.levels; ++level, w *= 2) {
    auto index = KvIndex::Open(store, IndexNs(ns, w));
    if (!index.ok()) return index.status();
    if (options.row_cache_rows > 0) {
      index->EnableRowCache(options.row_cache_rows);
    }
    indexes_.push_back(std::move(index).value());
  }
  return Status::OK();
}

Result<std::unique_ptr<Session>> Session::Open(const KvStore* store,
                                               const std::string& ns,
                                               Options options) {
  auto series_store = SeriesStore::Open(store, DataNs(ns));
  if (!series_store.ok()) return series_store.status();
  auto buffer = SeriesBuffer::Read(*series_store);
  if (!buffer.ok()) return buffer.status();
  auto session = std::unique_ptr<Session>(new Session());
  KVMATCH_RETURN_NOT_OK(
      session->OpenIndexes(store, ns, options, series_store->size()));
  session->Finish(std::move(buffer).value(), series_store->size());
  return session;
}

Result<std::unique_ptr<Session>> Session::OpenWithSeries(
    const KvStore* store, const std::string& ns, Options options,
    std::span<const double> series) {
  auto session = std::unique_ptr<Session>(new Session());
  KVMATCH_RETURN_NOT_OK(
      session->OpenIndexes(store, ns, options, series.size()));
  session->Finish(SeriesBuffer::Create(series), series.size());
  return session;
}

Result<std::unique_ptr<Session>> Session::Extend(
    const KvStore* store, const std::string& ns, Options options,
    std::span<const double> tail) const {
  const size_t length = series_.size() + tail.size();
  auto session = std::unique_ptr<Session>(new Session());
  // Indexes first: a failure here leaves the shared buffer untouched.
  KVMATCH_RETURN_NOT_OK(session->OpenIndexes(store, ns, options, length));
  session->Finish(SeriesBuffer::Extend(buffer_, series_.size(), tail),
                  length);
  return session;
}

Result<std::vector<MatchResult>> Session::Query(std::span<const double> q,
                                                const QueryParams& params,
                                                MatchStats* stats,
                                                const ExecContext& ctx) const {
  return matcher_->Match(q, params, stats, MatchOptions(), ctx);
}

Result<std::vector<MatchResult>> Session::QueryTopK(
    std::span<const double> q, QueryParams params, size_t k,
    const TopKOptions& options, const ExecContext& ctx) const {
  return TopKMatch(
      [&](double epsilon) {
        params.epsilon = epsilon;
        return matcher_->Match(q, params, nullptr, MatchOptions(), ctx);
      },
      k, options);
}

Result<std::unique_ptr<QueryExecutor>> Session::MakeExecutor(
    std::span<const double> q, const QueryParams& params,
    const MatchOptions& options) const {
  return matcher_->MakeExecutor(q, params, options);
}

uint64_t Session::IndexBytes() const {
  uint64_t bytes = 0;
  for (const auto& index : indexes_) bytes += index.EncodedSizeBytes();
  return bytes;
}

uint64_t Session::SeriesBytes() const {
  // Series values + the two prefix-sum arrays (n + 1 doubles each).
  return 8 * static_cast<uint64_t>(series_.size()) +
         16 * static_cast<uint64_t>(series_.size() + 1);
}

uint64_t Session::MemoryBytes() const {
  uint64_t bytes = SeriesBytes() + IndexBytes();
  // For store-backed indexes IndexBytes is meta-only; the warmed row
  // caches are the dominant resident state, so count them too.
  for (const auto& index : indexes_) bytes += index.RowCacheBytes();
  return bytes;
}

}  // namespace kvmatch
