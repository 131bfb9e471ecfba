#include "ts/series_store.h"

#include <cstring>

#include "common/coding.h"

namespace kvmatch {

namespace {

uint64_t ChunkOffsetOf(std::string_view key, size_t ns_len) {
  uint64_t offset = 0;
  for (size_t i = ns_len + 1; i < ns_len + 9; ++i) {
    offset = (offset << 8) | static_cast<unsigned char>(key[i]);
  }
  return offset;
}

std::string HeaderKey(const std::string& ns) { return ns + "h"; }

}  // namespace

// Chunk keys: ns + "c" + fixed64 big-endian offset (so lexicographic order
// equals numeric order). Header: ns + "h".
std::string SeriesStore::ChunkKey(const std::string& ns, uint64_t offset) {
  std::string key = ns + "c";
  for (int i = 7; i >= 0; --i) {
    key.push_back(static_cast<char>((offset >> (i * 8)) & 0xff));
  }
  return key;
}

void SeriesStore::PutChunk(WriteBatch* batch, const std::string& ns,
                           uint64_t chunk_offset,
                           std::span<const double> values) {
  std::string value(values.size() * sizeof(double), '\0');
  std::memcpy(value.data(), values.data(), values.size() * sizeof(double));
  batch->Put(ChunkKey(ns, chunk_offset), value);
}

void SeriesStore::PutHeader(WriteBatch* batch, const std::string& ns,
                            uint64_t length, uint64_t chunk_size) {
  std::string header;
  PutVarint64(&header, length);
  PutVarint64(&header, chunk_size);
  batch->Put(HeaderKey(ns), header);
}

void SeriesStore::PutHeaderRedirect(WriteBatch* batch,
                                    const std::string& header_ns,
                                    uint64_t length, uint64_t chunk_size,
                                    const std::string& data_ns) {
  std::string header;
  PutVarint64(&header, length);
  PutVarint64(&header, chunk_size);
  header.append(data_ns);  // trailing bytes = the redirect target
  batch->Put(HeaderKey(header_ns), header);
}

Status SeriesStore::Write(KvStore* store, const TimeSeries& series,
                          const std::string& ns, size_t chunk_size) {
  if (chunk_size == 0) return Status::InvalidArgument("chunk_size == 0");
  const size_t n = series.size();
  for (size_t offset = 0; offset < n; offset += chunk_size) {
    const size_t len = std::min(chunk_size, n - offset);
    std::string value(len * sizeof(double), '\0');
    std::memcpy(value.data(), series.data() + offset, len * sizeof(double));
    KVMATCH_RETURN_NOT_OK(store->Put(ChunkKey(ns, offset), value));
  }
  std::string header;
  PutVarint64(&header, n);
  PutVarint64(&header, chunk_size);
  KVMATCH_RETURN_NOT_OK(store->Put(HeaderKey(ns), header));
  return store->Flush();
}

Result<SeriesStore> SeriesStore::Open(const KvStore* store,
                                      const std::string& ns) {
  std::string header;
  KVMATCH_RETURN_NOT_OK(store->Get(HeaderKey(ns), &header));
  SeriesStore out;
  std::string_view in(header);
  uint64_t n, chunk;
  if (!GetVarint64(&in, &n) || !GetVarint64(&in, &chunk) || chunk == 0) {
    return Status::Corruption("bad series header");
  }
  out.store_ = store;
  // Headers written by PutHeaderRedirect carry the chunk namespace after
  // the two varints; classic headers end there and read their own ns.
  out.ns_ = in.empty() ? ns : std::string(in);
  out.length_ = n;
  out.chunk_size_ = chunk;
  return out;
}

Result<std::vector<double>> SeriesStore::ReadRange(size_t offset,
                                                   size_t len) const {
  std::vector<double> out(len);
  KVMATCH_RETURN_NOT_OK(ReadRangeInto(offset, out));
  return out;
}

Status SeriesStore::ReadRangeInto(size_t offset,
                                  std::span<double> out) const {
  const size_t len = out.size();
  if (offset + len > length_) {
    return Status::OutOfRange("range past end of series");
  }
  if (len == 0) return Status::OK();
  const size_t first_chunk = (offset / chunk_size_) * chunk_size_;
  const size_t last_chunk = ((offset + len - 1) / chunk_size_) * chunk_size_;
  std::string end_key = ChunkKey(ns_, last_chunk);
  end_key.push_back('\x01');
  size_t expected = first_chunk;
  for (auto it = store_->Scan(ChunkKey(ns_, first_chunk), end_key);
       it->Valid(); it->Next()) {
    KVMATCH_RETURN_NOT_OK(it->status());
    const uint64_t chunk_off = ChunkOffsetOf(it->key(), ns_.size());
    if (chunk_off != expected) {
      return Status::Corruption("missing series chunk");
    }
    expected += chunk_size_;
    const std::string_view value = it->value();
    const size_t chunk_len = value.size() / sizeof(double);
    // Intersect [chunk_off, chunk_off + chunk_len) with [offset, offset+len).
    const size_t lo = std::max(offset, static_cast<size_t>(chunk_off));
    const size_t hi =
        std::min(offset + len, static_cast<size_t>(chunk_off) + chunk_len);
    if (lo >= hi) continue;
    std::memcpy(out.data() + (lo - offset),
                value.data() + (lo - chunk_off) * sizeof(double),
                (hi - lo) * sizeof(double));
  }
  if (expected <= last_chunk) {
    return Status::Corruption("series scan ended early");
  }
  return Status::OK();
}

Result<TimeSeries> SeriesStore::ReadAll() const {
  auto values = ReadRange(0, length_);
  if (!values.ok()) return values.status();
  return TimeSeries(std::move(values).value());
}

}  // namespace kvmatch
