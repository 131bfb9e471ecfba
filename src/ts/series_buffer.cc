#include "ts/series_buffer.h"

#include <algorithm>
#include <cstring>

namespace kvmatch {

SeriesBuffer::SeriesBuffer(size_t capacity)
    : capacity_(capacity),
      // Default-initialized: spare capacity stays untouched, so it costs
      // address space but no resident memory.
      values_(std::make_unique_for_overwrite<double[]>(capacity)),
      sums_(std::make_unique_for_overwrite<double[]>(capacity + 1)),
      squares_(std::make_unique_for_overwrite<double[]>(capacity + 1)) {
  sums_[0] = 0.0;
  squares_[0] = 0.0;
}

void SeriesBuffer::Fill(size_t from, std::span<const double> tail) {
  if (tail.empty()) return;
  std::memcpy(values_.get() + from, tail.data(), tail.size() * sizeof(double));
  AccumulatePrefix(values_.get(), from, from + tail.size(), sums_.get(),
                   squares_.get());
}

std::shared_ptr<SeriesBuffer> SeriesBuffer::Create(
    std::span<const double> values) {
  auto buffer = std::shared_ptr<SeriesBuffer>(new SeriesBuffer(values.size()));
  buffer->Fill(0, values);
  buffer->filled_ = values.size();
  return buffer;
}

Result<std::shared_ptr<SeriesBuffer>> SeriesBuffer::Read(
    const SeriesStore& store) {
  const size_t n = store.size();
  auto buffer = std::shared_ptr<SeriesBuffer>(new SeriesBuffer(n));
  KVMATCH_RETURN_NOT_OK(
      store.ReadRangeInto(0, std::span<double>(buffer->values_.get(), n)));
  AccumulatePrefix(buffer->values_.get(), 0, n, buffer->sums_.get(),
                   buffer->squares_.get());
  buffer->filled_ = n;
  return buffer;
}

std::shared_ptr<SeriesBuffer> SeriesBuffer::Extend(
    const std::shared_ptr<SeriesBuffer>& buffer, size_t length,
    std::span<const double> tail) {
  const size_t needed = length + tail.size();
  {
    std::lock_guard<std::mutex> lock(buffer->mu_);
    if (length == buffer->filled_ && needed <= buffer->capacity_) {
      buffer->Fill(length, tail);
      buffer->filled_ = needed;
      return buffer;
    }
  }
  // Full, or `length` is not the newest epoch (its successor's slots are
  // taken): copy the first `length` points once into a buffer with room
  // to grow. Slots below `length` are never written again, so reading
  // them without the lock is safe.
  auto grown =
      std::shared_ptr<SeriesBuffer>(new SeriesBuffer(std::max<size_t>(
          2 * needed, 1024)));
  std::memcpy(grown->values_.get(), buffer->values_.get(),
              length * sizeof(double));
  std::memcpy(grown->sums_.get(), buffer->sums_.get(),
              (length + 1) * sizeof(double));
  std::memcpy(grown->squares_.get(), buffer->squares_.get(),
              (length + 1) * sizeof(double));
  grown->Fill(length, tail);
  grown->filled_ = needed;
  return grown;
}

}  // namespace kvmatch
