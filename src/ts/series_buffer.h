// SeriesView / SeriesBuffer: the in-memory form of a series that the
// matching layers read, and the append-only storage that successive
// epochs of a mutable series share.
//
// Phase 2 needs a series' values plus its prefix sums and squares (for
// O(1) window mean / std). Those arrays are owned either by a TimeSeries +
// PrefixStats pair (single-series tools and benches) or by a SeriesBuffer
// (the Session); the matching layers read both through a SeriesView, a
// (pointer, length) view that owns nothing.
//
// A SeriesBuffer holds the three arrays with geometric capacity. An epoch
// of a series is (buffer, length): the next epoch of an append writes only
// the k new slots past every length the buffer has handed out, so readers
// pinned on an older epoch never read a slot that is being written. When
// the capacity runs out, the extension copies into a new, larger buffer
// once (amortized O(1) per point); readers pinned on the old buffer keep
// it alive through their shared_ptr. Spare capacity is allocated but never
// touched, so it is not resident.
//
// Prefix sums are extended with the same sequential recurrence PrefixStats
// builds with (AccumulatePrefix), so an extended buffer equals a buffer
// built from scratch bit for bit.
#ifndef KVMATCH_TS_SERIES_BUFFER_H_
#define KVMATCH_TS_SERIES_BUFFER_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>

#include "common/status.h"
#include "ts/series_store.h"
#include "ts/stats_oracle.h"
#include "ts/time_series.h"

namespace kvmatch {

/// Read-only view of a series and its prefix arrays. Cheap to copy; the
/// arrays must outlive it.
class SeriesView {
 public:
  SeriesView() = default;
  /// `sums` / `squares` hold values.size() + 1 entries, or are empty for
  /// phase-1-only users that never read window statistics.
  explicit SeriesView(std::span<const double> values,
                      std::span<const double> sums = {},
                      std::span<const double> squares = {})
      : values_(values), sums_(sums), squares_(squares) {}
  /// `prefix` must be built over `series` (or be empty, as above).
  SeriesView(const TimeSeries& series, const PrefixStats& prefix)
      : SeriesView(series.values(), prefix.prefix_sums(),
                   prefix.prefix_squares()) {}

  size_t size() const { return values_.size(); }
  std::span<const double> values() const { return values_; }
  /// Caller must ensure offset + len <= size().
  std::span<const double> Subsequence(size_t offset, size_t len) const {
    return values_.subspan(offset, len);
  }
  std::span<const double> prefix_sums() const { return sums_; }
  std::span<const double> prefix_squares() const { return squares_; }

 private:
  std::span<const double> values_;
  std::span<const double> sums_;
  std::span<const double> squares_;
};

class SeriesBuffer {
 public:
  /// A buffer holding exactly `values` and their prefix arrays.
  static std::shared_ptr<SeriesBuffer> Create(std::span<const double> values);

  /// A buffer holding exactly the series `store` describes, read from the
  /// store straight into the buffer.
  static Result<std::shared_ptr<SeriesBuffer>> Read(const SeriesStore& store);

  /// The buffer holding `buffer`'s first `length` points followed by
  /// `tail`. That is `buffer` itself, extended in place, when `length` is
  /// the longest length it has handed out and the tail fits its capacity;
  /// otherwise a new buffer with geometric spare capacity. Either way no
  /// slot below any length handed out before is written. Thread-safe.
  static std::shared_ptr<SeriesBuffer> Extend(
      const std::shared_ptr<SeriesBuffer>& buffer, size_t length,
      std::span<const double> tail);

  /// The first `length` points; `length` must not exceed what this buffer
  /// has been filled to.
  SeriesView View(size_t length) const {
    return SeriesView(std::span<const double>(values_.get(), length),
                      std::span<const double>(sums_.get(), length + 1),
                      std::span<const double>(squares_.get(), length + 1));
  }

  size_t capacity() const { return capacity_; }

 private:
  explicit SeriesBuffer(size_t capacity);

  /// Writes `tail` at slot `from` and extends the prefix arrays.
  void Fill(size_t from, std::span<const double> tail);

  const size_t capacity_;
  const std::unique_ptr<double[]> values_;   // capacity_ slots
  const std::unique_ptr<double[]> sums_;     // capacity_ + 1 slots
  const std::unique_ptr<double[]> squares_;  // capacity_ + 1 slots
  std::mutex mu_;
  size_t filled_ = 0;  // guarded by mu_
};

}  // namespace kvmatch

#endif  // KVMATCH_TS_SERIES_BUFFER_H_
