// PrefixStats: O(1) mean / std of any subsequence via prefix sums.
//
// Both the KV-index builder (sliding window means, §IV-B) and the cNSM
// verifier (µ_S, σ_S of every candidate, §V) need window statistics; prefix
// sums make each query O(1) after an O(n) build.
#ifndef KVMATCH_TS_STATS_ORACLE_H_
#define KVMATCH_TS_STATS_ORACLE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "ts/time_series.h"

namespace kvmatch {

/// The one recurrence every prefix array in the library is built with:
/// fills sum[i + 1] and sq[i + 1] for i in [from, to) from values[i],
/// starting at sum[from] / sq[from]. Arrays extended piecewise with it
/// equal arrays built in one pass bit for bit.
void AccumulatePrefix(const double* values, size_t from, size_t to,
                      double* sum, double* sq);

/// Prefix-sum oracle over a fixed series.
class PrefixStats {
 public:
  PrefixStats() = default;
  explicit PrefixStats(const TimeSeries& series);
  explicit PrefixStats(std::span<const double> values);

  size_t series_length() const {
    return sum_.empty() ? 0 : sum_.size() - 1;
  }

  /// Mean of X(offset, len). Requires offset + len <= series_length().
  double WindowMean(size_t offset, size_t len) const;

  /// Population std of X(offset, len).
  double WindowStd(size_t offset, size_t len) const;

  /// Both in one call.
  MeanStd WindowMeanStd(size_t offset, size_t len) const;

  /// Means of all length-`w` sliding windows (n - w + 1 entries).
  std::vector<double> SlidingMeans(size_t w) const;

  /// Raw prefix arrays (n + 1 entries, index 0 is 0.0) for batch kernels:
  /// the SIMD rolling mean/std kernel consumes these directly and
  /// reproduces WindowMeanStd bitwise.
  std::span<const double> prefix_sums() const { return sum_; }
  std::span<const double> prefix_squares() const { return sq_; }

 private:
  void Build(std::span<const double> values);

  std::vector<double> sum_;   // sum_[i] = x_0 + ... + x_{i-1}
  std::vector<double> sq_;    // sq_[i]  = x_0^2 + ... + x_{i-1}^2
};

}  // namespace kvmatch

#endif  // KVMATCH_TS_STATS_ORACLE_H_
