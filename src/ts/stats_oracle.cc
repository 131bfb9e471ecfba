#include "ts/stats_oracle.h"

#include <algorithm>
#include <cmath>

namespace kvmatch {

void AccumulatePrefix(const double* values, size_t from, size_t to,
                      double* sum, double* sq) {
  for (size_t i = from; i < to; ++i) {
    sum[i + 1] = sum[i] + values[i];
    sq[i + 1] = sq[i] + values[i] * values[i];
  }
}

PrefixStats::PrefixStats(const TimeSeries& series) {
  Build(std::span<const double>(series.values()));
}

PrefixStats::PrefixStats(std::span<const double> values) { Build(values); }

void PrefixStats::Build(std::span<const double> values) {
  const size_t n = values.size();
  sum_.assign(n + 1, 0.0);
  sq_.assign(n + 1, 0.0);
  AccumulatePrefix(values.data(), 0, n, sum_.data(), sq_.data());
}

double PrefixStats::WindowMean(size_t offset, size_t len) const {
  if (len == 0) return 0.0;
  return (sum_[offset + len] - sum_[offset]) / static_cast<double>(len);
}

double PrefixStats::WindowStd(size_t offset, size_t len) const {
  return WindowMeanStd(offset, len).std;
}

MeanStd PrefixStats::WindowMeanStd(size_t offset, size_t len) const {
  MeanStd out;
  if (len == 0) return out;
  const double n = static_cast<double>(len);
  out.mean = (sum_[offset + len] - sum_[offset]) / n;
  const double mean_sq = (sq_[offset + len] - sq_[offset]) / n;
  out.std = std::sqrt(std::max(0.0, mean_sq - out.mean * out.mean));
  return out;
}

std::vector<double> PrefixStats::SlidingMeans(size_t w) const {
  std::vector<double> out;
  const size_t n = series_length();
  if (w == 0 || n < w) return out;
  out.reserve(n - w + 1);
  const double inv = 1.0 / static_cast<double>(w);
  for (size_t i = 0; i + w <= n; ++i) {
    out.push_back((sum_[i + w] - sum_[i]) * inv);
  }
  return out;
}

}  // namespace kvmatch
