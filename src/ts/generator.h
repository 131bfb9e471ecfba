// Synthetic workload generation (paper §VIII-A2).
//
// The paper's synthetic series interleave three segment types — random walk,
// Gaussian, and mixed sine — with per-segment random parameters. The same
// machinery also fabricates "UCR-archive-like" concatenations (heterogeneous
// pattern segments) used as the stand-in for the real-data experiments, plus
// query extraction with controlled perturbation for selectivity calibration.
#ifndef KVMATCH_TS_GENERATOR_H_
#define KVMATCH_TS_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ts/time_series.h"

namespace kvmatch {

/// Parameter ranges for the paper's three segment types. Defaults follow
/// §VIII-A2 exactly.
struct SyntheticConfig {
  // Random walk: start in [-start_abs, start_abs], step in [-step_abs, step_abs].
  double walk_start_abs = 5.0;
  double walk_step_abs = 1.0;
  // Gaussian: mean in [-gauss_mean_abs, gauss_mean_abs], std in [0, gauss_std_max].
  double gauss_mean_abs = 5.0;
  double gauss_std_max = 2.0;
  // Mixed sine: period, amplitude in [sine_lo, sine_hi], mean in [-sine_mean_abs, ...].
  double sine_period_lo = 2.0;
  double sine_period_hi = 10.0;
  double sine_amp_lo = 2.0;
  double sine_amp_hi = 10.0;
  double sine_mean_abs = 5.0;
  // Segment length range.
  size_t seg_len_lo = 500;
  size_t seg_len_hi = 5000;
  // Number of sine components mixed together.
  int sine_components = 3;
};

/// Generates a length-`n` series by repeatedly appending random segments.
TimeSeries GenerateSynthetic(size_t n, Rng* rng,
                             const SyntheticConfig& config = {});

/// Generates a "UCR-archive-like" series: a concatenation of many short
/// pattern instances (heartbeat-like spikes, steps, smooth bumps, noise)
/// whose baseline drifts between segments. Approximates the paper's
/// concatenated UCR Archive data used for the real-data experiments.
TimeSeries GenerateUcrLike(size_t n, Rng* rng);

/// Extracts the subsequence X(offset, len) and perturbs every point with
/// Gaussian noise of standard deviation `noise_std`. With noise_std = 0 the
/// query matches exactly (distance 0) at `offset`.
std::vector<double> ExtractQuery(std::span<const double> x, size_t offset,
                                 size_t len, double noise_std, Rng* rng);
inline std::vector<double> ExtractQuery(const TimeSeries& x, size_t offset,
                                        size_t len, double noise_std,
                                        Rng* rng) {
  return ExtractQuery(std::span<const double>(x.values()), offset, len,
                      noise_std, rng);
}

/// Applies offset shifting and amplitude scaling to a query:
/// q'_i = scale * q_i + shift. Used to produce cNSM workloads whose raw
/// values differ from the data but whose shape matches.
std::vector<double> ShiftScale(std::span<const double> q, double shift,
                               double scale);

// ---- Domain pattern generators used by the examples ----

/// Extreme-Operating-Gust wind-speed pattern (Fig. 2): a dip, a sharp rise
/// to a peak, and a return to the base level, of the given length.
std::vector<double> EogPattern(size_t len, double base, double dip,
                               double peak);

/// Bridge strain pulse for a vehicle crossing: a smooth bump whose height
/// scales with vehicle weight (the IoT example in §I).
std::vector<double> StrainPulse(size_t len, double baseline, double height);

/// Activity-monitoring block (PAMAP-like, Example 1): level + oscillation
/// depends on activity id; used by the activity_explorer example.
std::vector<double> ActivityBlock(size_t len, int activity_id, Rng* rng);

}  // namespace kvmatch

#endif  // KVMATCH_TS_GENERATOR_H_
