#include "ts/generator.h"

#include <algorithm>
#include <cmath>

namespace kvmatch {

namespace {

void AppendRandomWalk(std::vector<double>* out, size_t len, Rng* rng,
                      const SyntheticConfig& cfg) {
  double v = rng->Uniform(-cfg.walk_start_abs, cfg.walk_start_abs);
  for (size_t i = 0; i < len; ++i) {
    out->push_back(v);
    v += rng->Uniform(-cfg.walk_step_abs, cfg.walk_step_abs);
  }
}

void AppendGaussian(std::vector<double>* out, size_t len, Rng* rng,
                    const SyntheticConfig& cfg) {
  const double mean = rng->Uniform(-cfg.gauss_mean_abs, cfg.gauss_mean_abs);
  const double std = rng->Uniform(0.0, cfg.gauss_std_max);
  for (size_t i = 0; i < len; ++i) out->push_back(rng->Gaussian(mean, std));
}

void AppendMixedSine(std::vector<double>* out, size_t len, Rng* rng,
                     const SyntheticConfig& cfg) {
  struct Wave {
    double period, amp, phase;
  };
  std::vector<Wave> waves(static_cast<size_t>(cfg.sine_components));
  for (auto& w : waves) {
    w.period = rng->Uniform(cfg.sine_period_lo, cfg.sine_period_hi);
    w.amp = rng->Uniform(cfg.sine_amp_lo, cfg.sine_amp_hi);
    w.phase = rng->Uniform(0.0, 2.0 * M_PI);
  }
  const double mean = rng->Uniform(-cfg.sine_mean_abs, cfg.sine_mean_abs);
  for (size_t i = 0; i < len; ++i) {
    double v = mean;
    for (const auto& w : waves) {
      v += w.amp * std::sin(2.0 * M_PI * static_cast<double>(i) / w.period +
                            w.phase);
    }
    out->push_back(v);
  }
}

}  // namespace

TimeSeries GenerateSynthetic(size_t n, Rng* rng,
                             const SyntheticConfig& cfg) {
  std::vector<double> out;
  out.reserve(n);
  while (out.size() < n) {
    const size_t remaining = n - out.size();
    size_t len = static_cast<size_t>(rng->UniformInt(
        static_cast<int64_t>(cfg.seg_len_lo),
        static_cast<int64_t>(cfg.seg_len_hi)));
    len = std::min(len, remaining);
    switch (rng->UniformInt(0, 2)) {
      case 0: AppendRandomWalk(&out, len, rng, cfg); break;
      case 1: AppendGaussian(&out, len, rng, cfg); break;
      default: AppendMixedSine(&out, len, rng, cfg); break;
    }
  }
  return TimeSeries(std::move(out));
}

TimeSeries GenerateUcrLike(size_t n, Rng* rng) {
  std::vector<double> out;
  out.reserve(n);
  double baseline = 0.0;
  while (out.size() < n) {
    const size_t remaining = n - out.size();
    size_t len =
        static_cast<size_t>(rng->UniformInt(128, 1024));
    len = std::min(len, remaining);
    // Baseline drifts between "datasets" of the concatenated archive.
    baseline += rng->Gaussian(0.0, 1.5);
    baseline = std::clamp(baseline, -20.0, 20.0);
    const int kind = static_cast<int>(rng->UniformInt(0, 3));
    const double amp = rng->Uniform(0.5, 4.0);
    const double noise = rng->Uniform(0.02, 0.3);
    for (size_t i = 0; i < len; ++i) {
      const double t = static_cast<double>(i) / static_cast<double>(len);
      double v = baseline;
      switch (kind) {
        case 0:  // heartbeat-like periodic spikes
          v += amp * std::exp(-50.0 * std::pow(std::fmod(t * 6.0, 1.0) - 0.5, 2));
          break;
        case 1:  // step / square pattern
          v += (std::fmod(t * 4.0, 1.0) < 0.5 ? amp : -amp) * 0.5;
          break;
        case 2:  // smooth bump
          v += amp * std::sin(M_PI * t);
          break;
        default:  // correlated noise
          v += (out.empty() ? 0.0 : (out.back() - baseline) * 0.7) +
               rng->Gaussian(0.0, amp * 0.2);
          break;
      }
      out.push_back(v + rng->Gaussian(0.0, noise));
    }
  }
  return TimeSeries(std::move(out));
}

std::vector<double> ExtractQuery(std::span<const double> x, size_t offset,
                                 size_t len, double noise_std, Rng* rng) {
  std::vector<double> q(len);
  for (size_t i = 0; i < len; ++i) {
    q[i] = x[offset + i] + (noise_std > 0.0 ? rng->Gaussian(0.0, noise_std)
                                            : 0.0);
  }
  return q;
}

std::vector<double> ShiftScale(std::span<const double> q, double shift,
                               double scale) {
  std::vector<double> out(q.size());
  for (size_t i = 0; i < q.size(); ++i) out[i] = scale * q[i] + shift;
  return out;
}

std::vector<double> EogPattern(size_t len, double base, double dip,
                               double peak) {
  // Piecewise shape per Fig. 2: slight dip (first 25%), steep rise to peak
  // (25%..55%), fall below base (55%..80%), recovery (80%..100%).
  std::vector<double> out(len);
  for (size_t i = 0; i < len; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(len - 1);
    double v;
    if (t < 0.25) {
      v = base - dip * std::sin(M_PI * t / 0.25);
    } else if (t < 0.55) {
      const double u = (t - 0.25) / 0.30;
      v = base + (peak - base) * std::sin(M_PI * u / 2.0);
    } else if (t < 0.80) {
      const double u = (t - 0.55) / 0.25;
      v = peak - (peak - base + dip) * u;
    } else {
      const double u = (t - 0.80) / 0.20;
      v = (base - dip) + dip * u;
    }
    out[i] = v;
  }
  return out;
}

std::vector<double> StrainPulse(size_t len, double baseline, double height) {
  std::vector<double> out(len);
  for (size_t i = 0; i < len; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(len - 1);
    // Hann-window bump with a small double-axle ripple on top.
    const double bump = 0.5 * (1.0 - std::cos(2.0 * M_PI * t));
    const double ripple = 0.08 * std::sin(6.0 * M_PI * t) * bump;
    out[i] = baseline + height * (bump + ripple);
  }
  return out;
}

std::vector<double> ActivityBlock(size_t len, int activity_id, Rng* rng) {
  // Each activity has a characteristic level (offset) and oscillation
  // (amplitude/frequency) so that normalized shapes can collide across
  // activities while raw levels separate them — the Example 1 phenomenon.
  const double level = 2.0 * static_cast<double>(activity_id % 5) - 4.0;
  const double amp = 0.2 + 0.5 * static_cast<double>(activity_id % 3);
  const double freq = 0.02 + 0.015 * static_cast<double>(activity_id % 4);
  std::vector<double> out(len);
  for (size_t i = 0; i < len; ++i) {
    out[i] = level +
             amp * std::sin(2.0 * M_PI * freq * static_cast<double>(i)) +
             rng->Gaussian(0.0, 0.1);
  }
  return out;
}

}  // namespace kvmatch
