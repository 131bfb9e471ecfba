// Phase-2 verification (paper §V-C, last paragraph): fetch candidate
// subsequences, apply the cNSM constraints and UCR-style lower bounds, and
// compute exact distances for the survivors.
//
// The hot path is cache-blocked and SIMD-dispatched: runs of contiguous
// candidate offsets are gathered into a 64-byte-aligned scratch block, the
// per-window mean/std come from one batch rolling-stats kernel over the
// prefix arrays, and the lower-bound cascade then runs candidate-at-a-time
// over the block with early abandoning intact. Distance loops go through
// the runtime-dispatched kernel table in distance/simd/ (AVX2 when the CPU
// has it, scalar otherwise or under KVMATCH_FORCE_SCALAR).
#ifndef KVMATCH_MATCH_VERIFIER_H_
#define KVMATCH_MATCH_VERIFIER_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "distance/simd/kernels.h"
#include "index/interval.h"
#include "match/exec_context.h"
#include "match/query_types.h"
#include "ts/series_buffer.h"

namespace kvmatch {

/// Tunable verification options (lower-bound cascade toggles used by the
/// ablation benchmarks).
struct VerifyOptions {
  bool use_lb_kim = true;    // DTW only
  bool use_lb_keogh = true;  // DTW only
  bool use_reordered_ed = true;

  /// Kernel-table override for tests and ablations; null (the default)
  /// uses the process-wide dispatched table.
  const simd::Kernels* kernels = nullptr;

  /// Candidates gathered per aligned block. The default keeps a block of
  /// typical query lengths within L2 while amortizing the batch mean/std
  /// kernel; 0 is clamped to 1.
  size_t block_candidates = 512;
};

/// Verifies every candidate start offset in `cs` (interpreted as candidate
/// subsequence start positions, already shifted by the matcher) against Q.
/// Results are ordered by offset. `stats` may be null.
class Verifier {
 public:
  /// `series` carries the prefix arrays that supply O(1) µ_S / σ_S; the
  /// arrays it views must outlive the verifier.
  explicit Verifier(SeriesView series) : series_(series) {}
  /// `prefix` must be built over `series`.
  Verifier(const TimeSeries& series, const PrefixStats& prefix)
      : Verifier(SeriesView(series, prefix)) {}

  /// Cancellable form: appends matches to `*results` in offset order and
  /// checks `ctx` per candidate — the cancel token (relaxed atomic) on
  /// every candidate and additionally between DTW rows, the deadline
  /// (a clock read) every kDeadlineStride candidates. On Cancelled /
  /// DeadlineExceeded, `*results` and `*stats` hold the work completed so
  /// far.
  Status VerifyCancellable(std::span<const double> q,
                           const QueryParams& params, const IntervalList& cs,
                           const ExecContext& ctx,
                           std::vector<MatchResult>* results,
                           MatchStats* stats = nullptr,
                           const VerifyOptions& options = {}) const;

  /// Run-to-completion wrapper around VerifyCancellable (default
  /// ExecContext never aborts).
  std::vector<MatchResult> Verify(std::span<const double> q,
                                  const QueryParams& params,
                                  const IntervalList& cs,
                                  MatchStats* stats = nullptr,
                                  const VerifyOptions& options = {}) const;

  /// Deadline poll stride, in candidates (the cancel token is polled every
  /// candidate; steady_clock reads are ~20-30ns, so they are amortized).
  static constexpr size_t kDeadlineStride = 64;

 private:
  SeriesView series_;
};

}  // namespace kvmatch

#endif  // KVMATCH_MATCH_VERIFIER_H_
