// QueryExecutor: the resumable form of Algorithm 1.
//
// The monolithic Match() call is decomposed into explicit steps so an
// orchestrator (the QueryService, a test, a future coroutine front-end)
// can interleave checkpoints, cancel mid-query, and parallelize:
//
//   phase 1  →  one StepProbe() per query window (probe + shift +
//               intersect), abortable between windows;
//   phase 2  →  SliceCandidates() partitions the candidate set CS into
//               bounded-size offset ranges, and each VerifySlice(i) is an
//               independent, thread-safe task — slices of one query can
//               run on many workers and their results concatenate in
//               offset order.
//
// The single-shot wrappers (KvMatcher, KvMatchDp, Session::Query) are
// thin layers over Run(), so every caller shares one implementation and
// the executor is the only place phase logic lives.
#ifndef KVMATCH_MATCH_EXECUTOR_H_
#define KVMATCH_MATCH_EXECUTOR_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "match/exec_context.h"
#include "match/kv_match.h"

namespace kvmatch {

class QueryExecutor {
 public:
  /// Validates the segmentation and precomputes the per-window mean
  /// ranges and probe order. The arrays `series` views and the segment
  /// indexes must outlive the executor; `q` is copied (verify slices may
  /// run on other threads after the caller's buffer is gone).
  static Result<std::unique_ptr<QueryExecutor>> Create(
      SeriesView series, std::span<const double> q, const QueryParams& params,
      std::vector<QuerySegment> segments, const MatchOptions& options = {});

  // ---- Phase 1: per-window probe steps ----

  /// Windows scheduled for probing (after MatchOptions::max_windows).
  size_t probes_total() const { return probe_limit_; }
  size_t probes_done() const { return probes_done_; }
  bool phase1_done() const { return phase1_done_; }

  /// Probes the next window, shifts its interval list and intersects it
  /// into the candidate set. Finishing the last window — or emptying the
  /// candidate set early — completes phase 1.
  Status StepProbe();

  /// Runs the remaining probe steps, checking `ctx` before each one.
  Status RunPhase1(const ExecContext& ctx = {});

  /// The final candidate set CS. Valid once phase1_done().
  const IntervalList& candidates() const { return cs_; }

  // ---- Phase 2: verify slices ----

  /// Partitions CS into slices of at most `max_positions` candidate
  /// positions each (0 → one slice), splitting long intervals as needed.
  /// Requires phase1_done(). Returns the slice count.
  size_t SliceCandidates(size_t max_positions);
  size_t num_slices() const { return slices_.size(); }
  const IntervalList& slice(size_t i) const { return slices_[i]; }

  /// Verifies slice `i`: results ordered by offset, counters (and the
  /// slice's verify wall time as phase2_ms) added to `*stats`. `ctx` is
  /// threaded down to per-candidate granularity: the verifier polls the
  /// cancel token on every candidate (and between DTW rows for expensive
  /// candidates) and the deadline every few dozen candidates. On abort,
  /// `*stats` holds the partial counters for the work actually done.
  /// Thread-safe: distinct slices may be verified concurrently.
  Result<std::vector<MatchResult>> VerifySlice(size_t i,
                                               const ExecContext& ctx = {},
                                               MatchStats* stats = nullptr)
      const;
  size_t slices_verified() const { return slices_verified_; }

  /// Streaming consumer for Run(): called with each verified slice's
  /// matches (offset order, non-empty) as the slice completes.
  using MatchSink = std::function<void(std::span<const MatchResult>)>;

  /// Single-shot: remaining phase-1 steps, slicing (at
  /// MatchOptions-independent `verify_slice_positions`), then every slice
  /// in order on the calling thread, checking `ctx` at each boundary.
  /// On abort, stats() holds the partial counters accumulated so far.
  /// When `sink` is non-null each slice's matches are handed to it as the
  /// slice finishes and the returned vector is empty — results flow to the
  /// wire while later slices are still verifying.
  Result<std::vector<MatchResult>> Run(const ExecContext& ctx = {},
                                       MatchStats* stats = nullptr,
                                       const MatchSink* sink = nullptr);

  /// Stats accumulated so far: phase-1 probe counters always; verify
  /// counters only for slices executed through Run() (VerifySlice is
  /// const and reports through its own out-param).
  const MatchStats& stats() const { return stats_; }

  /// Slice granularity Run() uses (also the QueryService default): small
  /// enough that a cancel/deadline lands promptly even when every
  /// candidate runs a full banded DTW, large enough that the per-slice
  /// query-side precomputation stays noise.
  static constexpr size_t kDefaultSlicePositions = 2048;

 private:
  QueryExecutor(SeriesView series, std::span<const double> q,
                const QueryParams& params,
                std::vector<QuerySegment> segments,
                const MatchOptions& options);

  void FinishPhase1();

  SeriesView series_;
  std::vector<double> q_;
  QueryParams params_;
  MatchOptions options_;
  std::vector<QuerySegment> segments_;
  std::vector<QueryWindow> windows_;
  std::vector<size_t> probe_order_;
  size_t probe_limit_ = 0;

  size_t probes_done_ = 0;
  bool phase1_done_ = false;
  bool cs_empty_ = false;  // intersection emptied before the last window
  IntervalList cs_;

  std::vector<IntervalList> slices_;
  size_t slices_verified_ = 0;  // via Run() only

  Verifier verifier_;
  MatchStats stats_;
};

}  // namespace kvmatch

#endif  // KVMATCH_MATCH_EXECUTOR_H_
