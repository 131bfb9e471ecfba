// KV-match (paper §V, Algorithm 1): two-phase subsequence matching over a
// single fixed-w KV-index.
//
// Phase 1 probes the index once per disjoint query window, shifts each
// window's interval list back to candidate start positions, and intersects
// them. Phase 2 verifies the surviving candidates against the exact
// distance (with constraint and lower-bound pruning for cNSM/DTW).
#ifndef KVMATCH_MATCH_KV_MATCH_H_
#define KVMATCH_MATCH_KV_MATCH_H_

#include <span>
#include <vector>

#include "index/kv_index.h"
#include "match/exec_context.h"
#include "match/query_ranges.h"
#include "match/query_types.h"
#include "match/verifier.h"
#include "ts/stats_oracle.h"
#include "ts/time_series.h"

namespace kvmatch {

/// Query-processing options (§VI-C optimizations; also ablation knobs).
struct MatchOptions {
  /// Process query windows in increasing order of estimated RList size
  /// (meta-table estimate) instead of left to right.
  bool reorder_windows = false;
  /// Use at most this many query windows (0 = all). Correctness is kept —
  /// each CS_i is a superset of the truth — only pruning power is traded.
  size_t max_windows = 0;
  VerifyOptions verify;
};

/// A generic matching engine over an explicit segmentation: window i is
/// served by `segments[i].index` (all windows of a basic KV-match share one
/// index; KV-matchDP mixes indexes of different w).
struct QuerySegment {
  const KvIndex* index = nullptr;
  size_t offset = 0;  // start within Q
  size_t length = 0;  // must equal index->window()
};

/// Computes only the final candidate set CS (phase 1), for experiments
/// that count candidates without verification (Table VII).
Result<IntervalList> ComputeCandidateSet(
    const TimeSeries& series, std::span<const double> q,
    const QueryParams& params, const std::vector<QuerySegment>& segments,
    MatchStats* stats = nullptr, const MatchOptions& options = {},
    const ExecContext& ctx = {});

/// The basic KV-match: one fixed-w index.
class KvMatcher {
 public:
  /// `series`, `prefix` and `index` must outlive the matcher.
  KvMatcher(const TimeSeries& series, const PrefixStats& prefix,
            const KvIndex& index)
      : series_(series, prefix), index_(index) {}

  /// Processes any of the four query types. |Q| must be >= the index
  /// window length.
  Result<std::vector<MatchResult>> Match(std::span<const double> q,
                                         const QueryParams& params,
                                         MatchStats* stats = nullptr,
                                         const MatchOptions& options = {},
                                         const ExecContext& ctx = {}) const;

 private:
  SeriesView series_;
  const KvIndex& index_;
};

}  // namespace kvmatch

#endif  // KVMATCH_MATCH_KV_MATCH_H_
