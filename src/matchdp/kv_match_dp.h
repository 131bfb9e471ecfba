// KV-matchDP (paper §VI): matching with multiple variable-window indexes.
//
// The query is segmented by the DP of segmenter.h, each window is probed
// against the index of its own length, and the rest of the pipeline is the
// shared Algorithm 1 machinery (shift, intersect, verify).
#ifndef KVMATCH_MATCHDP_KV_MATCH_DP_H_
#define KVMATCH_MATCHDP_KV_MATCH_DP_H_

#include <memory>
#include <span>
#include <vector>

#include "match/executor.h"
#include "match/kv_match.h"
#include "matchdp/segmenter.h"

namespace kvmatch {

class KvMatchDp {
 public:
  /// `indexes[k]` must have window wu·2^k over `series`; the indexes and
  /// the arrays `series` views must outlive the matcher.
  KvMatchDp(SeriesView series, std::vector<const KvIndex*> indexes)
      : series_(series), indexes_(std::move(indexes)) {}
  KvMatchDp(const TimeSeries& series, const PrefixStats& prefix,
            std::vector<const KvIndex*> indexes)
      : KvMatchDp(SeriesView(series, prefix), std::move(indexes)) {}

  /// Processes any of the four query types; |Q| must be >= wu.
  Result<std::vector<MatchResult>> Match(std::span<const double> q,
                                         const QueryParams& params,
                                         MatchStats* stats = nullptr,
                                         const MatchOptions& options = {},
                                         const ExecContext& ctx = {}) const;

  /// The resumable form: segments Q and returns an executor positioned
  /// before the first probe step, for orchestrators that need stepwise
  /// control (mid-query cancellation, parallel verify slices). The
  /// matcher must outlive the executor.
  Result<std::unique_ptr<QueryExecutor>> MakeExecutor(
      std::span<const double> q, const QueryParams& params,
      const MatchOptions& options = {}) const;

  /// The segmentation that Match would use (exposed for Fig. 10 analysis).
  Result<Segmentation> Segment(std::span<const double> q,
                               const QueryParams& params) const {
    return SegmentQuery(q, params, indexes_);
  }

  const std::vector<const KvIndex*>& indexes() const { return indexes_; }

 private:
  SeriesView series_;
  std::vector<const KvIndex*> indexes_;
};

}  // namespace kvmatch

#endif  // KVMATCH_MATCHDP_KV_MATCH_DP_H_
