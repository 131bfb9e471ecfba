#include "match/kv_match.h"

#include "match/executor.h"

namespace kvmatch {

// The two-phase pipeline lives in QueryExecutor; these single-shot entry
// points exist so baselines, benches and tests keep their original
// shapes (and so a default ExecContext preserves the old
// run-to-completion semantics exactly).

Result<IntervalList> ComputeCandidateSet(
    const TimeSeries& series, std::span<const double> q,
    const QueryParams& params, const std::vector<QuerySegment>& segments,
    MatchStats* stats, const MatchOptions& options, const ExecContext& ctx) {
  // Phase 1 never reads the prefix arrays, so none are built.
  auto executor = QueryExecutor::Create(SeriesView(series.values()), q,
                                        params, segments, options);
  if (!executor.ok()) return executor.status();
  Status st = (*executor)->RunPhase1(ctx);
  if (stats != nullptr) stats->Add((*executor)->stats());
  KVMATCH_RETURN_NOT_OK(st);
  return (*executor)->candidates();
}

Result<std::vector<MatchResult>> KvMatcher::Match(
    std::span<const double> q, const QueryParams& params, MatchStats* stats,
    const MatchOptions& options, const ExecContext& ctx) const {
  const size_t w = index_.window();
  if (w == 0 || q.size() < w) {
    return Status::InvalidArgument("query shorter than index window");
  }
  const size_t p = q.size() / w;
  std::vector<QuerySegment> segments(p);
  for (size_t i = 0; i < p; ++i) {
    segments[i] = {&index_, i * w, w};
  }
  auto executor =
      QueryExecutor::Create(series_, q, params, segments, options);
  if (!executor.ok()) return executor.status();
  return (*executor)->Run(ctx, stats);
}

}  // namespace kvmatch
