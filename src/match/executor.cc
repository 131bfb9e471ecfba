#include "match/executor.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "service/trace.h"

namespace kvmatch {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Status ValidateSegments(std::span<const double> q,
                        const std::vector<QuerySegment>& segments) {
  if (segments.empty()) {
    return Status::InvalidArgument("empty query segmentation");
  }
  size_t expect = 0;
  for (const auto& seg : segments) {
    if (seg.index == nullptr) {
      return Status::InvalidArgument("segment has no index");
    }
    if (seg.length != seg.index->window()) {
      return Status::InvalidArgument("segment length != index window");
    }
    if (seg.offset != expect) {
      return Status::InvalidArgument("segments must tile a prefix of Q");
    }
    expect += seg.length;
  }
  if (expect > q.size()) {
    return Status::InvalidArgument("segmentation longer than Q");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<QueryExecutor>> QueryExecutor::Create(
    SeriesView series, std::span<const double> q, const QueryParams& params,
    std::vector<QuerySegment> segments, const MatchOptions& options) {
  KVMATCH_RETURN_NOT_OK(ValidateSegments(q, segments));
  return std::unique_ptr<QueryExecutor>(new QueryExecutor(
      series, q, params, std::move(segments), options));
}

QueryExecutor::QueryExecutor(SeriesView series, std::span<const double> q,
                             const QueryParams& params,
                             std::vector<QuerySegment> segments,
                             const MatchOptions& options)
    : series_(series),
      q_(q.begin(), q.end()),
      params_(params),
      options_(options),
      segments_(std::move(segments)),
      verifier_(series) {
  // The window-range computation and the reorder estimate scan are
  // phase-1 work: time them so phase1_ms matches the pre-executor
  // accounting.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<size_t> lengths;
  lengths.reserve(segments_.size());
  for (const auto& seg : segments_) lengths.push_back(seg.length);
  windows_ = ComputeQueryWindowsSegmented(q_, lengths, params_);

  // Probe order (§VI-C: smaller estimated RList first).
  probe_order_.resize(segments_.size());
  std::iota(probe_order_.begin(), probe_order_.end(), 0);
  if (options_.reorder_windows) {
    std::vector<uint64_t> est(segments_.size());
    for (size_t i = 0; i < segments_.size(); ++i) {
      est[i] = segments_[i].index->EstimateIntervals(windows_[i].lr,
                                                     windows_[i].ur);
    }
    std::stable_sort(probe_order_.begin(), probe_order_.end(),
                     [&](size_t a, size_t b) { return est[a] < est[b]; });
  }
  probe_limit_ = options_.max_windows == 0
                     ? probe_order_.size()
                     : std::min(probe_order_.size(), options_.max_windows);
  stats_.phase1_ms += MsSince(t0);
  if (probe_limit_ == 0) FinishPhase1();
}

Status QueryExecutor::StepProbe() {
  if (phase1_done_) {
    return Status::InvalidArgument("phase 1 already complete");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const size_t i = probe_order_[probes_done_];
  auto is = segments_[i].index->ProbeRange(windows_[i].lr, windows_[i].ur,
                                           &stats_.probe);
  if (!is.ok()) {
    stats_.phase1_ms += MsSince(t0);
    return is.status();
  }
  const IntervalList cs_i =
      is.value().ShiftLeft(static_cast<int64_t>(windows_[i].offset));
  if (probes_done_ == 0) {
    cs_ = cs_i;
  } else {
    cs_ = IntervalList::Intersect(cs_, cs_i);
  }
  probes_done_ += 1;
  if (cs_.empty()) cs_empty_ = true;
  stats_.phase1_ms += MsSince(t0);
  if (cs_empty_ || probes_done_ == probe_limit_) FinishPhase1();
  return Status::OK();
}

void QueryExecutor::FinishPhase1() {
  // A candidate must host a full |Q| subsequence.
  const size_t m = q_.size();
  if (probe_limit_ == 0 || cs_empty_ || series_.size() < m) {
    cs_ = IntervalList();
  } else {
    IntervalList full_range;
    full_range.AppendInterval({0, static_cast<int64_t>(series_.size() - m)});
    cs_ = IntervalList::Intersect(cs_, full_range);
  }
  stats_.candidate_intervals = cs_.num_intervals();
  stats_.candidate_positions = static_cast<uint64_t>(cs_.num_positions());
  phase1_done_ = true;
}

Status QueryExecutor::RunPhase1(const ExecContext& ctx) {
  // Already complete (e.g. Run() after an explicit RunPhase1): no work,
  // and no empty duplicate probe span on the trace.
  if (phase1_done_) return Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  const size_t probes0 = probes_done_;
  const uint64_t rows0 = stats_.probe.rows_fetched;
  Status st = Status::OK();
  while (!phase1_done_) {
    st = ctx.Check();
    if (!st.ok()) break;
    st = StepProbe();
    if (!st.ok()) break;
  }
  if (ctx.trace != nullptr) {
    // Span recorded even on abort, covering the windows actually stepped.
    ctx.trace->AddSpan(
        kSpanProbe, t0, std::chrono::steady_clock::now(),
        {{"windows", probes_done_ - probes0},
         {"rows_fetched", stats_.probe.rows_fetched - rows0}});
  }
  return st;
}

size_t QueryExecutor::SliceCandidates(size_t max_positions) {
  slices_.clear();
  slices_verified_ = 0;
  if (cs_.empty()) return 0;
  if (max_positions == 0) {
    slices_.push_back(cs_);
    return 1;
  }
  IntervalList current;
  int64_t current_positions = 0;
  for (const auto& wi : cs_.intervals()) {
    int64_t l = wi.l;
    while (l <= wi.r) {
      const int64_t room =
          static_cast<int64_t>(max_positions) - current_positions;
      if (room <= 0) {
        slices_.push_back(std::move(current));
        current = IntervalList();
        current_positions = 0;
        continue;
      }
      const int64_t r = std::min(wi.r, l + room - 1);
      current.AppendInterval({l, r});
      current_positions += r - l + 1;
      l = r + 1;
    }
  }
  if (!current.empty()) slices_.push_back(std::move(current));
  return slices_.size();
}

Result<std::vector<MatchResult>> QueryExecutor::VerifySlice(
    size_t i, const ExecContext& ctx, MatchStats* stats) const {
  KVMATCH_RETURN_NOT_OK(ctx.Check());
  if (i >= slices_.size()) {
    return Status::InvalidArgument("verify slice out of range");
  }
  const auto t0 = std::chrono::steady_clock::now();
  MatchStats local;
  std::vector<MatchResult> results;
  const Status st = verifier_.VerifyCancellable(q_, params_, slices_[i], ctx,
                                                &results, &local,
                                                options_.verify);
  local.phase2_ms = MsSince(t0);
  if (!st.ok()) {
    // Partial counters (and the time burned) still reach the caller so an
    // aborted query reports what it actually did.
    if (stats != nullptr) stats->Add(local);
    return st;
  }
  if (ctx.trace != nullptr) {
    // One span per slice; the recording thread becomes the span's worker
    // id, so parallel verify shows up as overlapping lanes in the trace.
    ctx.trace->AddSpan(
        kSpanVerify, t0, std::chrono::steady_clock::now(),
        {{"slice", i},
         {"candidates", static_cast<uint64_t>(slices_[i].num_positions())},
         {"distance_calls", local.distance_calls},
         {"lb_pruned", local.lb_pruned},
         {"constraint_pruned", local.constraint_pruned}});
  }
  if (stats != nullptr) stats->Add(local);
  return results;
}

Result<std::vector<MatchResult>> QueryExecutor::Run(const ExecContext& ctx,
                                                    MatchStats* stats,
                                                    const MatchSink* sink) {
  auto report = [&] {
    if (stats != nullptr) stats->Add(stats_);
  };
  if (Status st = RunPhase1(ctx); !st.ok()) {
    report();
    return st;
  }
  if (slices_.empty()) SliceCandidates(kDefaultSlicePositions);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<MatchResult> results;
  for (size_t i = 0; i < slices_.size(); ++i) {
    MatchStats slice_stats;
    auto part = VerifySlice(i, ctx, &slice_stats);
    // The slice's wall time is folded into the phase-wide figure below.
    slice_stats.phase2_ms = 0.0;
    stats_.Add(slice_stats);
    if (!part.ok()) {
      stats_.phase2_ms += MsSince(t0);
      report();
      return part.status();
    }
    slices_verified_ += 1;
    if (sink != nullptr && *sink) {
      if (!part->empty()) (*sink)(*part);
    } else {
      results.insert(results.end(), part->begin(), part->end());
    }
  }
  stats_.phase2_ms += MsSince(t0);
  report();
  return results;
}

}  // namespace kvmatch
