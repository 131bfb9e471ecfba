#include "coord/coord_server.h"

#include <algorithm>
#include <utility>

#include "coord/shard_link.h"
#include "match/top_k.h"
#include "service/trace.h"

namespace kvmatch {
namespace coord {

namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string EncodeWire(const net::Frame& frame) {
  std::string wire;
  net::EncodeFrame(frame, &wire);
  return wire;
}

/// The directory a shard's LIST answer carries.
Status DecodeListAnswer(const net::Frame& frame,
                        std::vector<net::SeriesInfo>* out) {
  if (frame.type == net::FrameType::kError) return net::CarriedError(frame);
  if (frame.type != net::FrameType::kListResponse) {
    return Status::Corruption("unexpected frame type answering LIST");
  }
  return net::DecodeListResponseBody(frame.body, out);
}

}  // namespace

/// One pattern query in flight: LIST every shard, pipeline the owned
/// series' sub-queries, merge when the last shard settles.
struct CoordServer::PatternRun {
  std::shared_ptr<Connection> conn;
  uint64_t id = 0;
  net::WireQueryRequest request;
  std::shared_ptr<CancelToken> token;
  std::chrono::steady_clock::time_point t0;
  std::shared_ptr<QueryTrace> trace;

  struct Shard {
    Status status = Status::OK();
    std::vector<net::FederatedSeriesMatches> groups;
    MatchStats stats;
    std::chrono::steady_clock::time_point start{}, end{};
    size_t waiting = 0;  // sub-queries sent and not yet answered
  };
  std::vector<Shard> shards;
  size_t unsettled = 0;  // shards still listing or answering
};

net::Server::Options CoordServer::WithCoordinatorIdentity(
    net::Server::Options options, const ShardMap& map) {
  options.shard_id = net::kCoordinatorShardId;
  options.num_shards = static_cast<uint32_t>(map.num_shards());
  options.shard_map_fingerprint = map.Fingerprint();
  return options;
}

CoordServer::CoordServer(ShardMap map, CoordOptions options)
    : internal::CoordServerState(),
      net::Server(&this->stats, WithCoordinatorIdentity(options.server, map)),
      map_(std::move(map)),
      coord_options_(std::move(options)) {
  for (uint32_t s = 0; s < map_.num_shards(); ++s) {
    links_.push_back(std::make_unique<ShardLink>(this, s));
  }
}

CoordServer::~CoordServer() {
  // Stop() here, not in the base destructor: the drain completes every
  // federated request, and those run on links_, which die with this
  // subclass.
  Stop();
}

bool CoordServer::shard_connected(uint32_t s) const {
  return links_[s]->connected();
}

std::string CoordServer::StatsText() const {
  std::string out = StatsToText(stats.Snapshot());
  for (uint32_t s = 0; s < map_.num_shards(); ++s) {
    out += "kvmatch_coord_shard_connected{shard=\"" + std::to_string(s) +
           "\"} " + (shard_connected(s) ? "1" : "0") + "\n";
  }
  return out;
}

void CoordServer::OnLoopTick(std::chrono::steady_clock::time_point now) {
  for (auto& link : links_) link->Expire(now);
}

void CoordServer::CancelRequest(const std::shared_ptr<Connection>& conn,
                                uint64_t id, CancelToken& token) {
  Server::CancelRequest(conn, id, token);
  // Every outstanding sub-query gets its kCancel now; the shards answer
  // Cancelled through the normal response path.
  if (auto it = subs_.find(&token); it != subs_.end()) {
    for (const auto& [s, sub] : it->second) links_[s]->Cancel(sub);
  }
}

void CoordServer::HandleQuery(
    const std::shared_ptr<Connection>& conn, uint64_t id,
    std::string_view body, std::chrono::steady_clock::time_point received) {
  net::WireQueryRequest request;
  if (Status st = net::DecodeQueryRequestBody(body, &request); !st.ok()) {
    registry()->RecordProtocolError();
    SendError(conn, id, st);
    return;
  }
  const bool pattern = IsGlobPattern(request.request.series);
  if (pattern && request.by_reference) {
    SendError(conn, id,
              Status::InvalidArgument(
                  "pattern queries require literal query values: a "
                  "by-reference query has no single owner shard to "
                  "resolve the reference"));
    return;
  }
  // Same booking discipline as the base server: token registered before
  // any work, so a kCancel can never race ahead of its target.
  auto token = std::make_shared<CancelToken>();
  if (!RegisterRequest(conn, id, token)) {
    registry()->RecordProtocolError();
    SendError(conn, id,
              Status::InvalidArgument("request id " + std::to_string(id) +
                                      " is already in flight"));
    return;
  }
  if (coord_options_.max_queue > 0 &&
      in_flight_ >= coord_options_.max_queue) {
    // Shed load with the booking retired, same contract as the service.
    registry()->RecordRejected();
    QueryResponse shed;
    shed.status = Status::ResourceExhausted(
        "coordinator has " + std::to_string(in_flight_) +
        " federated queries in flight");
    CompleteRequest(conn, id,
                    EncodeResponseRun(id, std::move(shed), false));
    return;
  }
  ++in_flight_;
  registry()->RecordQueryStarted();
  // Re-anchor the deadline budget at this hop: wire time is charged,
  // never granted twice.
  request.request.timeout_ms =
      net::RemainingBudgetMs(request.request.timeout_ms, received);
  if (!pattern) {
    ForwardExact(conn, id, request, token);
    return;
  }
  auto run = std::make_shared<PatternRun>();
  run->conn = conn;
  run->id = id;
  run->request = std::move(request);
  run->token = token;
  StartPattern(run);
}

void CoordServer::Finish(const std::shared_ptr<Connection>& conn,
                         uint64_t id, const CancelToken* token,
                         const std::string& series, double latency_ms,
                         const MatchStats& stats, const Status& status,
                         std::vector<std::string> wires) {
  registry()->RecordQuery(series, latency_ms, stats, status.ok());
  if (status.IsCancelled()) registry()->RecordCancelled(series);
  registry()->RecordQueryFinished();
  subs_.erase(token);
  --in_flight_;
  CompleteRequest(conn, id, std::move(wires));
}

void CoordServer::ForwardExact(const std::shared_ptr<Connection>& conn,
                               uint64_t id,
                               const net::WireQueryRequest& request,
                               const std::shared_ptr<CancelToken>& token) {
  // Forwarded verbatim (by-reference included — the referenced series
  // lives on the owner), and the owner's answer frames pass through as
  // they arrive: the client sees exactly the shard's own answer run.
  const std::string series = request.request.series;
  const uint32_t owner = map_.OwnerOf(series);
  std::string body;
  net::EncodeQueryRequestBody(request, &body);
  const uint64_t sub = links_[owner]->Call(
      net::FrameType::kQueryRequest, std::move(body),
      request.request.timeout_ms,
      [this, conn, id, token, series](const Status& st, net::Frame& frame) {
        if (!st.ok()) {
          QueryResponse failed;
          failed.status = st;
          Finish(conn, id, token.get(), series, 0.0, MatchStats(), st,
                 EncodeResponseRun(id, std::move(failed), false));
          return;
        }
        frame.request_id = id;
        std::string wire = EncodeWire(frame);
        if (frame.type == net::FrameType::kMatchResponsePart) {
          EnqueueRaw(conn, std::move(wire));
          return;
        }
        auto answer = net::DecodeQueryAnswer(frame, {});
        const QueryResponse response =
            answer.ok() ? std::move(answer).value() : QueryResponse();
        const Status status = answer.ok() ? response.status : answer.status();
        Finish(conn, id, token.get(), series, response.latency_ms,
               response.stats, status, {std::move(wire)});
      });
  if (sub != 0) subs_[token.get()].push_back({owner, sub});
}

void CoordServer::StartPattern(const std::shared_ptr<PatternRun>& run) {
  run->t0 = std::chrono::steady_clock::now();
  if (run->request.request.collect_trace) {
    run->trace = std::make_shared<QueryTrace>(run->t0);
  }
  run->shards.resize(map_.num_shards());
  run->unsettled = map_.num_shards();
  for (uint32_t s = 0; s < map_.num_shards(); ++s) {
    run->shards[s].start = std::chrono::steady_clock::now();
    links_[s]->Call(net::FrameType::kListRequest, "",
                    run->request.request.timeout_ms,
                    [this, run, s](const Status& st, net::Frame& frame) {
                      OnPatternListed(run, s, st, frame);
                    });
  }
}

void CoordServer::OnPatternListed(const std::shared_ptr<PatternRun>& run,
                                  uint32_t s, const Status& status,
                                  const net::Frame& frame) {
  PatternRun::Shard& shard = run->shards[s];
  const auto listed = std::chrono::steady_clock::now();
  if (run->trace != nullptr) {
    TraceSpan span;
    span.name = "shard" + std::to_string(s) + "/list";
    span.start_ms = MsBetween(run->t0, shard.start);
    span.dur_ms = MsBetween(shard.start, listed);
    span.worker = s;
    run->trace->AddSpanAt(std::move(span));
  }
  std::vector<net::SeriesInfo> listing;
  shard.status = status.ok() ? DecodeListAnswer(frame, &listing) : status;
  if (!shard.status.ok()) {
    SettleShard(run, s);
    return;
  }
  // Plan against this shard's own directory: only series it owns under
  // the current map (a leftover replica from a reshard must not produce
  // the same series from two shards).
  const QueryRequest& request = run->request.request;
  std::vector<std::string> names;
  for (const auto& info : listing) {
    if (GlobMatch(request.series, info.name) &&
        map_.OwnerOf(info.name) == s) {
      names.push_back(info.name);
    }
  }
  if (names.empty()) {
    SettleShard(run, s);
    return;
  }
  // The budget that is left after planning is what the shard gets.
  const double remaining = net::RemainingBudgetMs(request.timeout_ms, run->t0);
  if (run->token->cancelled()) {
    shard.status = Status::Cancelled("cancelled before shard " +
                                     std::to_string(s) + " was queried");
  } else if (request.timeout_ms > 0.0 && remaining <= 0.0) {
    shard.status = Status::DeadlineExceeded(
        "deadline spent before shard " + std::to_string(s) +
        " was queried");
  }
  if (!shard.status.ok()) {
    SettleShard(run, s);
    return;
  }
  shard.waiting = names.size();
  const auto sent = std::chrono::steady_clock::now();
  for (const auto& name : names) {
    net::WireQueryRequest sub = run->request;
    sub.request.series = name;
    sub.request.timeout_ms = remaining;
    std::string body;
    net::EncodeQueryRequestBody(sub, &body);
    // Parts accumulate until the final frame (or a transport failure).
    auto parts = std::make_shared<std::vector<MatchResult>>();
    auto bad_part = std::make_shared<Status>(Status::OK());
    const uint64_t sub_id = links_[s]->Call(
        net::FrameType::kQueryRequest, std::move(body), remaining,
        [this, run, s, name, sent, parts, bad_part](const Status& st,
                                                    net::Frame& frame) {
          if (st.ok() && frame.type == net::FrameType::kMatchResponsePart) {
            if (Status part = net::DecodeMatchPartBody(frame.body,
                                                       parts.get());
                !part.ok() && bad_part->ok()) {
              *bad_part = part;
            }
            return;
          }
          QueryResponse answer;
          if (!st.ok() || !bad_part->ok()) {
            answer.status = st.ok() ? *bad_part : st;
          } else if (auto decoded =
                         net::DecodeQueryAnswer(frame, std::move(*parts));
                     decoded.ok()) {
            answer = std::move(decoded).value();
          } else {
            answer.status = decoded.status();
          }
          OnPatternAnswer(run, s, name, sent, std::move(answer));
        });
    if (sub_id != 0) subs_[run->token.get()].push_back({s, sub_id});
  }
}

void CoordServer::OnPatternAnswer(const std::shared_ptr<PatternRun>& run,
                                  uint32_t s, const std::string& series,
                                  std::chrono::steady_clock::time_point sent,
                                  QueryResponse answer) {
  PatternRun::Shard& shard = run->shards[s];
  shard.stats.Add(answer.stats);
  if (run->trace != nullptr && answer.trace != nullptr) {
    // Shard spans are re-based onto the coordinator timeline at the
    // instant this sub-query was sent, and namespaced per shard.
    const double base = MsBetween(run->t0, sent);
    for (TraceSpan span : answer.trace->spans()) {
      span.name = "shard" + std::to_string(s) + "/" + series + "/" + span.name;
      span.start_ms += base;
      run->trace->AddSpanAt(std::move(span));
    }
  }
  if (answer.status.ok()) {
    shard.groups.push_back(
        net::FederatedSeriesMatches{series, std::move(answer.matches)});
  } else if (shard.status.ok()) {
    // One failed sub-query (cancelled, deadline, shard-side error)
    // degrades this shard to partial; the successful groups are still
    // delivered.
    shard.status = answer.status;
  }
  if (--shard.waiting == 0) SettleShard(run, s);
}

void CoordServer::SettleShard(const std::shared_ptr<PatternRun>& run,
                              uint32_t s) {
  run->shards[s].end = std::chrono::steady_clock::now();
  if (--run->unsettled == 0) FinishPattern(run);
}

void CoordServer::FinishPattern(const std::shared_ptr<PatternRun>& run) {
  const auto merge_t0 = std::chrono::steady_clock::now();
  net::FederatedResponse fed;
  fed.shards_total = static_cast<uint32_t>(map_.num_shards());
  std::vector<net::FederatedSeriesMatches> groups;
  for (uint32_t s = 0; s < run->shards.size(); ++s) {
    PatternRun::Shard& shard = run->shards[s];
    if (shard.status.ok()) {
      fed.shards_ok += 1;
    } else {
      fed.shard_errors.emplace_back(s, shard.status);
    }
    for (auto& g : shard.groups) groups.push_back(std::move(g));
    fed.stats.Add(shard.stats);
    if (run->trace != nullptr) {
      TraceSpan span;
      span.name = "shard" + std::to_string(s);
      span.start_ms = MsBetween(run->t0, shard.start);
      span.dur_ms = MsBetween(shard.start, shard.end);
      span.worker = s;
      run->trace->AddSpanAt(std::move(span));
    }
  }
  std::sort(groups.begin(), groups.end(),
            [](const net::FederatedSeriesMatches& a,
               const net::FederatedSeriesMatches& b) {
              return a.series < b.series;
            });
  const size_t top_k = run->request.request.top_k;
  if (top_k > 0 && !groups.empty()) {
    // Global top-k: every shard over-delivered its local best k; one
    // bounded heap under (distance, series, offset) picks the true
    // global winners, then the flat ranking folds back into per-series
    // groups (name-sorted; within a series the heap's output order is
    // already (distance, offset)).
    std::vector<std::vector<SeriesMatch>> sources;
    sources.reserve(groups.size());
    for (auto& g : groups) {
      std::vector<SeriesMatch> src;
      src.reserve(g.matches.size());
      for (const MatchResult& m : g.matches) {
        src.push_back(SeriesMatch{g.series, m});
      }
      sources.push_back(std::move(src));
    }
    std::map<std::string, std::vector<MatchResult>> regrouped;
    for (SeriesMatch& winner : MergeTopK(std::move(sources), top_k)) {
      regrouped[winner.series].push_back(winner.match);
    }
    groups.clear();
    for (auto& [series, matches] : regrouped) {
      groups.push_back(
          net::FederatedSeriesMatches{series, std::move(matches)});
    }
  }
  fed.groups = std::move(groups);
  if (fed.shards_ok == 0 && !fed.shard_errors.empty()) {
    fed.status = fed.shard_errors.front().second;
  }
  const auto done = std::chrono::steady_clock::now();
  if (run->trace != nullptr) {
    run->trace->AddSpan("merge", merge_t0, done);
    fed.trace = run->trace;
  }
  fed.latency_ms = MsBetween(run->t0, done);
  net::Frame frame;
  frame.type = net::FrameType::kFederatedResponse;
  frame.request_id = run->id;
  net::EncodeFederatedResponseBody(fed, &frame.body);
  Finish(run->conn, run->id, run->token.get(), run->request.request.series,
         fed.latency_ms, fed.stats, fed.status, {EncodeWire(frame)});
}

void CoordServer::HandleIngest(const std::shared_ptr<Connection>& conn,
                               net::FrameType type, uint64_t id,
                               std::string_view body) {
  net::WireIngestRequest request;
  if (Status st = net::DecodeIngestRequestBody(body, &request); !st.ok()) {
    registry()->RecordProtocolError();
    SendError(conn, id, st);
    return;
  }
  // Forwarded verbatim to the owner shard, with this connection's frame
  // processing suspended until the shard answers: its pipelined requests
  // run in order (a query after an APPEND sees the appended points),
  // while every other connection keeps flowing.
  Suspend(conn);
  links_[map_.OwnerOf(request.series)]->Call(
      type, std::string(body), 0.0,
      [this, conn, id](const Status& st, net::Frame& frame) {
        if (st.ok()) {
          frame.request_id = id;
          EnqueueRaw(conn, EncodeWire(frame));
        } else {
          SendError(conn, id, st);
        }
        Resume(conn);
      });
}

void CoordServer::HandleList(const std::shared_ptr<Connection>& conn,
                             uint64_t id) {
  // The union of every shard's directory, sorted by name. A series listed
  // by several shards (mid-reshard leftovers) appears once — the owner's
  // copy wins. Unreachable shards are skipped (best-effort directory;
  // queries against their series answer typed errors). Suspended like
  // ingest, so LIST after a pipelined CREATE sees the new series.
  struct Union {
    std::map<std::string, net::SeriesInfo> best;
    Status first_error = Status::OK();
    size_t reachable = 0;
    size_t waiting = 0;
  };
  auto all = std::make_shared<Union>();
  all->waiting = map_.num_shards();
  Suspend(conn);
  for (uint32_t s = 0; s < map_.num_shards(); ++s) {
    links_[s]->Call(
        net::FrameType::kListRequest, "", 0.0,
        [this, conn, id, all, s](const Status& st, net::Frame& frame) {
          std::vector<net::SeriesInfo> listing;
          const Status listed = st.ok() ? DecodeListAnswer(frame, &listing)
                                        : st;
          if (!listed.ok()) {
            if (all->first_error.ok()) all->first_error = listed;
          } else {
            ++all->reachable;
          }
          for (const auto& info : listing) {
            // The owner's copy replaces any other; a copy from another
            // shard only fills a gap.
            if (map_.OwnerOf(info.name) == s || !all->best.count(info.name)) {
              all->best[info.name] = info;
            }
          }
          if (--all->waiting > 0) return;
          if (all->reachable == 0 && !all->first_error.ok()) {
            SendError(conn, id, all->first_error);
          } else {
            std::vector<net::SeriesInfo> series;
            series.reserve(all->best.size());
            for (auto& [name, info] : all->best) series.push_back(info);
            net::Frame response;
            response.type = net::FrameType::kListResponse;
            response.request_id = id;
            net::EncodeListResponseBody(series, &response.body);
            Enqueue(conn, response);
          }
          Resume(conn);
        });
  }
}

}  // namespace coord
}  // namespace kvmatch
