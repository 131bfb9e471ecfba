// Scatter-gather coordinator over a static ShardMap, served by the same
// reactor as a shard: the same wire protocol, framing, HTTP sniffing and
// graceful drain as net::Server, with every request frame answered by
// federation instead of a local QueryService.
//
// Everything runs on the server's one event loop. Each shard has one
// nonblocking, pipelined link (ShardLink, an outbound Server::Dial
// connection): sub-requests leave through the link's outbox and every
// answer frame is dispatched to the continuation registered under its
// sub-request id, so any number of federated requests share a shard
// connection at once and no thread ever waits on a shard.
//
// Routing: an exact series name goes to its owner shard, and the shard's
// answer frames (kMatchResponsePart chunks + the final kQueryResponse, or
// a typed kError) are forwarded as they arrive, re-tagged with the
// client's request id — byte-identical to asking that shard directly. A
// series PATTERN ('*'/'?') LISTs every shard, keeps the series each shard
// owns under the map, pipelines one sub-query per series, and merges into
// one kFederatedResponse frame (Client::FederatedQuery):
//   - ε-threshold: per-series groups sorted by name, each group's
//     matches in ascending offset order (the executor's slice-concat
//     contract, carried across the wire unchanged);
//   - top-k: one global bounded heap under the total order
//     (distance, series, offset), so the federated answer is
//     deterministic and identical to a single node holding every series.
// A dead, unreachable, or too-slow shard never hangs or fails the whole
// pattern query: it is recorded per shard in the FederatedResponse and
// shards_ok < shards_total marks the result typed-partial.
//
// Ingest and LIST are forwarded on the links with the client
// connection's frame processing suspended until the answer, so a
// pipelined APPEND followed by a query sees the appended points.
//
// Cancellation/deadlines: a kCancel, a client disconnect or the drain
// watchdog sends kCancel for every outstanding sub-request of the
// federated request at once. Deadline budgets travel as REMAINING
// milliseconds and shrink at every hop.
#ifndef KVMATCH_COORD_COORD_SERVER_H_
#define KVMATCH_COORD_COORD_SERVER_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coord/shard_map.h"
#include "net/server.h"
#include "service/service_stats.h"

namespace kvmatch {
namespace coord {

namespace internal {
/// Holds the pieces the net::Server base needs pointers to. A private
/// base class, so it is fully constructed before the Server base (and
/// destroyed after it) — member fields of CoordServer itself would
/// construct too late.
struct CoordServerState {
  StatsRegistry stats;
};
}  // namespace internal

class CoordServer : private internal::CoordServerState,
                    public net::Server {
 public:
  struct CoordOptions {
    net::Server::Options server;
    /// Upper bound on any one shard round trip (connect + identity
    /// check, sub-query, LIST, ingest). A call unanswered this long fails
    /// DeadlineExceeded; its late answer is dropped and the link stays.
    double shard_timeout_ms = 10'000.0;
    /// Redial backoff after a failed dial or a lost link: doubles from
    /// initial to max; a successful identity check resets it.
    double backoff_initial_ms = 100.0;
    double backoff_max_ms = 3'200.0;
    /// Verify each shard's kShardInfo identity (shard id + map
    /// fingerprint) on connect. Disable only for in-process clusters
    /// whose shards bind ephemeral ports — their identity cannot be in
    /// the map before they start.
    bool verify_shard_identity = true;
    /// Federated queries in flight at once; past it a query is answered
    /// ResourceExhausted (same shedding contract as QueryService).
    /// 0 → unbounded.
    size_t max_queue = 256;
    /// Resolves a shard's host; empty → net::ResolveIPv4. Called when
    /// the coordinator is built and, off the loop, after every lost or
    /// failed dial, so a shard whose name did not resolve at startup, or
    /// that comes back at a new address, is reached on a later redial.
    std::function<Result<sockaddr_in>(const std::string& host, int port)>
        resolve;
  };

  CoordServer(ShardMap map, CoordOptions options);
  ~CoordServer() override;  // must Stop() before members die

  /// Whether shard `s`'s link is up and passed its identity check.
  bool shard_connected(uint32_t s) const;

  /// The coordinator's own counters (federated queries, cancellations,
  /// protocol errors) — distinct from any shard's registry.
  StatsRegistry* stats_registry() { return &stats; }

  std::string StatsText() const override;

 protected:
  void HandleQuery(const std::shared_ptr<Connection>& conn, uint64_t id,
                   std::string_view body,
                   std::chrono::steady_clock::time_point received) override;
  void HandleIngest(const std::shared_ptr<Connection>& conn,
                    net::FrameType type, uint64_t id,
                    std::string_view body) override;
  void HandleList(const std::shared_ptr<Connection>& conn,
                  uint64_t id) override;
  void CancelRequest(const std::shared_ptr<Connection>& conn, uint64_t id,
                     CancelToken& token) override;
  void OnLoopTick(std::chrono::steady_clock::time_point now) override;

 private:
  class ShardLink;
  struct PatternRun;

  static net::Server::Options WithCoordinatorIdentity(
      net::Server::Options options, const ShardMap& map);

  void ForwardExact(const std::shared_ptr<Connection>& conn, uint64_t id,
                    const net::WireQueryRequest& request,
                    const std::shared_ptr<CancelToken>& token);
  void StartPattern(const std::shared_ptr<PatternRun>& run);
  void OnPatternListed(const std::shared_ptr<PatternRun>& run, uint32_t s,
                       const Status& status, const net::Frame& frame);
  void OnPatternAnswer(const std::shared_ptr<PatternRun>& run, uint32_t s,
                       const std::string& series,
                       std::chrono::steady_clock::time_point sent,
                       QueryResponse answer);
  void SettleShard(const std::shared_ptr<PatternRun>& run, uint32_t s);
  void FinishPattern(const std::shared_ptr<PatternRun>& run);
  /// Records the query and retires the federated request with its
  /// answer frames.
  void Finish(const std::shared_ptr<Connection>& conn, uint64_t id,
              const CancelToken* token, const std::string& series,
              double latency_ms, const MatchStats& stats,
              const Status& status, std::vector<std::string> wires);

  const ShardMap map_;
  const CoordOptions coord_options_;
  std::vector<std::unique_ptr<ShardLink>> links_;  // one per shard

  // ---- loop-thread-only state ----
  size_t in_flight_ = 0;  // federated queries admitted, not yet answered
  /// (shard, sub-request id) of every sub-query sent for a federated
  /// request, keyed by its cancel token — what a cancel fans out to.
  std::map<const CancelToken*, std::vector<std::pair<uint32_t, uint64_t>>>
      subs_;
};

}  // namespace coord
}  // namespace kvmatch

#endif  // KVMATCH_COORD_COORD_SERVER_H_
