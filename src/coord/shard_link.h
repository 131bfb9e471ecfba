// One coordinator-side link to one shard: a nonblocking, pipelined
// outbound connection on the coordinator's event loop, with sub-request
// id → continuation dispatch, dial backoff, the kShardInfo identity check
// and per-call timeouts expired on the loop tick. Loop thread only
// (connected() excepted). Private to the coordinator.
#ifndef KVMATCH_COORD_SHARD_LINK_H_
#define KVMATCH_COORD_SHARD_LINK_H_

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coord/coord_server.h"
#include "net/protocol.h"

namespace kvmatch {
namespace coord {

class CoordServer::ShardLink {
 public:
  /// Sees every frame answering one call, in arrival order: any
  /// kMatchResponsePart parts, then the final frame. When the call fails
  /// in transport instead — link down, dial backoff, identity refused,
  /// no answer within its budget — it sees one non-OK status (with an
  /// empty frame) in place of the final frame.
  using Reply = std::function<void(const Status&, net::Frame&)>;

  /// Resolves the shard's host (blocking, so on the constructing
  /// thread, never on the loop). While the host does not resolve, every
  /// dial fails with the resolver's error; each failure re-resolves on
  /// the server's blocking helper (see Drop), so a later redial recovers.
  ShardLink(CoordServer* server, uint32_t shard);

  ShardLink(const ShardLink&) = delete;
  ShardLink& operator=(const ShardLink&) = delete;

  /// Sends one request frame, dialing first when the link is down, and
  /// returns its sub-request id. Frames wait for the identity check
  /// before they leave. The call fails after the shard timeout, or after
  /// `budget_ms` when that is positive and smaller. On a failure known at
  /// once (dial backoff, unresolvable host) `reply` runs before Call
  /// returns, and Call returns 0.
  uint64_t Call(net::FrameType type, std::string body, double budget_ms,
                Reply reply);
  /// Sends kCancel for sub-request `id` if it is still outstanding.
  void Cancel(uint64_t id);
  /// Fails every call whose budget ran out by `now`.
  void Expire(std::chrono::steady_clock::time_point now);

  bool connected() const { return connected_.load(std::memory_order_relaxed); }

 private:
  struct PendingCall {
    Reply reply;
    std::chrono::steady_clock::time_point deadline;
  };

  Status Dial();
  void OnFrame(net::Frame& frame);
  void OnIdentity(const Status& status, net::Frame& frame);
  /// Takes the link down: closes the connection, arms the redial
  /// backoff, starts a re-resolve of the host and fails every
  /// outstanding call with `why`.
  void Drop(const Status& why);
  /// Resolves the shard's host on the server's blocking helper and
  /// installs the answer on the loop; at most one at a time.
  void Reresolve();
  /// Records a resolver answer as the address the next dial uses.
  void SetAddress(const Result<sockaddr_in>& addr);
  /// Queues `wire` behind the identity check, or sends it once passed.
  void Send(std::string wire);
  std::string Describe() const;

  CoordServer* const server_;
  const uint32_t shard_;
  sockaddr_in addr_{};      // the host's last resolved address
  Status resolved_;         // why addr_ is unusable, if it is
  bool resolving_ = false;  // a Reresolve() is in flight

  std::shared_ptr<Connection> conn_;  // null while the link is down
  std::vector<std::string> held_;     // frames waiting for the check
  std::map<uint64_t, PendingCall> calls_;
  uint64_t next_id_ = 1;
  double backoff_ms_ = 0.0;  // 0 → the next dial is immediate
  std::chrono::steady_clock::time_point next_dial_{};
  Status last_error_ = Status::OK();
  /// The identity check passed on conn_ (written on the loop only).
  std::atomic<bool> connected_{false};
};

}  // namespace coord
}  // namespace kvmatch

#endif  // KVMATCH_COORD_SHARD_LINK_H_
