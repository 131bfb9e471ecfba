#include "coord/shard_link.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace kvmatch {
namespace coord {

namespace {

std::chrono::steady_clock::duration Millis(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

std::string Encode(net::FrameType type, uint64_t id, std::string body) {
  net::Frame frame;
  frame.type = type;
  frame.request_id = id;
  frame.body = std::move(body);
  std::string wire;
  net::EncodeFrame(frame, &wire);
  return wire;
}

Result<sockaddr_in> Resolve(const CoordServer::CoordOptions& options,
                            const ShardEndpoint& endpoint) {
  return options.resolve ? options.resolve(endpoint.host, endpoint.port)
                         : net::ResolveIPv4(endpoint.host, endpoint.port);
}

}  // namespace

CoordServer::ShardLink::ShardLink(CoordServer* server, uint32_t shard)
    : server_(server), shard_(shard) {
  SetAddress(
      Resolve(server_->coord_options_, server_->map_.endpoint(shard_)));
}

void CoordServer::ShardLink::SetAddress(const Result<sockaddr_in>& addr) {
  resolved_ = addr.status();
  if (addr.ok()) addr_ = addr.value();
}

void CoordServer::ShardLink::Reresolve() {
  if (resolving_) return;
  auto answer = std::make_shared<Result<sockaddr_in>>(
      Status::Internal("not resolved"));
  resolving_ = server_->Offload(
      [this, answer] {
        // Blocking thread: reads only what is immutable after
        // construction.
        *answer =
            Resolve(server_->coord_options_, server_->map_.endpoint(shard_));
      },
      [this, answer] {
        resolving_ = false;
        SetAddress(*answer);
      });
}

std::string CoordServer::ShardLink::Describe() const {
  const ShardEndpoint& endpoint = server_->map_.endpoint(shard_);
  return "shard " + std::to_string(shard_) + " (" + endpoint.host + ":" +
         std::to_string(endpoint.port) + ")";
}

uint64_t CoordServer::ShardLink::Call(net::FrameType type, std::string body,
                                      double budget_ms, Reply reply) {
  const auto now = std::chrono::steady_clock::now();
  if (conn_ == nullptr) {
    // While a dial backoff is pending, fail fast instead of re-dialing a
    // known-dead endpoint on every request.
    const Status st =
        now < next_dial_
            ? Status::ResourceExhausted(Describe() +
                                        " in dial backoff after: " +
                                        last_error_.ToString())
            : Dial();
    if (!st.ok()) {
      net::Frame none;
      reply(st, none);
      return 0;
    }
  }
  const uint64_t id = next_id_++;
  double bound_ms = server_->coord_options_.shard_timeout_ms;
  if (budget_ms > 0.0) bound_ms = std::min(bound_ms, budget_ms);
  calls_[id] = PendingCall{std::move(reply), now + Millis(bound_ms)};
  Send(Encode(type, id, std::move(body)));
  return id;
}

void CoordServer::ShardLink::Send(std::string wire) {
  if (connected()) {
    server_->EnqueueRaw(conn_, std::move(wire));
  } else {
    held_.push_back(std::move(wire));
  }
}

void CoordServer::ShardLink::Cancel(uint64_t id) {
  if (calls_.count(id) > 0) Send(Encode(net::FrameType::kCancel, id, ""));
}

Status CoordServer::ShardLink::Dial() {
  if (!resolved_.ok()) {
    Drop(resolved_);
    return resolved_;
  }
  auto conn = server_->Dial(
      addr_, [this](net::Frame frame) { OnFrame(frame); },
      [this](const Status& why) {
        // Our own Drop() clears conn_ before closing; anything else
        // closing the live link (EOF, refused connect, corrupt stream)
        // takes it down here.
        if (conn_ != nullptr) Drop(why);
      });
  if (!conn.ok()) {
    Drop(conn.status());
    return conn.status();
  }
  conn_ = std::move(conn).value();
  // Identity check before first use: a shard started under a different
  // map (or a standalone server at the right address by accident) is
  // refused — routing against it would silently lose series, and an
  // ingest could land on the wrong shard. Requests wait in held_ until
  // it passes; a shard that never answers fails it on the call timeout.
  const uint64_t id = next_id_++;
  calls_[id] = PendingCall{
      [this](const Status& st, net::Frame& frame) { OnIdentity(st, frame); },
      std::chrono::steady_clock::now() +
          Millis(server_->coord_options_.shard_timeout_ms)};
  server_->EnqueueRaw(conn_, Encode(net::FrameType::kShardInfoRequest, id,
                                    ""));
  return Status::OK();
}

void CoordServer::ShardLink::OnIdentity(const Status& status,
                                        net::Frame& frame) {
  Status st = status;
  net::ShardInfo info;
  if (st.ok()) {
    st = frame.type == net::FrameType::kShardInfoResponse
             ? net::DecodeShardInfoBody(frame.body, &info)
         : frame.type == net::FrameType::kError
             ? net::CarriedError(frame)
             : Status::Corruption("unexpected frame type answering "
                                  "SHARDINFO");
  }
  const uint64_t fingerprint = server_->map_.Fingerprint();
  if (st.ok() && server_->coord_options_.verify_shard_identity &&
      (info.map_fingerprint != fingerprint || info.shard_id != shard_)) {
    st = Status::InvalidArgument(
        Describe() + " identifies as shard " + std::to_string(info.shard_id) +
        " fingerprint " + std::to_string(info.map_fingerprint) +
        ", expected shard " + std::to_string(shard_) + " fingerprint " +
        std::to_string(fingerprint));
  }
  if (!st.ok()) {
    // A Drop() already in progress is failing this call: nothing to do.
    if (conn_ != nullptr) Drop(st);
    return;
  }
  connected_.store(true, std::memory_order_relaxed);
  backoff_ms_ = 0.0;
  last_error_ = Status::OK();
  for (std::string& wire : held_) server_->EnqueueRaw(conn_, std::move(wire));
  held_.clear();
}

void CoordServer::ShardLink::OnFrame(net::Frame& frame) {
  if (frame.type == net::FrameType::kError && frame.request_id == 0) {
    // Stream-level error: the shard could not attribute a failure to any
    // request, so the link's framing is no longer trusted.
    Drop(net::CarriedError(frame));
    return;
  }
  auto it = calls_.find(frame.request_id);
  if (it == calls_.end()) return;  // late answer to an expired call
  if (frame.type == net::FrameType::kMatchResponsePart) {
    it->second.reply(Status::OK(), frame);
    return;
  }
  // Retire before replying: the reply may issue new calls.
  const Reply reply = std::move(it->second.reply);
  calls_.erase(it);
  reply(Status::OK(), frame);
}

void CoordServer::ShardLink::Expire(std::chrono::steady_clock::time_point now) {
  std::vector<uint64_t> expired;
  for (const auto& [id, call] : calls_) {
    if (call.deadline <= now) expired.push_back(id);
  }
  for (uint64_t id : expired) {
    // An earlier expiry (the identity check) may have dropped the link.
    auto it = calls_.find(id);
    if (it == calls_.end()) continue;
    const Reply reply = std::move(it->second.reply);
    // A slow shard is not a dead one: keep the link, tell the shard to
    // stop working on the call, and drop its answer if it still comes.
    Send(Encode(net::FrameType::kCancel, id, ""));
    calls_.erase(it);
    net::Frame none;
    reply(Status::DeadlineExceeded(Describe() + " did not answer in time"),
          none);
  }
}

void CoordServer::ShardLink::Drop(const Status& why) {
  const std::shared_ptr<Connection> conn = std::move(conn_);
  conn_ = nullptr;
  held_.clear();
  connected_.store(false, std::memory_order_relaxed);
  backoff_ms_ = backoff_ms_ <= 0.0
                    ? server_->coord_options_.backoff_initial_ms
                    : std::min(backoff_ms_ * 2.0,
                               server_->coord_options_.backoff_max_ms);
  next_dial_ = std::chrono::steady_clock::now() + Millis(backoff_ms_);
  last_error_ = why;
  // The host may have failed to resolve, or moved: look it up again
  // before the backoff lets the next dial go.
  Reresolve();
  if (conn != nullptr) server_->CloseConnection(conn, why);
  std::map<uint64_t, PendingCall> failed;
  failed.swap(calls_);
  for (auto& [id, call] : failed) {
    net::Frame none;
    call.reply(why, none);
  }
}

}  // namespace coord
}  // namespace kvmatch
