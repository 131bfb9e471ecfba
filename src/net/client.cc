#include "net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace kvmatch {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                int port) {
  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* resolved = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &resolved) != 0 ||
      resolved == nullptr) {
    return Status::InvalidArgument("cannot resolve " + host);
  }
  int fd = -1;
  Status last = Status::IOError("no addresses for " + host);
  for (struct addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, 0);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = Errno("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (fd < 0) return last;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Client>(new Client(fd));
}

Client::Client(int fd) : fd_(fd) {}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<uint64_t> Client::SendFrame(FrameType type, std::string body) {
  Frame frame;
  frame.type = type;
  frame.request_id = next_id_++;
  frame.body = std::move(body);
  std::string wire;
  EncodeFrame(frame, &wire);
  KVMATCH_RETURN_NOT_OK(WriteAll(fd_, wire));
  return frame.request_id;
}

Result<uint64_t> Client::SendRequest(const QueryRequest& request) {
  WireQueryRequest wire_request;
  wire_request.request = request;
  return SendRequest(wire_request);
}

Result<uint64_t> Client::SendRequest(const WireQueryRequest& request) {
  std::string body;
  EncodeQueryRequestBody(request, &body);
  return SendFrame(FrameType::kQueryRequest, std::move(body));
}

Result<Frame> Client::WaitFrame(uint64_t id) {
  if (auto it = parked_.find(id); it != parked_.end()) {
    Frame frame = std::move(it->second);
    parked_.erase(it);
    return frame;
  }
  char buf[64 * 1024];
  for (;;) {
    Frame frame;
    Status error;
    const FrameDecoder::Event event = decoder_.Next(&frame, &error);
    if (event == FrameDecoder::Event::kBadFrame ||
        event == FrameDecoder::Event::kFatal) {
      return Status::Corruption("response stream: " + error.message());
    }
    if (event == FrameDecoder::Event::kFrame) {
      if (frame.type == FrameType::kError && frame.request_id == 0) {
        // Stream-level error from the server (it could not attribute the
        // failure to a request we could match).
        return CarriedError(frame);
      }
      if (frame.type == FrameType::kMatchResponsePart) {
        // A streamed chunk, never a "final" frame: accumulate it for its
        // request (whether or not that is the id being waited on) and
        // keep reading.
        if (Status st = DecodeMatchPartBody(
                frame.body, &parked_parts_[frame.request_id]);
            !st.ok()) {
          return Status::Corruption("response stream: " + st.message());
        }
        continue;
      }
      // A final frame. Terminal errors never carry matches, so any
      // chunks streamed before the failure are dead weight — erase them
      // now instead of waiting for a WaitResponse that an abandoning
      // caller (cancel-and-move-on) will never make.
      if (frame.type == FrameType::kError) {
        parked_parts_.erase(frame.request_id);
      }
      if (frame.request_id == id) return frame;
      parked_[frame.request_id] = std::move(frame);
      continue;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) return Status::IOError("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

Result<QueryResponse> Client::WaitResponse(uint64_t id) {
  auto frame = WaitFrame(id);
  if (!frame.ok()) return frame.status();
  // The final frame is here: consume the accumulated stream chunks.
  std::vector<MatchResult> parts;
  if (auto it = parked_parts_.find(id); it != parked_parts_.end()) {
    parts = std::move(it->second);
    parked_parts_.erase(it);
  }
  return DecodeQueryAnswer(*frame, std::move(parts));
}

Status Client::Cancel(uint64_t id) {
  Frame frame;
  frame.type = FrameType::kCancel;
  frame.request_id = id;  // targets the query with this id, not a new one
  std::string wire;
  EncodeFrame(frame, &wire);
  return WriteAll(fd_, wire);
}

Result<QueryResponse> Client::Query(const QueryRequest& request) {
  auto id = SendRequest(request);
  if (!id.ok()) return id.status();
  return WaitResponse(*id);
}

Result<IngestAck> Client::IngestRoundTrip(FrameType type,
                                          const std::string& name,
                                          std::span<const double> values) {
  WireIngestRequest request;
  request.series = name;
  request.values.assign(values.begin(), values.end());
  std::string body;
  EncodeIngestRequestBody(request, &body);
  auto id = SendFrame(type, std::move(body));
  if (!id.ok()) return id.status();
  auto frame = WaitFrame(*id);
  if (!frame.ok()) return frame.status();
  if (frame->type == FrameType::kError) return CarriedError(*frame);
  if (frame->type != FrameType::kIngestResponse) {
    return Status::Corruption("unexpected frame type answering ingest");
  }
  IngestAck ack;
  KVMATCH_RETURN_NOT_OK(DecodeIngestResponseBody(frame->body, &ack));
  return ack;
}

Result<IngestAck> Client::CreateSeries(const std::string& name,
                                       std::span<const double> values) {
  return IngestRoundTrip(FrameType::kCreateRequest, name, values);
}

Result<IngestAck> Client::AppendSeries(const std::string& name,
                                       std::span<const double> values) {
  return IngestRoundTrip(FrameType::kAppendRequest, name, values);
}

Status Client::DropSeries(const std::string& name) {
  auto ack = IngestRoundTrip(FrameType::kDropRequest, name, {});
  return ack.status();
}

Result<std::string> Client::StatsText() {
  auto id = SendFrame(FrameType::kStatsRequest, "");
  if (!id.ok()) return id.status();
  auto frame = WaitFrame(*id);
  if (!frame.ok()) return frame.status();
  if (frame->type == FrameType::kError) return CarriedError(*frame);
  if (frame->type != FrameType::kStatsResponse) {
    return Status::Corruption("unexpected frame type answering STATS");
  }
  return std::move(frame->body);
}

Result<std::vector<SeriesInfo>> Client::ListSeries() {
  auto id = SendFrame(FrameType::kListRequest, "");
  if (!id.ok()) return id.status();
  auto frame = WaitFrame(*id);
  if (!frame.ok()) return frame.status();
  if (frame->type == FrameType::kError) return CarriedError(*frame);
  if (frame->type != FrameType::kListResponse) {
    return Status::Corruption("unexpected frame type answering LIST");
  }
  std::vector<SeriesInfo> series;
  KVMATCH_RETURN_NOT_OK(DecodeListResponseBody(frame->body, &series));
  return series;
}

Result<ShardInfo> Client::GetShardInfo() {
  auto id = SendFrame(FrameType::kShardInfoRequest, "");
  if (!id.ok()) return id.status();
  auto frame = WaitFrame(*id);
  if (!frame.ok()) return frame.status();
  if (frame->type == FrameType::kError) return CarriedError(*frame);
  if (frame->type != FrameType::kShardInfoResponse) {
    return Status::Corruption("unexpected frame type answering SHARDINFO");
  }
  ShardInfo info;
  KVMATCH_RETURN_NOT_OK(DecodeShardInfoBody(frame->body, &info));
  return info;
}

Result<FederatedResponse> Client::FederatedQuery(
    const WireQueryRequest& request) {
  auto id = SendRequest(request);
  if (!id.ok()) return id.status();
  return WaitFederatedResponse(*id);
}

Result<FederatedResponse> Client::WaitFederatedResponse(uint64_t id) {
  auto frame = WaitFrame(id);
  if (!frame.ok()) return frame.status();
  if (frame->type == FrameType::kError) {
    FederatedResponse response;
    response.status = CarriedError(*frame);
    return response;
  }
  if (frame->type != FrameType::kFederatedResponse) {
    return Status::Corruption(
        "unexpected frame type answering a federated query");
  }
  FederatedResponse response;
  KVMATCH_RETURN_NOT_OK(DecodeFederatedResponseBody(frame->body, &response));
  return response;
}

Status Client::Ping() {
  auto id = SendFrame(FrameType::kPing, "");
  if (!id.ok()) return id.status();
  auto frame = WaitFrame(*id);
  if (!frame.ok()) return frame.status();
  if (frame->type == FrameType::kError) return CarriedError(*frame);
  if (frame->type != FrameType::kPong) {
    return Status::Corruption("unexpected frame type answering PING");
  }
  return Status::OK();
}

}  // namespace net
}  // namespace kvmatch
