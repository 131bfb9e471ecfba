#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/event_log.h"

namespace kvmatch {
namespace net {

namespace {

/// epoll_wait timeout: upper bound on the latency of periodic loop work
/// (idle reaping, drain progress, stop_-flag observation).
constexpr int kTickMs = 50;
/// Abandon a peer that stops draining its responses during Stop() (and
/// expire refused-connection courtesy frames) after this stall.
constexpr int kStopWriteGraceMs = 5000;

/// Bytes needed to tell a plain-HTTP scrape from a binary frame. An HTTP
/// verb read as a little-endian frame length would be absurd (e.g. "GET "
/// ≈ 542 MB), far past kMaxPayloadBytes — the two protocols cannot
/// collide within the cap.
constexpr size_t kHttpSniffBytes = 4;
/// A scrape request's head must fit this; anything longer is dropped.
constexpr size_t kMaxHttpHeadBytes = 16 * 1024;

/// Bytes recv'd from one connection per readiness event before yielding
/// to the rest of the loop (level-triggered epoll re-fires for the rest).
constexpr size_t kMaxReadPerEvent = 256 * 1024;
/// Bytes written to one connection per flush before the loop re-kicks
/// itself — one fast consumer must not starve the others.
constexpr size_t kMaxWritePerFlush = 4 * 1024 * 1024;
/// Outbox frames coalesced into one writev round.
constexpr int kMaxWriteIov = 16;
/// accept4() calls per listen-readiness event, for the same fairness.
constexpr int kMaxAcceptsPerEvent = 64;

bool LooksLikeHttp(std::string_view prelude) {
  return prelude.substr(0, 4) == "GET " || prelude.substr(0, 4) == "HEAD" ||
         prelude.substr(0, 4) == "POST" || prelude.substr(0, 4) == "PUT " ||
         prelude.substr(0, 4) == "DELE" || prelude.substr(0, 4) == "OPTI";
}

/// The client asked to reuse the connection: scan the header lines after
/// the request line for `Connection: keep-alive` (case-insensitive, as
/// HTTP demands). HTTP/1.1 technically defaults to keep-alive, but this
/// responder predates that nuance and clients of record (including the
/// tests) rely on close-by-default — so only an explicit opt-in persists.
bool WantsKeepAlive(std::string_view head) {
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos + 2 < head.size()) {
    pos += 2;
    const size_t end = head.find("\r\n", pos);
    std::string_view line =
        head.substr(pos, end == std::string_view::npos ? std::string_view::npos
                                                       : end - pos);
    const size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      std::string_view name = line.substr(0, colon);
      std::string_view value = line.substr(colon + 1);
      auto lower = [](std::string_view s) {
        std::string out(s);
        for (char& c : out) {
          c = static_cast<char>(
              std::tolower(static_cast<unsigned char>(c)));
        }
        return out;
      };
      if (lower(name) == "connection" &&
          lower(value).find("keep-alive") != std::string::npos) {
        return true;
      }
    }
    pos = end;
  }
  return false;
}

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

Result<sockaddr_in> ResolveIPv4(const std::string& host, int port) {
  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* resolved = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &resolved) != 0 ||
      resolved == nullptr) {
    return Status::InvalidArgument("cannot resolve " + host);
  }
  sockaddr_in addr = {};
  std::memcpy(&addr, resolved->ai_addr, sizeof(addr));
  ::freeaddrinfo(resolved);
  return addr;
}

namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

std::string Describe(const sockaddr_in& addr) {
  char host[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
  return std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

Server::Server(Catalog* catalog, QueryService* service, Options options)
    : catalog_(catalog),
      service_(service),
      registry_(service->stats_registry()),
      options_(std::move(options)) {}

Server::Server(StatsRegistry* registry, Options options)
    : catalog_(nullptr),
      service_(nullptr),
      registry_(registry),
      options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");

  const auto addr = ResolveIPv4(options_.bind_address, options_.port);
  if (!addr.ok()) return addr.status();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr.value()),
             sizeof(sockaddr_in)) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Errno("bind " + options_.bind_address + ":" +
                 std::to_string(options_.port));
  }
  // A deep backlog: a C10k connect storm arrives faster than one loop
  // iteration can accept, and the overflow must queue, not get RST.
  if (::listen(listen_fd_, 1024) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Errno("listen");
  }
  if (Status st = SetNonBlocking(listen_fd_); !st.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  struct sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  loop_ = std::make_unique<EventLoop>();
  if (Status st = loop_->Init(); !st.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    loop_.reset();
    return st;
  }
  listen_token_ =
      loop_->Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptable(); });
  if (listen_token_ == 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    loop_.reset();
    return Status::IOError("cannot register listen socket with epoll");
  }

  stop_.store(false);
  draining_ = false;
  blocking_stop_ = false;
  blocking_thread_ = std::thread([this] { BlockingWorker(); });
  loop_thread_ =
      std::thread([this] { loop_->Run(kTickMs, [this] { OnTick(); }); });
  started_ = true;
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  stop_.store(true);
  // Seal intake on the loop thread: once EnterDrain has run, no new
  // connection or request can register, so the pending counter below can
  // only fall — the drain wait cannot be raced by a late submission (the
  // flaw the old thread-per-connection Stop() had to re-sweep around).
  std::atomic<bool> sealed{false};
  loop_->Post([this, &sealed] {
    EnterDrain();
    sealed.store(true, std::memory_order_release);
  });
  while (!sealed.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Bounded drain: give in-flight queries drain_timeout_ms to finish on
  // their own, then cancel the stragglers through their tokens — they
  // abort at the next probe/slice checkpoint and their Cancelled
  // responses flush like any other, so the connection wait below never
  // hangs on a runaway scan. drain_timeout_ms == 0 preserves the old
  // semantics: wait for completion forever, cancelling nothing.
  if (options_.drain_timeout_ms > 0.0) {
    const auto drain_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                options_.drain_timeout_ms));
    while (total_pending_.load(std::memory_order_acquire) > 0 &&
           std::chrono::steady_clock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    while (total_pending_.load(std::memory_order_acquire) > 0) {
      loop_->Post([this] { CancelAllInFlight(); });
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  } else {
    while (total_pending_.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  // Every response is now enqueued; the loop's ticks flush and close each
  // connection (abandoning peers that stall past kStopWriteGraceMs) and
  // let suspended blocking work resume and finish.
  while (ActiveConnections() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(blocking_mu_);
    blocking_stop_ = true;
  }
  blocking_cv_.notify_all();
  if (blocking_thread_.joinable()) blocking_thread_.join();
  loop_->RequestStop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Courtesy refusals the loop did not finish flushing: just close them.
  for (auto& [token, refusal] : refusals_) ::close(refusal->fd);
  refusals_.clear();
  // Outbound links outlive every client request that could use them.
  while (!outbound_.empty()) {
    const auto conn = *outbound_.begin();
    CloseConnection(conn);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  loop_.reset();
  started_ = false;
  // Flight recorder last: the ring now includes everything the drain
  // above produced (final commits, evictions, purges).
  if (options_.dump_events_on_stop && options_.event_log != nullptr) {
    for (const auto& line : options_.event_log->RingLines()) {
      if (options_.event_dump) {
        options_.event_dump(line);
      } else {
        std::fprintf(stderr, "%s\n", line.c_str());
      }
    }
  }
}

void Server::EnterDrain() {
  draining_ = true;
  // Stop accepting: deregister interest but keep the socket bound, so
  // late connects queue in the backlog instead of getting RST while the
  // drain completes.
  if (listen_token_ != 0) loop_->Mod(listen_token_, 0);
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, conn] : conns_) conns.push_back(conn);
  }
  const auto now = std::chrono::steady_clock::now();
  for (const auto& conn : conns) {
    if (conn->dead) continue;
    conn->input_done = true;
    {
      // Restart the write-stall grace clock: the watchdog measures the
      // stall from shutdown, not from whenever the peer last read.
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->last_write_progress = now;
    }
    UpdateInterest(conn);
    if (ReadyToClose(conn)) CloseConnection(conn);
  }
}

void Server::CancelAllInFlight() {
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, conn] : conns_) conns.push_back(conn);
  }
  for (const auto& conn : conns) {
    std::map<uint64_t, std::shared_ptr<CancelToken>> inflight;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      inflight = conn->inflight;
    }
    for (auto& [id, token] : inflight) CancelRequest(conn, id, *token);
  }
}

void Server::CancelRequest(const std::shared_ptr<Connection>&, uint64_t,
                           CancelToken& token) {
  token.Cancel();
}

void Server::OnLoopTick(std::chrono::steady_clock::time_point) {}

size_t Server::ActiveConnections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

std::string Server::StatsText() const {
  // Via QueryService::Stats() (not the registry directly) so the pool's
  // queue-depth / busy-worker gauges are populated.
  std::string out = StatsToText(service_->Stats());
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& [id, conn] : conns_) {
    uint64_t requests = 0;
    {
      std::lock_guard<std::mutex> conn_lock(conn->mu);
      requests = conn->requests;
    }
    const double age =
        std::chrono::duration<double>(now - conn->opened).count();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "kvmatch_connection_requests_total{conn=\"%llu\"} %llu\n"
                  "kvmatch_connection_qps{conn=\"%llu\"} %.6g\n"
                  "kvmatch_connection_age_seconds{conn=\"%llu\"} %.6g\n",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(requests),
                  static_cast<unsigned long long>(id),
                  age > 0.0 ? static_cast<double>(requests) / age : 0.0,
                  static_cast<unsigned long long>(id), age);
    out.append(buf);
  }
  return out;
}

// --------------------------------------------------------------- accept

void Server::OnAcceptable() {
  if (draining_) return;
  for (int i = 0; i < kMaxAcceptsPerEvent; ++i) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: level-triggered EPOLLIN would spin the loop
        // hot on the un-accepted backlog, so back off until the next tick
        // (closing connections is what frees fds, and closes happen here
        // on the loop).
        loop_->Mod(listen_token_, 0);
        accept_paused_ = true;
      }
      return;  // EAGAIN or a hard error: nothing more to accept now
    }

    bool over_limit = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      over_limit = conns_.size() >= options_.max_connections;
    }
    if (over_limit) {
      RefuseConnection(fd);
      continue;
    }

    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->opened = std::chrono::steady_clock::now();
    conn->last_activity = conn->opened;
    conn->last_write_progress = conn->opened;
    conn->decoder = FrameDecoder(options_.max_frame_bytes);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = next_conn_id_++;
      conns_[conn->id] = conn;
    }
    conn->token = loop_->Add(
        fd, EPOLLIN,
        [this, conn](uint32_t events) { OnConnectionEvent(conn, events); });
    if (conn->token == 0) {
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.erase(conn->id);
      }
      ::close(fd);
      continue;
    }
    registry_->RecordConnectionOpened();
  }
}

void Server::RefuseConnection(int fd) {
  registry_->RecordConnectionRejected();
  Frame frame;
  frame.type = FrameType::kError;
  EncodeErrorBody(Status::ResourceExhausted("connection limit reached"),
                  &frame.body);
  std::string wire;
  EncodeFrame(frame, &wire);
  // Best-effort courtesy: usually the whole frame fits the fresh socket
  // buffer and the refusal costs one syscall.
  size_t written = 0;
  while (written < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + written,
                             wire.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      ::close(fd);
      return;
    }
    written += static_cast<size_t>(n);
  }
  if (written == wire.size()) {
    ::close(fd);
    return;
  }
  // The rest flushes on EPOLLOUT, with a bounded grace: a refusal never
  // becomes a tracked connection and never blocks the loop.
  auto refusal = std::make_shared<Refusal>();
  refusal->fd = fd;
  refusal->wire = std::move(wire);
  refusal->written = written;
  refusal->since = std::chrono::steady_clock::now();
  refusal->token = loop_->Add(
      fd, EPOLLOUT, [this, refusal](uint32_t) { FlushRefusal(refusal); });
  if (refusal->token == 0) {
    ::close(fd);
    return;
  }
  refusals_[refusal->token] = refusal;
}

void Server::FlushRefusal(const std::shared_ptr<Refusal>& refusal) {
  while (refusal->written < refusal->wire.size()) {
    const ssize_t n =
        ::send(refusal->fd, refusal->wire.data() + refusal->written,
               refusal->wire.size() - refusal->written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      break;  // peer gone: give up on the courtesy
    }
    refusal->written += static_cast<size_t>(n);
  }
  loop_->Del(refusal->token);
  ::close(refusal->fd);
  refusals_.erase(refusal->token);
}

Result<std::shared_ptr<Server::Connection>> Server::Dial(
    const sockaddr_in& addr, std::function<void(Frame)> on_frame,
    std::function<void(const Status&)> on_close) {
  // Nonblocking connect. Until it completes, recv and sendmsg answer
  // EAGAIN, so the ordinary read and flush paths simply wait for it (the
  // queued frames leave on the EPOLLOUT that signals the connection),
  // and a refused connect surfaces as the recv error.
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(sockaddr_in)) < 0 &&
      errno != EINPROGRESS) {
    const Status st = Errno("connect " + Describe(addr));
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  conn->opened = std::chrono::steady_clock::now();
  conn->sniffed = true;
  conn->on_frame = std::move(on_frame);
  conn->on_close = std::move(on_close);
  conn->token = loop_->Add(
      fd, EPOLLIN,
      [this, conn](uint32_t events) { OnConnectionEvent(conn, events); });
  if (conn->token == 0) {
    ::close(fd);
    return Status::IOError("cannot register outbound socket with epoll");
  }
  outbound_.insert(conn);
  return conn;
}

// ----------------------------------------------------------------- read

void Server::OnConnectionEvent(const std::shared_ptr<Connection>& conn,
                               uint32_t events) {
  if (conn->dead) return;
  // Read before write: an EPOLLIN|EPOLLOUT batch should submit the next
  // pipelined request before draining responses, and EPOLLHUP/EPOLLERR
  // surface through recv() (EOF / the pending error) on the read path.
  if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) OnReadable(conn);
  if (conn->dead) return;
  if (events & EPOLLOUT) FlushOutbox(conn);
}

void Server::OnReadable(const std::shared_ptr<Connection>& conn) {
  // Suspended (blocking work in flight, backpressure, or input finished):
  // interest is disarmed, but EPOLLHUP/EPOLLERR still land here — the
  // socket stays untouched until the suspension lifts.
  if (conn->dead || conn->busy || conn->input_done || conn->reads_paused) {
    return;
  }
  char buf[64 * 1024];
  size_t consumed = 0;
  bool eof = false;
  while (consumed < kMaxReadPerEvent) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      eof = true;
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn, Errno("recv"));
      return;
    }
    consumed += static_cast<size_t>(n);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->last_activity = std::chrono::steady_clock::now();
    }
    const std::string_view chunk(buf, static_cast<size_t>(n));
    if (!conn->sniffed) {
      // Protocol sniff: the first kHttpSniffBytes decide whether this
      // connection speaks binary frames or plain HTTP (a Prometheus
      // scrape, a curl /healthz). Until decided, bytes accumulate.
      conn->http_buf.append(chunk);
      if (conn->http_buf.size() < kHttpSniffBytes) continue;
      conn->sniffed = true;
      conn->http_mode = LooksLikeHttp(conn->http_buf);
      if (!conn->http_mode) {
        conn->decoder.Feed(conn->http_buf);
        conn->http_buf.clear();
        conn->http_buf.shrink_to_fit();
      }
    } else if (conn->http_mode) {
      conn->http_buf.append(chunk);
    } else {
      conn->decoder.Feed(chunk);
    }
    ProcessInput(conn);
    if (conn->dead) return;
    if (conn->busy || conn->input_done) break;
    // Backpressure: a slow reader with a deep pipeline has queued past
    // the cap — stop taking new requests until the outbox drains below
    // half of it (FlushOutbox resumes). An outbound connection only
    // reads answers, which never add to its outbox; pausing them could
    // deadlock against a peer that waits for us to read.
    if (options_.max_outbox_bytes > 0 && !conn->on_frame) {
      bool over = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        over = conn->outbox_bytes >= options_.max_outbox_bytes;
      }
      if (over) {
        conn->reads_paused = true;
        registry_->RecordNetReadPaused();
        break;
      }
    }
  }
  if (eof) {
    conn->input_done = true;
    if (ReadyToClose(conn)) {
      CloseConnection(conn);
      return;
    }
  }
  UpdateInterest(conn);
}

void Server::ProcessInput(const std::shared_ptr<Connection>& conn) {
  if (conn->dead || !conn->sniffed) return;
  if (conn->http_mode) {
    ProcessHttp(conn);
    return;
  }
  // A handler may suspend the connection (RunBlocking) or finish its
  // input (fatal framing, drain): both stop the dispatch with the
  // remaining frames left buffered in the decoder for later (or never).
  while (!conn->busy && !conn->dead && !conn->input_done) {
    Frame frame;
    Status error;
    const FrameDecoder::Event event = conn->decoder.Next(&frame, &error);
    if (event == FrameDecoder::Event::kNeedMore) break;
    if (event == FrameDecoder::Event::kFrame) {
      if (conn->on_frame) {
        conn->on_frame(std::move(frame));
      } else {
        HandleFrame(conn, std::move(frame));
      }
      continue;
    }
    if (conn->on_frame) {
      // A peer's answer stream that fails its checks cannot be trusted.
      CloseConnection(conn, Status::Corruption("response stream: " +
                                               error.message()));
      return;
    }
    // kBadFrame / kFatal: answer with a typed error; the request id is
    // unrecoverable from a corrupt payload, so 0 means "stream-level".
    registry_->RecordProtocolError();
    SendError(conn, 0, error);
    if (event == FrameDecoder::Event::kFatal) {
      // Framing offset lost: stop reading; the connection closes once
      // the error frame (and any owed responses) have flushed.
      conn->input_done = true;
      UpdateInterest(conn);
    }
  }
}

void Server::ProcessHttp(const std::shared_ptr<Connection>& conn) {
  while (!conn->dead && !conn->input_done) {
    if (conn->http_buf.size() > kMaxHttpHeadBytes) {
      CloseConnection(conn);  // not a scrape
      return;
    }
    const size_t head_end = conn->http_buf.find("\r\n\r\n");
    if (head_end == std::string::npos) return;  // head still arriving
    const bool keep_alive =
        HandleHttp(conn, std::string_view(conn->http_buf).substr(0, head_end));
    conn->http_buf.erase(0, head_end + 4);
    if (!keep_alive) {
      conn->input_done = true;
      UpdateInterest(conn);
      return;  // the response flushes, then the connection closes
    }
    // Keep-alive: loop in case the scraper pipelined another request.
  }
}

bool Server::HandleHttp(const std::shared_ptr<Connection>& conn,
                        std::string_view head) {
  // Request line only; the sole header that matters is Connection.
  std::string_view line = head.substr(0, head.find("\r\n"));
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  std::string_view method, target;
  if (sp1 != std::string_view::npos && sp2 != std::string_view::npos &&
      sp2 > sp1) {
    method = line.substr(0, sp1);
    target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  }
  if (const size_t q = target.find('?'); q != std::string_view::npos) {
    target = target.substr(0, q);  // scrape params are ignored
  }

  int code = 200;
  const char* reason = "OK";
  const char* content_type = "text/plain; charset=utf-8";
  std::string body;
  if (method != "GET" && method != "HEAD") {
    code = 405;
    reason = "Method Not Allowed";
    body = "method not allowed\n";
  } else if (target == "/metrics") {
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = StatsText();
  } else if (target == "/healthz") {
    body = "ok\n";
  } else {
    code = 404;
    reason = "Not Found";
    body = "not found\n";
  }
  // Close by default (what one-shot scripted clients expect); persist
  // only when the scraper explicitly asked — and never across a 405,
  // whose request may carry a body this parser does not consume.
  const bool keep_alive =
      (method == "GET" || method == "HEAD") && WantsKeepAlive(head);

  registry_->RecordHttpRequest();
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->requests += 1;
  }

  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: %s\r\n"
                "\r\n",
                code, reason, content_type, body.size(),
                keep_alive ? "keep-alive" : "close");
  std::string wire(header);
  if (method != "HEAD") wire += body;
  EnqueueRaw(conn, std::move(wire));
  return keep_alive;
}

// ---------------------------------------------------------------- write

void Server::Enqueue(const std::shared_ptr<Connection>& conn,
                     const Frame& frame) {
  std::string wire;
  EncodeFrame(frame, &wire);
  EnqueueRaw(conn, std::move(wire));
}

void Server::EnqueueRaw(const std::shared_ptr<Connection>& conn,
                        std::string wire) {
  bool need_kick = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->outbox_bytes += wire.size();
    registry_->RecordNetOutboxBytes(static_cast<int64_t>(wire.size()));
    conn->outbox.push_back(std::move(wire));
    conn->last_activity = std::chrono::steady_clock::now();
    if (!conn->kick_pending) {
      conn->kick_pending = true;
      need_kick = true;
    }
  }
  if (need_kick) {
    loop_->Post([this, conn] { KickFlush(conn); });
  }
}

void Server::KickFlush(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->kick_pending = false;
  }
  if (!conn->dead) FlushOutbox(conn);
}

void Server::FlushOutbox(const std::shared_ptr<Connection>& conn) {
  if (conn->dead) return;
  size_t flushed = 0;
  for (;;) {
    // Coalesce queued frames into one writev round: with TCP_NODELAY on,
    // per-frame send() would put each tiny streamed chunk in its own
    // packet — batched iovecs keep the syscall AND packet count flat.
    // The iovecs point into outbox strings; that is safe across the
    // unlock because only this (loop) thread pops or clears the deque,
    // workers only push_back, and deque growth never moves elements.
    struct iovec iov[kMaxWriteIov];
    int iovcnt = 0;
    size_t batch_bytes = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      size_t skip = conn->front_written;
      for (const std::string& w : conn->outbox) {
        if (iovcnt == kMaxWriteIov) break;
        iov[iovcnt].iov_base = const_cast<char*>(w.data()) + skip;
        iov[iovcnt].iov_len = w.size() - skip;
        batch_bytes += w.size() - skip;
        skip = 0;
        ++iovcnt;
      }
    }
    if (iovcnt == 0) break;  // drained

    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        conn->want_write = true;
        UpdateInterest(conn);
        return;
      }
      CloseConnection(conn, Errno("send"));
      return;
    }

    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->outbox_bytes -= static_cast<size_t>(n);
      const auto now = std::chrono::steady_clock::now();
      conn->last_activity = now;
      conn->last_write_progress = now;
      size_t remaining = static_cast<size_t>(n);
      while (remaining > 0) {
        std::string& front = conn->outbox.front();
        const size_t left = front.size() - conn->front_written;
        if (remaining >= left) {
          remaining -= left;
          conn->front_written = 0;
          conn->outbox.pop_front();
        } else {
          conn->front_written += remaining;
          remaining = 0;
        }
      }
    }
    registry_->RecordNetOutboxBytes(-n);
    flushed += static_cast<size_t>(n);
    MaybeResumeReads(conn);

    if (static_cast<size_t>(n) < batch_bytes) {
      // Kernel buffer full mid-batch: EPOLLOUT re-drives the rest.
      conn->want_write = true;
      UpdateInterest(conn);
      return;
    }
    if (flushed >= kMaxWritePerFlush) {
      // Fairness cap: yield the loop to other connections and come back
      // through a self-kick.
      bool need_kick = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->kick_pending) {
          conn->kick_pending = true;
          need_kick = true;
        }
      }
      if (need_kick) {
        loop_->Post([this, conn] { KickFlush(conn); });
      }
      return;
    }
  }
  // Outbox empty: disarm EPOLLOUT, lift backpressure, and perform the
  // deferred close of a connection whose input already finished.
  conn->want_write = false;
  MaybeResumeReads(conn);
  UpdateInterest(conn);
  if (conn->input_done && ReadyToClose(conn)) CloseConnection(conn);
}

void Server::MaybeResumeReads(const std::shared_ptr<Connection>& conn) {
  if (!conn->reads_paused || conn->dead) return;
  bool below = true;
  if (options_.max_outbox_bytes > 0) {
    std::lock_guard<std::mutex> lock(conn->mu);
    below = conn->outbox_bytes <= options_.max_outbox_bytes / 2;
  }
  if (below) {
    conn->reads_paused = false;
    UpdateInterest(conn);
  }
}

// ------------------------------------------------------------ lifecycle

void Server::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  if (conn->dead || conn->token == 0) return;
  uint32_t events = 0;
  if (!conn->reads_paused && !conn->busy && !conn->input_done) {
    events |= EPOLLIN;
  }
  if (conn->want_write) events |= EPOLLOUT;
  loop_->Mod(conn->token, events);
}

bool Server::ReadyToClose(const std::shared_ptr<Connection>& conn) {
  if (conn->busy) return false;
  std::lock_guard<std::mutex> lock(conn->mu);
  return conn->pending == 0 && conn->outbox.empty();
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn,
                             const Status& why) {
  if (conn->dead) return;
  conn->dead = true;
  if (conn->token != 0) {
    loop_->Del(conn->token);
    conn->token = 0;
  }
  std::map<uint64_t, std::shared_ptr<CancelToken>> orphans;
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    orphans = conn->inflight;
    dropped = conn->outbox_bytes;
    conn->outbox.clear();
    conn->outbox_bytes = 0;
    conn->front_written = 0;
  }
  if (dropped > 0) {
    registry_->RecordNetOutboxBytes(-static_cast<int64_t>(dropped));
  }
  ::close(conn->fd);
  if (conn->on_frame) {
    outbound_.erase(conn);
    conn->on_close(why);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(conn->id);
  }
  registry_->RecordConnectionClosed();
  // A disconnect cancels the queries still in flight on it: nobody can
  // receive their answers, their compute is pure waste, and — since a
  // closed connection is no longer reachable through CancelAllInFlight —
  // leaving them running would also unbound the Stop() drain.
  for (auto& [id, token] : orphans) CancelRequest(conn, id, *token);
}

void Server::Suspend(const std::shared_ptr<Connection>& conn) {
  conn->busy = true;
  UpdateInterest(conn);
}

void Server::Resume(const std::shared_ptr<Connection>& conn) {
  // Always through the loop's queue, never inline: a handler resuming
  // from inside a frame dispatch must not recurse into ProcessInput.
  loop_->Post([this, conn] {
    conn->busy = false;
    if (conn->dead) return;
    UpdateInterest(conn);
    // Frames that arrived (or were already decoded) before the
    // suspension resume in order.
    ProcessInput(conn);
    if (conn->dead) return;
    if (conn->input_done && ReadyToClose(conn)) CloseConnection(conn);
  });
}

void Server::RunBlocking(const std::shared_ptr<Connection>& conn,
                         std::function<void()> work) {
  Suspend(conn);
  {
    std::lock_guard<std::mutex> lock(blocking_mu_);
    blocking_queue_.push_back([this, conn, work = std::move(work)] {
      work();
      Resume(conn);
    });
  }
  blocking_cv_.notify_one();
}

bool Server::Offload(std::function<void()> work, std::function<void()> done) {
  {
    std::lock_guard<std::mutex> lock(blocking_mu_);
    if (blocking_stop_) return false;
    blocking_queue_.push_back(
        [this, work = std::move(work), done = std::move(done)]() mutable {
          work();
          loop_->Post(std::move(done));
        });
  }
  blocking_cv_.notify_one();
  return true;
}

void Server::BlockingWorker() {
  for (;;) {
    std::function<void()> work;
    {
      std::unique_lock<std::mutex> lock(blocking_mu_);
      blocking_cv_.wait(
          lock, [&] { return blocking_stop_ || !blocking_queue_.empty(); });
      if (blocking_queue_.empty()) {
        if (blocking_stop_) return;
        continue;
      }
      work = std::move(blocking_queue_.front());
      blocking_queue_.pop_front();
    }
    work();
  }
}

void Server::OnTick() {
  // Run() invokes this after every epoll_wait return, which under load is
  // far more often than the 50 ms tick — and a sweep over 10k connections
  // must not run per readiness batch. Throttle to the tick period.
  const auto now = std::chrono::steady_clock::now();
  if (now - last_tick_ < std::chrono::milliseconds(kTickMs)) return;
  last_tick_ = now;

  registry_->SetNetLoopCounters(loop_->iterations(), loop_->wakeups());
  OnLoopTick(now);

  if (accept_paused_ && !draining_) {
    // fd-exhaustion backoff over: try accepting again.
    loop_->Mod(listen_token_, EPOLLIN);
    accept_paused_ = false;
  }

  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) conns.push_back(conn);
  }
  for (const auto& conn : conns) {
    if (conn->dead) continue;
    if (draining_) {
      if (ReadyToClose(conn)) {
        CloseConnection(conn);
        continue;
      }
      bool stalled = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        stalled = !conn->outbox.empty() &&
                  now - conn->last_write_progress >=
                      std::chrono::milliseconds(kStopWriteGraceMs);
      }
      if (stalled) CloseConnection(conn);  // dead peer: abandon the flush
      continue;
    }
    if (options_.idle_timeout_ms > 0.0 && !conn->busy) {
      // Quiescent means truly drained: no response pending and nothing
      // queued (a partially-written frame keeps the outbox non-empty) —
      // and the idle clock runs from the last activity in EITHER
      // direction, so a connection being served a slow, long-streaming
      // response is never reaped between its frames.
      bool quiescent = false;
      double idle_ms = 0.0;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        quiescent = conn->pending == 0 && conn->outbox.empty();
        idle_ms = std::chrono::duration<double, std::milli>(
                      now - conn->last_activity)
                      .count();
      }
      if (quiescent && idle_ms >= options_.idle_timeout_ms) {
        CloseConnection(conn);
      }
    }
  }

  // Refused-connection courtesy frames that never flushed: expire them.
  std::vector<std::shared_ptr<Refusal>> expired;
  for (const auto& [token, refusal] : refusals_) {
    if (now - refusal->since >=
        std::chrono::milliseconds(kStopWriteGraceMs)) {
      expired.push_back(refusal);
    }
  }
  for (const auto& refusal : expired) {
    loop_->Del(refusal->token);
    ::close(refusal->fd);
    refusals_.erase(refusal->token);
  }
}

// ------------------------------------------------------------- requests

void Server::SendError(const std::shared_ptr<Connection>& conn, uint64_t id,
                       const Status& status) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.request_id = id;
  EncodeErrorBody(status, &frame.body);
  Enqueue(conn, frame);
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         Frame frame) {
  switch (frame.type) {
    case FrameType::kQueryRequest:
      HandleQuery(conn, frame.request_id, frame.body,
                  std::chrono::steady_clock::now());
      return;
    case FrameType::kStatsRequest: {
      Frame response;
      response.type = FrameType::kStatsResponse;
      response.request_id = frame.request_id;
      response.body = StatsText();
      Enqueue(conn, response);
      return;
    }
    case FrameType::kListRequest:
      HandleList(conn, frame.request_id);
      return;
    case FrameType::kShardInfoRequest:
      HandleShardInfo(conn, frame.request_id);
      return;
    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.request_id = frame.request_id;
      Enqueue(conn, pong);
      return;
    }
    case FrameType::kCreateRequest:
    case FrameType::kAppendRequest:
    case FrameType::kDropRequest:
      HandleIngest(conn, frame.type, frame.request_id, frame.body);
      return;
    case FrameType::kCancel:
      HandleCancel(conn, frame.request_id);
      return;
    case FrameType::kQueryResponse:
    case FrameType::kStatsResponse:
    case FrameType::kListResponse:
    case FrameType::kError:
    case FrameType::kPong:
    case FrameType::kIngestResponse:
    case FrameType::kMatchResponsePart:
    case FrameType::kShardInfoResponse:
    case FrameType::kFederatedResponse:
      SendError(conn, frame.request_id,
                Status::InvalidArgument("response frame sent to server"));
      return;
  }
  registry_->RecordProtocolError();
  SendError(conn, frame.request_id,
            Status::NotSupported(
                "unknown frame type " +
                std::to_string(static_cast<unsigned>(frame.type))));
}

void Server::HandleList(const std::shared_ptr<Connection>& conn,
                        uint64_t id) {
  std::vector<SeriesInfo> series;
  for (const auto& name : catalog_->ListSeries()) {
    SeriesInfo info;
    info.name = name;
    // Directory metadata, not a session open: listing must stay cheap
    // even when the catalog holds many cold series.
    if (auto length = catalog_->SeriesLength(name); length.ok()) {
      info.length = *length;
    }
    series.push_back(std::move(info));
  }
  Frame response;
  response.type = FrameType::kListResponse;
  response.request_id = id;
  EncodeListResponseBody(series, &response.body);
  Enqueue(conn, response);
}

void Server::HandleShardInfo(const std::shared_ptr<Connection>& conn,
                             uint64_t id) {
  ShardInfo info;
  info.shard_id = options_.shard_id;
  info.num_shards = options_.num_shards;
  info.map_fingerprint = options_.shard_map_fingerprint;
  info.series_count =
      catalog_ != nullptr ? catalog_->ListSeries().size() : 0;
  Frame response;
  response.type = FrameType::kShardInfoResponse;
  response.request_id = id;
  EncodeShardInfoBody(info, &response.body);
  Enqueue(conn, response);
}

void Server::HandleIngest(const std::shared_ptr<Connection>& conn,
                          FrameType type, uint64_t id,
                          std::string_view body) {
  WireIngestRequest request;
  if (Status st = DecodeIngestRequestBody(body, &request); !st.ok()) {
    registry_->RecordProtocolError();
    SendError(conn, id, st);
    return;
  }
  // Shard-ownership fence: a client writing through a stale shard map
  // must fail loudly here, not silently split a series across shards.
  if (options_.owns_series && !options_.owns_series(request.series)) {
    SendError(conn, id,
              Status::InvalidArgument(
                  "series '" + request.series +
                  "' is not owned by this shard (stale shard map?)"));
    return;
  }
  // The catalog write (journal + chunk puts + index merge) can take long
  // enough to stall every other connection if run on the loop — hand it
  // to the blocking-work thread. This connection's frame processing is
  // suspended meanwhile, so its pipelined requests still execute in
  // order; other connections keep flowing.
  RunBlocking(conn, [this, conn, type, id,
                     request = std::move(request)]() mutable {
    Status st;
    IngestAck ack;
    switch (type) {
      case FrameType::kCreateRequest:
        st = catalog_->CreateSeries(request.series,
                                    TimeSeries(std::move(request.values)));
        break;
      case FrameType::kAppendRequest:
        st = catalog_->AppendSeries(request.series, request.values);
        break;
      default:
        st = catalog_->DropSeries(request.series);
        break;
    }
    if (st.ok() && type != FrameType::kDropRequest) {
      if (auto epoch = catalog_->SeriesEpoch(request.series); epoch.ok()) {
        ack.epoch = *epoch;
      }
      if (auto length = catalog_->SeriesLength(request.series);
          length.ok()) {
        ack.length = *length;
      }
    }
    if (!st.ok()) {
      SendError(conn, id, st);
      return;
    }
    Frame response;
    response.type = FrameType::kIngestResponse;
    response.request_id = id;
    EncodeIngestResponseBody(ack, &response.body);
    Enqueue(conn, response);
  });
}

void Server::HandleCancel(const std::shared_ptr<Connection>& conn,
                          uint64_t id) {
  // Fire-and-forget: the cancelled query answers through its own response
  // path, and a cancel that lost the race to completion is simply a no-op.
  std::shared_ptr<CancelToken> token;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (auto it = conn->inflight.find(id); it != conn->inflight.end()) {
      token = it->second;
    }
  }
  if (token != nullptr) CancelRequest(conn, id, *token);
}

bool Server::RegisterRequest(const std::shared_ptr<Connection>& conn,
                             uint64_t id,
                             const std::shared_ptr<CancelToken>& token) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->inflight.count(id) > 0) return false;
    conn->pending += 1;
    conn->requests += 1;
    conn->inflight[id] = token;
  }
  total_pending_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

void Server::CompleteRequest(const std::shared_ptr<Connection>& conn,
                             uint64_t id, std::vector<std::string> wires) {
  bool need_kick = false;
  {
    // One critical section: the request stays pending until its terminal
    // frame is on the outbox, so neither the idle reaper nor the Stop()
    // drain can observe "no pending work" with the response still in
    // hand. A closed connection drops the frames (nobody can read them)
    // but still retires the booking.
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->pending -= 1;
    conn->inflight.erase(id);
    if (!conn->closed) {
      size_t added = 0;
      for (auto& w : wires) {
        added += w.size();
        conn->outbox.push_back(std::move(w));
      }
      conn->outbox_bytes += added;
      registry_->RecordNetOutboxBytes(static_cast<int64_t>(added));
      conn->last_activity = std::chrono::steady_clock::now();
      if (!conn->kick_pending) {
        conn->kick_pending = true;
        need_kick = true;
      }
    }
  }
  if (need_kick) {
    loop_->Post([this, conn] { KickFlush(conn); });
  }
  // LAST, after every other touch of `this`: the moment this hits zero,
  // Stop() may proceed to tear the server down.
  total_pending_.fetch_sub(1, std::memory_order_acq_rel);
}

std::vector<std::string> Server::EncodeResponseRun(uint64_t id,
                                                   QueryResponse response,
                                                   bool wants_trace) const {
  const auto serialize_t0 = std::chrono::steady_clock::now();
  std::vector<std::string> wires;
  // Clamp the chunk so no part frame can exceed the frame cap: a
  // MatchResult encodes at up to 18 bytes (10B varint offset + 8B
  // double), plus prologue headroom. 0 stays 0 (streaming disabled).
  size_t stream_chunk = options_.stream_chunk_matches;
  const size_t cap_matches =
      options_.max_frame_bytes > 64 ? (options_.max_frame_bytes - 64) / 18
                                    : 1;
  if (stream_chunk > cap_matches) stream_chunk = cap_matches;

  if (response.status.ok() && stream_chunk > 0 &&
      response.matches.size() > stream_chunk) {
    // Stream: the match list leaves in bounded parts, the final
    // kQueryResponse carries status/stats/latency and no matches.
    const std::vector<MatchResult> matches = std::move(response.matches);
    response.matches.clear();
    for (size_t begin = 0; begin < matches.size(); begin += stream_chunk) {
      const size_t len = std::min(stream_chunk, matches.size() - begin);
      Frame part;
      part.type = FrameType::kMatchResponsePart;
      part.request_id = id;
      EncodeMatchPartBody(
          std::span<const MatchResult>(matches.data() + begin, len),
          &part.body);
      std::string wire;
      EncodeFrame(part, &wire);
      wires.push_back(std::move(wire));
    }
  }
  Frame frame;
  frame.request_id = id;
  if (response.status.ok()) {
    frame.type = FrameType::kQueryResponse;
    // Split encode: the prefix (parts + status/matches/stats) is timed
    // as the serialize span, which is then part of the trace appended
    // behind it — so the wire trace covers its own cost.
    EncodeQueryResponsePrefix(response, &frame.body);
    if (response.trace != nullptr) {
      response.trace->AddSpan(kSpanSerialize, serialize_t0,
                              std::chrono::steady_clock::now());
    }
    AppendQueryResponseTrace(wants_trace ? response.trace.get() : nullptr,
                             &frame.body);
  } else {
    // Typed error on the wire: the client reconstructs the exact
    // Status (ResourceExhausted, DeadlineExceeded, Cancelled, ...).
    frame.type = FrameType::kError;
    EncodeErrorBody(response.status, &frame.body);
    if (response.trace != nullptr) {
      response.trace->AddSpan(kSpanSerialize, serialize_t0,
                              std::chrono::steady_clock::now());
    }
  }
  std::string wire;
  EncodeFrame(frame, &wire);
  wires.push_back(std::move(wire));
  return wires;
}

void Server::HandleQuery(const std::shared_ptr<Connection>& conn,
                         uint64_t id, std::string_view body,
                         std::chrono::steady_clock::time_point received) {
  WireQueryRequest wire_request;
  if (Status st = DecodeQueryRequestBody(body, &wire_request); !st.ok()) {
    registry_->RecordProtocolError();
    SendError(conn, id, st);
    return;
  }
  QueryRequest request = std::move(wire_request.request);
  if (wire_request.by_reference) {
    auto session = catalog_->Acquire(request.series);
    if (!session.ok()) {
      SendError(conn, id, session.status());
      return;
    }
    const size_t series_len = (*session)->series().size();
    const uint64_t offset = wire_request.ref_offset;
    const uint64_t length = wire_request.ref_length;
    if (length == 0 || offset > series_len ||
        length > series_len - offset) {
      SendError(conn, id,
                Status::InvalidArgument(
                    "query reference [" + std::to_string(offset) + ", +" +
                    std::to_string(length) + ") is outside '" +
                    request.series + "'"));
      return;
    }
    const auto span = (*session)->series().Subsequence(
        static_cast<size_t>(offset), static_cast<size_t>(length));
    request.query.assign(span.begin(), span.end());
  }

  // Deadline re-anchoring: the wire carries the REMAINING budget as of
  // the sender's send instant, so time spent on the wire and waiting in
  // this socket's buffer must be charged against it here — not silently
  // granted again (the double-count this hop used to have). A budget
  // that is already spent still submits: QueryService answers
  // DeadlineExceeded and records the counter, keeping the accounting in
  // one place.
  request.timeout_ms = RemainingBudgetMs(request.timeout_ms, received);

  // The client's trace wish is remembered separately: the slow-query log
  // needs traces for every query while enabled, but only clients that
  // asked for one get it echoed back on the wire.
  const bool wants_trace = request.collect_trace;
  if (options_.slow_query_ms > 0.0) request.collect_trace = true;
  const std::string series_name = request.series;

  // The token is registered before submission, so a kCancel can never
  // race ahead of its target; the completion callback retires it. A
  // request id already in flight is rejected: accepting it would clobber
  // the first query's token (leaving one of the two uncancellable, which
  // would also break Stop()'s bounded-drain guarantee).
  auto token = std::make_shared<CancelToken>();
  request.cancel = token;
  if (!RegisterRequest(conn, id, token)) {
    registry_->RecordProtocolError();
    SendError(conn, id,
              Status::InvalidArgument("request id " + std::to_string(id) +
                                      " is already in flight"));
    return;
  }
  // Clamp the chunk so no part frame can exceed the frame cap: a
  // MatchResult encodes at up to 18 bytes (10B varint offset + 8B
  // double), plus prologue headroom. 0 stays 0 (streaming disabled).
  size_t stream_chunk = options_.stream_chunk_matches;
  const size_t cap_matches =
      options_.max_frame_bytes > 64 ? (options_.max_frame_bytes - 64) / 18
                                    : 1;
  if (stream_chunk > cap_matches) stream_chunk = cap_matches;

  // Incremental streaming (ε-threshold queries with streaming enabled):
  // verified slices arrive through on_partial while later slices are
  // still running; every full chunk leaves the server immediately and
  // only the tail rides the completion path, so transfer overlaps
  // verification. The wire shape is byte-identical to the
  // whole-result-at-completion path: parts of exactly `stream_chunk`
  // matches, a final part of at most one chunk, and no parts at all when
  // the result fits in one chunk. Accesses to the state need no lock —
  // the service serializes on_partial calls and runs the completion
  // callback strictly after the last one.
  struct StreamState {
    std::vector<MatchResult> buffer;
    bool parts_sent = false;
  };
  std::shared_ptr<StreamState> stream;
  if (stream_chunk > 0 && request.top_k == 0) {
    stream = std::make_shared<StreamState>();
    request.on_partial = [this, conn, id, stream_chunk,
                          stream](std::span<const MatchResult> part) {
      auto& buf = stream->buffer;
      buf.insert(buf.end(), part.begin(), part.end());
      size_t begin = 0;
      // Keep at least one match buffered: the last part must be the one
      // that may run short, exactly as the completion-time chunker does.
      while (buf.size() - begin > stream_chunk) {
        Frame pf;
        pf.type = FrameType::kMatchResponsePart;
        pf.request_id = id;
        EncodeMatchPartBody(
            std::span<const MatchResult>(buf.data() + begin, stream_chunk),
            &pf.body);
        std::string wire;
        EncodeFrame(pf, &wire);
        EnqueueRaw(conn, std::move(wire));
        stream->parts_sent = true;
        begin += stream_chunk;
      }
      if (begin > 0) buf.erase(buf.begin(), buf.begin() + begin);
    };
  }
  service_->SubmitWithCallback(
      std::move(request),
      [this, conn, id, stream_chunk, wants_trace, series_name,
       stream](QueryResponse response) {
        // Encoded frames for this response, pushed onto the outbox as one
        // contiguous run (other requests' frames may interleave between
        // runs — the client reassembles per request id).
        std::vector<std::string> wires;
        if (stream != nullptr && response.status.ok()) {
          if (!stream->parts_sent) {
            // Nothing left early, so at most one chunk accumulated:
            // deliver it on the final frame like the classic path.
            if (response.matches.empty()) {
              response.matches = std::move(stream->buffer);
            }
          } else {
            // Parts are already on the wire; flush the buffered tail
            // (≤ one chunk) as the closing part(s).
            for (size_t begin = 0; begin < stream->buffer.size();
                 begin += stream_chunk) {
              const size_t len =
                  std::min(stream_chunk, stream->buffer.size() - begin);
              Frame part;
              part.type = FrameType::kMatchResponsePart;
              part.request_id = id;
              EncodeMatchPartBody(
                  std::span<const MatchResult>(stream->buffer.data() + begin,
                                               len),
                  &part.body);
              std::string wire;
              EncodeFrame(part, &wire);
              wires.push_back(std::move(wire));
            }
          }
        }
        // The response's trace/latency outlive the encode below (the run
        // consumes the response) for the slow-query log, which must fire
        // before the request is retired: Stop() may destroy the server
        // the moment every pending count hits zero, so nothing may touch
        // `this` after CompleteRequest.
        const auto trace = response.trace;
        const double latency_ms = response.latency_ms;
        const bool response_ok = response.status.ok();
        const std::string status_text =
            response_ok ? "ok" : response.status.ToString();
        for (auto& w : EncodeResponseRun(id, std::move(response),
                                         wants_trace)) {
          wires.push_back(std::move(w));
        }
        if (options_.slow_query_ms > 0.0 && trace != nullptr &&
            latency_ms >= options_.slow_query_ms) {
          const std::string line = TraceToJsonLine(series_name, status_text,
                                                   latency_ms, *trace);
          if (options_.slow_query_log) {
            options_.slow_query_log(line);
          } else {
            std::fprintf(stderr, "%s\n", line.c_str());
          }
        }
        CompleteRequest(conn, id, std::move(wires));
      });
}

}  // namespace net
}  // namespace kvmatch
