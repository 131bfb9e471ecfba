// Multi-client TCP front-end over the QueryService (pazpar2-style session
// multiplexing: one server process, many concurrent connections, each
// pipelining independent queries over the shared catalog).
//
// Threading model: a single epoll reactor thread owns every socket —
// accept, incremental frame decode on EPOLLIN, and completion-order
// writes drained from a per-connection outbox on EPOLLOUT — so the
// thread count is constant no matter how many connections are open
// (C10k from one loop). Query execution stays on the QueryService pool:
// the reactor decodes a kQueryRequest, submits it through
// SubmitWithCallback, and the completion (running on a pool worker)
// pushes the encoded response frames onto the connection's outbox and
// prods the loop through an eventfd wakeup. Catalog ingest blocks, so it
// is handed to one helper thread via RunBlocking(), with that
// connection's frame processing suspended until the work finishes —
// per-connection frame order is exactly what a dedicated reader thread
// would have produced, but every other connection keeps flowing.
// Subclasses may also Dial() outbound connections (a coordinator's shard
// links): they share the same outbox, writev and FrameDecoder path, with
// decoded frames handed to the dialer instead of the request handlers.
//
// Flow control: sockets are nonblocking; partial reads resume through
// the incremental FrameDecoder and partial writes through a write cursor
// into the outbox, which EPOLLOUT (level-triggered) re-drives. Queued
// frames coalesce into a single writev per drain round, so streaming
// tiny chunked matches does not pay one syscall per frame. When a
// connection's outbox exceeds max_outbox_bytes (a slow reader with a
// deep pipeline), the reactor stops reading from that connection until
// the peer drains below half the cap — responses already owed are never
// dropped, but a stalled consumer cannot queue unbounded new work.
//
// Robustness: a CRC-corrupted or malformed frame is answered with a
// typed kError frame and the connection keeps serving; only an oversized
// declared payload (framing no longer trustworthy) ends that connection
// (after its error frame flushes). Connections over the limit are
// refused with ResourceExhausted. A disconnect cancels the queries still
// in flight on that connection — their compute is not owed to anyone
// anymore. Stop() is graceful with a bounded drain: it stops accepting
// and reading, lets submitted queries finish for up to drain_timeout_ms,
// cancels whatever is still running via the per-query tokens, flushes
// the responses (abandoning peers that stop reading for
// kStopWriteGraceMs), then joins the loop.
//
// Large match sets stream: when a response carries more matches than
// stream_chunk_matches, it leaves as a sequence of kMatchResponsePart
// frames followed by a final (matchless) kQueryResponse, so no result is
// ever forced through a single ≤64 MiB frame. A kCancel frame aborts the
// in-flight query with the same request id on that connection.
//
// Plain HTTP coexists on the frame port via first-bytes sniffing:
// GET/HEAD /metrics and /healthz are answered directly by the loop, with
// Connection: keep-alive honored when the scraper asks for it (and
// Connection: close otherwise).
#ifndef KVMATCH_NET_SERVER_H_
#define KVMATCH_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/protocol.h"
#include "service/catalog.h"
#include "service/query_service.h"

namespace kvmatch {
namespace net {

class Server {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    int port = 0;                  // 0 → kernel-assigned; see port()
    size_t max_connections = 64;   // beyond this, refuse with an error frame
    double idle_timeout_ms = 0.0;  // close idle connections; 0 disables
    size_t max_frame_bytes = kMaxPayloadBytes;
    /// Backpressure cap on one connection's queued-but-unsent response
    /// bytes: past it the reactor stops reading that connection's socket
    /// (no new requests) until the peer drains below half the cap.
    /// Responses owed for already-accepted requests still enqueue — the
    /// cap bounds new intake, not delivery. 0 disables.
    size_t max_outbox_bytes = 256ull << 20;
    /// Cluster identity answered on kShardInfoRequest: this process's
    /// shard id and the shard count / fingerprint of the map that
    /// assigned it. Defaults mean "standalone: not part of a cluster".
    uint32_t shard_id = kStandaloneShardId;
    uint32_t num_shards = 0;
    uint64_t shard_map_fingerprint = 0;
    /// When set, ingest frames for series this predicate rejects are
    /// refused with InvalidArgument — a misconfigured client writing
    /// through a stale shard map fails loudly instead of splitting a
    /// series across shards. Null accepts everything.
    std::function<bool(const std::string&)> owns_series;
    /// Responses with more matches than this stream as kMatchResponsePart
    /// chunks of this many matches, then a final (matchless)
    /// kQueryResponse — so a huge match set never has to fit one frame.
    /// The default keeps every part well under the 64 MiB payload cap;
    /// 0 disables streaming (single-frame responses only).
    size_t stream_chunk_matches = 2'000'000;
    /// Stop(): wall-clock budget for draining in-flight queries before
    /// the remaining ones are cancelled via their tokens (they then
    /// answer Cancelled and the drain completes). 0 waits forever.
    double drain_timeout_ms = 30'000.0;
    /// Slow-query log threshold: a query whose end-to-end latency reaches
    /// this emits its full trace (queue/probe/verify/serialize spans) as
    /// one structured JSON line. Tracing is forced server-side for every
    /// query while enabled, whether or not the client asked for a trace.
    /// 0 disables.
    double slow_query_ms = 0.0;
    /// Sink for slow-query log lines (no trailing newline). Defaults to
    /// stderr. Must be thread-safe: completions fire from pool workers.
    std::function<void(const std::string&)> slow_query_log;
    /// Optional event journal whose in-memory ring (the flight recorder)
    /// Stop() dumps when dump_events_on_stop is set — the last thing a
    /// crashing-but-graceful shutdown leaves behind. Not owned.
    EventLog* event_log = nullptr;
    bool dump_events_on_stop = false;
    /// Sink for dumped flight-recorder lines (no trailing newline).
    /// Defaults to stderr.
    std::function<void(const std::string&)> event_dump;
  };

  /// `catalog` resolves by-reference queries and LIST requests; `service`
  /// executes. Both must outlive the server.
  Server(Catalog* catalog, QueryService* service, Options options);
  /// Subclasses (a coordinator front-end) that reuse the transport —
  /// reactor, framing, HTTP sniffing, drain — but answer the request
  /// frames themselves. They MUST call Stop() in their own destructor:
  /// the base destructor's Stop() would run after the subclass members
  /// the virtual handlers touch are gone.
  virtual ~Server();  // calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the reactor thread.
  Status Start();

  /// Graceful shutdown: stop accepting and reading, drain in-flight
  /// queries, flush their responses, join every thread. Idempotent.
  void Stop();

  /// The bound port (after Start); useful with Options::port == 0.
  int port() const { return port_; }

  size_t ActiveConnections() const;

  /// The service's Prometheus-style dump plus one block per live
  /// connection (requests, QPS, connection age) — what a STATS frame
  /// returns. Subclasses answer with their own exposition.
  virtual std::string StatsText() const;

 protected:
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    uint64_t token = 0;  // event-loop registration
    std::chrono::steady_clock::time_point opened;

    /// Guards the fields workers share with the loop: the outbox and its
    /// byte gauge, the in-flight bookkeeping, and the activity clock.
    std::mutex mu;
    std::deque<std::string> outbox;  // encoded frames awaiting write
    size_t outbox_bytes = 0;         // sum of queued (unsent) bytes
    size_t front_written = 0;        // partial-write cursor into front()
    /// A flush has been posted to the loop and not yet run — coalesces
    /// the kicks of back-to-back completions into one loop entry.
    bool kick_pending = false;
    /// The fd is closed and the connection retired: enqueues are dropped
    /// (their request is still retired through the pending counters).
    bool closed = false;
    size_t pending = 0;  // submitted queries not yet enqueued
    /// Cancellation token per in-flight query, keyed by the client's
    /// request id; entries vanish when the response is enqueued. kCancel
    /// frames, disconnects, and the Stop() drain watchdog fire these.
    std::map<uint64_t, std::shared_ptr<CancelToken>> inflight;
    uint64_t requests = 0;  // served requests (stats)
    /// Last byte movement in either direction — inbound reads or write
    /// progress — so the idle reaper never closes a connection that is
    /// slowly draining a response.
    std::chrono::steady_clock::time_point last_activity;
    /// Last write progress, for the Stop() grace watchdog: a peer that
    /// stops reading during shutdown is abandoned after a bounded stall.
    std::chrono::steady_clock::time_point last_write_progress;

    // ---- loop-thread-only state ----
    FrameDecoder decoder;
    bool sniffed = false;    // first bytes classified HTTP vs frames
    bool http_mode = false;
    std::string http_buf;
    /// Suspend() ran (blocking ingest, a forwarded round trip): frame
    /// processing and reads stop until Resume(), so this connection's
    /// requests still run in the order they were sent.
    bool busy = false;
    /// Outbound (Dial) connections only: every decoded frame goes to
    /// on_frame instead of the request handlers, and on_close fires once
    /// with the reason when the connection closes.
    std::function<void(Frame)> on_frame;
    std::function<void(const Status&)> on_close;
    bool reads_paused = false;  // EPOLLIN disarmed (backpressure/busy)
    bool want_write = false;    // EPOLLOUT armed (partial write pending)
    /// No more input will be processed (peer EOF, fatal framing error,
    /// HTTP close, or server drain): the connection closes once pending
    /// responses have been enqueued and the outbox has flushed.
    bool input_done = false;
    bool dead = false;  // CloseConnection ran (loop-side mirror of closed)
  };

  /// Transport-only construction for subclasses: no catalog, no query
  /// service; every request handler below must be overridden. `registry`
  /// records connection/protocol/HTTP counters and must outlive the
  /// server.
  Server(StatsRegistry* registry, Options options);

  /// kQueryRequest. The base submits to the QueryService; a coordinator
  /// fans out to its shards. `received` is the frame-arrival instant —
  /// the anchor for deadline-budget accounting at this hop. Runs on the
  /// loop thread and must not block.
  virtual void HandleQuery(const std::shared_ptr<Connection>& conn,
                           uint64_t id, std::string_view body,
                           std::chrono::steady_clock::time_point received);
  /// kCreate/kAppend/kDrop: decodes on the loop thread, then runs the
  /// catalog write on the blocking-work thread via RunBlocking (catalog
  /// writes are serialized; other connections' queries keep flowing) and
  /// answers with kIngestResponse or kError.
  virtual void HandleIngest(const std::shared_ptr<Connection>& conn,
                            FrameType type, uint64_t id,
                            std::string_view body);
  /// kListRequest: the catalog directory (or the union of the shards').
  virtual void HandleList(const std::shared_ptr<Connection>& conn,
                          uint64_t id);
  /// kShardInfoRequest: this process's cluster identity.
  virtual void HandleShardInfo(const std::shared_ptr<Connection>& conn,
                               uint64_t id);

  /// Books `id` as in flight on `conn` (pending/requests/inflight under
  /// one lock). False — with nothing booked — when the id is already in
  /// flight; the caller must answer with an error instead of clobbering
  /// the first query's token.
  bool RegisterRequest(const std::shared_ptr<Connection>& conn, uint64_t id,
                       const std::shared_ptr<CancelToken>& token);
  /// Retires `id` and pushes its encoded response frames onto the outbox
  /// as one contiguous run, all under one critical section — a request
  /// stays pending until its terminal frame is enqueued, which the idle
  /// reaper and the Stop() drain both rely on. Safe from any thread.
  void CompleteRequest(const std::shared_ptr<Connection>& conn, uint64_t id,
                       std::vector<std::string> wires);
  /// Encodes `response` as its wire run: kMatchResponsePart chunks per
  /// options_.stream_chunk_matches followed by the final kQueryResponse
  /// (or a single typed kError). Shared by the base completion path and
  /// the coordinator's exact-series passthrough, so both produce
  /// byte-identical frame sequences.
  std::vector<std::string> EncodeResponseRun(uint64_t id,
                                             QueryResponse response,
                                             bool wants_trace) const;

  void Enqueue(const std::shared_ptr<Connection>& conn, const Frame& frame);
  /// Pushes pre-encoded bytes (an HTTP response) onto the outbox and
  /// kicks the loop. Safe from any thread.
  void EnqueueRaw(const std::shared_ptr<Connection>& conn, std::string wire);
  void SendError(const std::shared_ptr<Connection>& conn, uint64_t id,
                 const Status& status);

  /// Hands `work` to the blocking-work thread with this connection's
  /// frame processing suspended until it finishes; per-connection frame
  /// order is preserved exactly as if the work had run inline on a
  /// dedicated reader, but the reactor keeps serving every other
  /// connection meanwhile. Loop thread only (request handlers). `work`
  /// may Enqueue/CompleteRequest/SendError; it must not touch
  /// loop-thread-only state.
  void RunBlocking(const std::shared_ptr<Connection>& conn,
                   std::function<void()> work);
  /// Stops processing this connection's frames (loop thread) until
  /// Resume(), which may be called from any thread and picks up the
  /// buffered frames in order on a later loop pass.
  void Suspend(const std::shared_ptr<Connection>& conn);
  void Resume(const std::shared_ptr<Connection>& conn);

  /// Opens a nonblocking outbound connection to host:port on the loop.
  /// Frames queued with EnqueueRaw() before the connect completes are
  /// sent once it does; decoded frames go to `on_frame`; `on_close`
  /// fires once, with the reason, when the connection closes for any
  /// cause (refused connect, EOF, corrupt stream, CloseConnection). Loop
  /// thread only. Outbound connections are not client connections:
  /// they do not count against max_connections, the idle reaper and the
  /// drain leave them open, and Stop() closes them last.
  Result<std::shared_ptr<Connection>> Dial(
      const std::string& host, int port,
      std::function<void(Frame)> on_frame,
      std::function<void(const Status&)> on_close);
  /// Closes the fd, retires the connection, cancels its in-flight
  /// queries and fires an outbound connection's on_close(why). Loop
  /// thread only; idempotent.
  void CloseConnection(const std::shared_ptr<Connection>& conn,
                       const Status& why = Status::IOError(
                           "connection closed"));

  /// Fires the cancellation of in-flight request `id` on `conn` — for a
  /// kCancel frame, a disconnect, or the Stop() drain watchdog. Loop
  /// thread. The base fires `token`; a subclass that forwards requests
  /// elsewhere also passes the cancel on.
  virtual void CancelRequest(const std::shared_ptr<Connection>& conn,
                             uint64_t id, CancelToken& token);
  /// Periodic loop work for subclasses (timeouts), every tick.
  virtual void OnLoopTick(std::chrono::steady_clock::time_point now);

  const Options& options() const { return options_; }
  StatsRegistry* registry() const { return registry_; }

 private:
  // ---- loop-thread handlers ----
  void OnAcceptable();
  void OnConnectionEvent(const std::shared_ptr<Connection>& conn,
                         uint32_t events);
  void OnReadable(const std::shared_ptr<Connection>& conn);
  /// Drains decoded frames (and buffered HTTP requests) until the
  /// decoder runs dry or the connection suspends/dies.
  void ProcessInput(const std::shared_ptr<Connection>& conn);
  void ProcessHttp(const std::shared_ptr<Connection>& conn);
  /// writev-drains the outbox until EAGAIN, empty, or the fairness cap;
  /// arms/disarms EPOLLOUT, resumes backpressured reads, and performs
  /// the deferred close once a finished connection has flushed.
  void FlushOutbox(const std::shared_ptr<Connection>& conn);
  /// Loop-side landing of an enqueue kick: clears the coalescing flag and
  /// flushes.
  void KickFlush(const std::shared_ptr<Connection>& conn);
  /// Re-arms EPOLLIN on a backpressured connection once its outbox has
  /// drained below half the cap.
  void MaybeResumeReads(const std::shared_ptr<Connection>& conn);
  /// Recomputes and applies the epoll interest mask from the
  /// paused/busy/input_done/want_write flags.
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  /// True when every response owed has been enqueued AND flushed and no
  /// blocking work is suspended on this connection.
  bool ReadyToClose(const std::shared_ptr<Connection>& conn);
  /// Periodic loop work: idle reaping, drain-mode closes, the shutdown
  /// write-stall watchdog, refused-connection timeouts, and the loop
  /// counters' export to the registry.
  void OnTick();
  /// Runs on the loop at the head of Stop(): stops accepting, marks every
  /// connection input_done, restarts the write-stall grace clocks. After
  /// it returns, no new connection or request can register.
  void EnterDrain();

  void HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  /// kCancel: cancels the in-flight query with this id on this
  /// connection (a no-op if it already completed — that race is inherent).
  void HandleCancel(const std::shared_ptr<Connection>& conn, uint64_t id);
  /// Cancels every in-flight query on every connection (drain watchdog).
  /// Loop thread.
  void CancelAllInFlight();

  /// Answers one plain-HTTP request (`head` is everything up to the blank
  /// line). Returns true to keep the connection open for the next request
  /// (the client sent Connection: keep-alive), false to close after the
  /// response flushes.
  bool HandleHttp(const std::shared_ptr<Connection>& conn,
                  std::string_view head);

  /// Over-limit courtesy refusal: flushes the error frame from the loop
  /// without ever becoming a tracked connection.
  void RefuseConnection(int fd);

  /// Refused-over-limit sockets still flushing their courtesy error
  /// frame. Loop thread only.
  struct Refusal {
    int fd = -1;
    uint64_t token = 0;
    std::string wire;
    size_t written = 0;
    std::chrono::steady_clock::time_point since;
  };
  void FlushRefusal(const std::shared_ptr<Refusal>& refusal);

  Catalog* catalog_;
  QueryService* service_;
  StatsRegistry* registry_;
  Options options_;

  int listen_fd_ = -1;
  uint64_t listen_token_ = 0;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  // Loop-thread-only state.
  bool draining_ = false;       // EnterDrain ran: shutting down
  bool accept_paused_ = false;  // fd-exhaustion backoff on the listener
  std::chrono::steady_clock::time_point last_tick_{};

  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;

  /// Requests accepted (RegisterRequest) and not yet completed, across
  /// every connection including already-closed ones — what the Stop()
  /// drain waits on. The decrement is CompleteRequest's final action, so
  /// observing 0 means no completion callback will touch `this` again.
  std::atomic<size_t> total_pending_{0};

  // ---- blocking-work helper (single thread, FIFO: preserves catalog
  // write order across connections exactly like the old inline path) ----
  void BlockingWorker();
  std::thread blocking_thread_;
  std::mutex blocking_mu_;
  std::condition_variable blocking_cv_;
  std::deque<std::function<void()>> blocking_queue_;
  bool blocking_stop_ = false;

  /// Loop thread only (Stop() sweeps leftovers after the loop is joined).
  std::map<uint64_t, std::shared_ptr<Refusal>> refusals_;  // by loop token
  std::set<std::shared_ptr<Connection>> outbound_;  // Dial()ed, still open

  mutable std::mutex conns_mu_;
  std::map<uint64_t, std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;
};

}  // namespace net
}  // namespace kvmatch

#endif  // KVMATCH_NET_SERVER_H_
