// A single-threaded epoll reactor: one thread owns an epoll instance and
// every socket registered with it, dispatching readiness callbacks from
// Run(). Other threads never touch the fds directly — they hand work to
// the loop with Post(), which enqueues a closure and wakes the loop
// through an eventfd. This is the pazpar2 eventl.c shape: all I/O
// multiplexed on one thread, blocking work pushed out to helpers that
// re-enter the loop via the wakeup pipe.
//
// Registrations are keyed by an opaque token rather than the fd itself:
// a callback may close and unregister any fd (including one with events
// still queued in the current dispatch batch), and a token is never
// reused, so a stale event for a closed fd is recognized and dropped
// instead of being delivered to whatever connection inherited the fd
// number.
//
// Thread contract: Add/Mod/Del and the callbacks run on the loop thread
// only (Add is also safe before Run() starts). Post(), RequestStop() and
// the counters are safe from any thread.
#ifndef KVMATCH_NET_EVENT_LOOP_H_
#define KVMATCH_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace kvmatch {
namespace net {

class EventLoop {
 public:
  /// Receives the epoll event mask (EPOLLIN/EPOLLOUT/EPOLLHUP/...).
  using Callback = std::function<void(uint32_t)>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and the eventfd wakeup. Must succeed
  /// before any other call.
  Status Init();

  /// Registers `fd` for `events` and returns its token (never 0).
  uint64_t Add(int fd, uint32_t events, Callback callback);
  /// Replaces the interest mask of a registration.
  void Mod(uint64_t token, uint32_t events);
  /// Unregisters; the caller still owns (and closes) the fd.
  void Del(uint64_t token);

  /// Enqueues `fn` to run on the loop thread and wakes the loop. Safe
  /// from any thread, including the loop thread itself (the closure then
  /// runs within the current or next iteration, never recursively).
  void Post(std::function<void()> fn);

  /// Dispatches events until RequestStop(). `on_tick` runs after every
  /// epoll_wait return — readiness batch or timeout — so periodic work
  /// (idle reaping, drain progress) happens at least every `tick_ms`.
  void Run(int tick_ms, const std::function<void()>& on_tick);

  /// Makes Run() return after the current iteration. Any thread.
  void RequestStop();

  // Observability: epoll_wait returns and eventfd wakeups (Post calls
  // that actually had to prod the loop).
  uint64_t iterations() const {
    return iterations_.load(std::memory_order_relaxed);
  }
  uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
  struct Handler {
    int fd = -1;
    uint32_t events = 0;
    Callback callback;
  };

  void DrainWakeup();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint64_t next_token_ = 1;
  std::map<uint64_t, Handler> handlers_;  // loop thread only

  std::atomic<bool> stop_{false};

  std::mutex posted_mu_;
  std::vector<std::function<void()>> posted_;
  /// True while an eventfd write is pending/unconsumed — coalesces the
  /// wakeup writes of back-to-back Posts into one syscall.
  std::atomic<bool> wake_pending_{false};

  std::atomic<uint64_t> iterations_{0};
  std::atomic<uint64_t> wakeups_{0};
};

}  // namespace net
}  // namespace kvmatch

#endif  // KVMATCH_NET_EVENT_LOOP_H_
