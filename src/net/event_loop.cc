#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace kvmatch {
namespace net {

namespace {
/// Events harvested per epoll_wait call. Level-triggered registrations
/// re-fire, so a batch smaller than the ready set only delays, never
/// loses, readiness.
constexpr int kMaxEvents = 128;
/// handlers_ token reserved for the eventfd wakeup.
constexpr uint64_t kWakeToken = 0;
}  // namespace

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
  }
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(wakeup): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

uint64_t EventLoop::Add(int fd, uint32_t events, Callback callback) {
  const uint64_t token = next_token_++;
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.u64 = token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) return 0;
  handlers_[token] = Handler{fd, events, std::move(callback)};
  return token;
}

void EventLoop::Mod(uint64_t token, uint32_t events) {
  auto it = handlers_.find(token);
  if (it == handlers_.end() || it->second.events == events) return;
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.u64 = token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, it->second.fd, &ev) == 0) {
    it->second.events = events;
  }
}

void EventLoop::Del(uint64_t token) {
  auto it = handlers_.find(token);
  if (it == handlers_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  handlers_.erase(it);
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  if (!wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    const uint64_t one = 1;
    // A full eventfd counter (impossible here) would mean a wakeup is
    // already pending anyway.
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void EventLoop::DrainWakeup() {
  uint64_t drained = 0;
  (void)!::read(wake_fd_, &drained, sizeof(drained));
  wake_pending_.store(false, std::memory_order_release);
  wakeups_.fetch_add(1, std::memory_order_relaxed);
}

void EventLoop::Run(int tick_ms, const std::function<void()>& on_tick) {
  struct epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, tick_ms);
    iterations_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const uint64_t token = events[i].data.u64;
      if (token == kWakeToken) {
        DrainWakeup();
        continue;
      }
      // A peer callback in this same batch may have unregistered this
      // token (closed the connection): the event is stale, drop it.
      auto it = handlers_.find(token);
      if (it == handlers_.end()) continue;
      // Invoke a copy: the callback may Del() its own registration
      // (closing the connection), which would otherwise destroy the
      // std::function out from under its executing frame.
      const Callback cb = it->second.callback;
      cb(events[i].events);
    }
    // Posted closures AFTER readiness callbacks: a completion posted by a
    // worker mid-batch sees the connection state those callbacks left.
    for (;;) {
      std::vector<std::function<void()>> batch;
      {
        std::lock_guard<std::mutex> lock(posted_mu_);
        batch.swap(posted_);
      }
      if (batch.empty()) break;
      for (auto& fn : batch) fn();
    }
    if (on_tick) on_tick();
  }
}

void EventLoop::RequestStop() {
  stop_.store(true, std::memory_order_release);
  Post([] {});  // wake the loop so it observes the flag promptly
}

}  // namespace net
}  // namespace kvmatch
