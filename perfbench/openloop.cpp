#include "openloop.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <stdexcept>

namespace perfbench {

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void tighten_timer_slack() { (void)prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

namespace {

std::string request_bytes(const std::string& method, const std::string& path,
                          const std::string& body) {
  std::string out = method + " " + path +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty()) {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

int open_socket(std::uint16_t port, bool* connected) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    *connected = true;
    return fd;
  }
  if (errno == EINPROGRESS) {
    *connected = false;
    return fd;
  }
  ::close(fd);
  return -1;
}

/// Splits a complete HTTP response into status and body. False when the
/// bytes are not a well-formed response with a matching Content-Length.
bool parse_response(const std::string& raw, int* status, std::string* body) {
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.compare(0, 9, "HTTP/1.1 ") != 0 ||
      raw.size() < 12) {
    return false;
  }
  int code = 0;
  for (std::size_t i = 9; i < 12; ++i) {
    if (raw[i] < '0' || raw[i] > '9') return false;
    code = code * 10 + (raw[i] - '0');
  }
  const std::size_t body_start = head_end + 4;
  std::size_t length = raw.size() - body_start;
  for (std::size_t pos = raw.find("\r\n"); pos < head_end;
       pos = raw.find("\r\n", pos + 2)) {
    static constexpr char kName[] = "content-length:";
    if (pos + 2 + sizeof(kName) - 1 > head_end) break;
    bool match = true;
    for (std::size_t i = 0; i + 1 < sizeof(kName) && match; ++i) {
      match = std::tolower(static_cast<unsigned char>(raw[pos + 2 + i])) ==
              kName[i];
    }
    if (match) {
      length = std::strtoull(raw.c_str() + pos + 2 + sizeof(kName) - 1,
                             nullptr, 10);
    }
  }
  if (raw.size() - body_start != length) return false;
  *status = code;
  *body = raw.substr(body_start);
  return true;
}

struct Slot {
  int fd = -1;
  bool connected = false;
  bool scrape = false;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  Exchange* exchange = nullptr;
};

class Loop {
 public:
  Loop(const OpenLoopOptions& options, std::size_t slots)
      : options_(options),
        slots_(slots),
        epoll_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (epoll_ < 0) throw std::runtime_error("epoll_create1 failed");
  }
  ~Loop() {
    for (Slot& slot : slots_) {
      if (slot.fd >= 0) ::close(slot.fd);
    }
    ::close(epoll_);
  }
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  bool busy(std::size_t s) const { return slots_[s].fd >= 0; }
  /// Busy slots among the first `limit`.
  std::size_t active(std::size_t limit) const {
    std::size_t n = 0;
    for (std::size_t s = 0; s < limit && s < slots_.size(); ++s) {
      n += busy(s) ? 1 : 0;
    }
    return n;
  }

  void start(std::size_t s, Exchange* exchange, std::string bytes,
             bool scrape) {
    Slot& slot = slots_[s];
    slot.exchange = exchange;
    slot.scrape = scrape;
    slot.out = std::move(bytes);
    slot.out_off = 0;
    slot.in.clear();
    exchange->start = now_ns();
    slot.fd = open_socket(options_.port, &slot.connected);
    if (slot.fd < 0) {
      fail(slot, Exchange::Failure::kConnect);
      return;
    }
    if (slot.connected) {
      exchange->connected = now_ns();
      if (!write_some(slot)) return;
    }
    epoll_event event{};
    event.events = slot.connected && slot.out_off == slot.out.size()
                       ? EPOLLIN
                       : EPOLLOUT;
    event.data.u64 = s;
    if (::epoll_ctl(epoll_, EPOLL_CTL_ADD, slot.fd, &event) != 0) {
      fail(slot, Exchange::Failure::kIo);
    }
  }

  /// Waits until `deadline` (absolute ns) or an event, then services
  /// every ready socket.
  void wait_and_service(std::uint64_t deadline) {
    const std::uint64_t now = now_ns();
    const std::uint64_t wait = deadline > now ? deadline - now : 0;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000ULL);
    ts.tv_nsec = static_cast<long>(wait % 1'000'000'000ULL);
    epoll_event events[16];
    const int n = ::epoll_pwait2(epoll_, events, 16, &ts, nullptr);
    for (int i = 0; i < n; ++i) {
      Slot& slot = slots_[events[i].data.u64];
      if (slot.fd < 0) continue;
      service(slot, events[i].events);
    }
  }

  void expire(std::uint64_t now) {
    for (Slot& slot : slots_) {
      if (slot.fd >= 0 && now - slot.exchange->start > options_.timeout_ns) {
        fail(slot, Exchange::Failure::kTimeout);
      }
    }
  }

  std::uint64_t earliest_timeout() const {
    std::uint64_t earliest = UINT64_MAX;
    for (const Slot& slot : slots_) {
      if (slot.fd >= 0) {
        earliest =
            std::min(earliest, slot.exchange->start + options_.timeout_ns);
      }
    }
    return earliest;
  }

 private:
  void service(Slot& slot, std::uint32_t events) {
    if (!slot.connected) {
      int error = 0;
      socklen_t len = sizeof(error);
      (void)getsockopt(slot.fd, SOL_SOCKET, SO_ERROR, &error, &len);
      if (error != 0) {
        fail(slot, Exchange::Failure::kConnect);
        return;
      }
      slot.connected = true;
      slot.exchange->connected = now_ns();
    }
    if (slot.out_off < slot.out.size()) {
      if (!write_some(slot)) return;
      if (slot.out_off == slot.out.size()) {
        epoll_event event{};
        event.events = EPOLLIN;
        event.data.u64 = static_cast<std::uint64_t>(&slot - slots_.data());
        (void)::epoll_ctl(epoll_, EPOLL_CTL_MOD, slot.fd, &event);
      }
      return;
    }
    if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) return;
    char buffer[16384];
    for (;;) {
      const ssize_t got = ::recv(slot.fd, buffer, sizeof(buffer), 0);
      if (got > 0) {
        if (slot.in.empty()) slot.exchange->first_byte = now_ns();
        slot.in.append(buffer, static_cast<std::size_t>(got));
        continue;
      }
      if (got == 0) {
        finish(slot);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      // A reset after a complete response still counts as answered.
      finish(slot);
      return;
    }
  }

  bool write_some(Slot& slot) {
    while (slot.out_off < slot.out.size()) {
      const ssize_t put =
          ::send(slot.fd, slot.out.data() + slot.out_off,
                 slot.out.size() - slot.out_off, MSG_NOSIGNAL);
      if (put > 0) {
        slot.out_off += static_cast<std::size_t>(put);
        continue;
      }
      if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (put < 0 && errno == EINTR) continue;
      fail(slot, Exchange::Failure::kIo);
      return false;
    }
    slot.exchange->sent = now_ns();
    return true;
  }

  void finish(Slot& slot) {
    Exchange& exchange = *slot.exchange;
    exchange.done = now_ns();
    int status = 0;
    std::string body;
    if (parse_response(slot.in, &status, &body)) {
      exchange.status = status;
      if (options_.keep_bodies || slot.scrape) exchange.body = std::move(body);
    } else {
      exchange.failure = Exchange::Failure::kMalformed;
    }
    close_slot(slot);
  }

  void fail(Slot& slot, Exchange::Failure failure) {
    slot.exchange->done = now_ns();
    slot.exchange->failure = failure;
    close_slot(slot);
  }

  void close_slot(Slot& slot) {
    if (slot.fd >= 0) {
      (void)::epoll_ctl(epoll_, EPOLL_CTL_DEL, slot.fd, nullptr);
      ::close(slot.fd);
    }
    slot.fd = -1;
    slot.connected = false;
    slot.out.clear();
    slot.in.clear();
  }

  const OpenLoopOptions& options_;
  std::vector<Slot> slots_;
  int epoll_;
};

}  // namespace

PhaseRun run_open_loop(const std::vector<ScheduledRequest>& schedule,
                       const OpenLoopOptions& options) {
  tighten_timer_slack();
  PhaseRun run;
  const std::size_t scrape_slot = options.max_inflight;
  Loop loop(options, options.max_inflight + 1);
  run.requests.resize(schedule.size());
  const std::uint64_t span_ns =
      schedule.empty() ? 0 : schedule.back().due_ns + 1;
  const std::uint64_t scrape_period =
      options.scrape_hz > 0.0
          ? static_cast<std::uint64_t>(1e9 / options.scrape_hz)
          : 0;
  if (scrape_period != 0) {
    run.scrapes.resize(span_ns / scrape_period + 1);
  }
  run.start_ns = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    run.requests[i].due = run.start_ns + schedule[i].due_ns;
  }
  for (std::size_t i = 0; i < run.scrapes.size(); ++i) {
    run.scrapes[i].due = run.start_ns + i * scrape_period;
  }
  const std::string scrape_bytes = request_bytes("GET", "/metrics", "");

  std::size_t next = 0;
  std::size_t next_scrape = 0;
  bool stopped = false;
  bool resumed = options.stall_pid == 0;
  const std::uint64_t stall_at = run.start_ns + options.stall_at_ns;
  const std::uint64_t resume_at = stall_at + options.stall_ns;
  for (;;) {
    std::uint64_t now = now_ns();
    if (!resumed) {
      if (!stopped && now >= stall_at) {
        (void)::kill(options.stall_pid, SIGSTOP);
        stopped = true;
      }
      if (stopped && now >= resume_at) {
        (void)::kill(options.stall_pid, SIGCONT);
        resumed = true;
      }
    }
    loop.expire(now);
    for (std::size_t s = 0; s < options.max_inflight && next < schedule.size();
         ++s) {
      if (loop.busy(s) || run.requests[next].due > now) continue;
      loop.start(s, &run.requests[next],
                 request_bytes("POST", "/locate", schedule[next].body),
                 false);
      ++next;
    }
    if (next_scrape < run.scrapes.size() && !loop.busy(scrape_slot) &&
        run.scrapes[next_scrape].due <= now) {
      loop.start(scrape_slot, &run.scrapes[next_scrape], scrape_bytes, true);
      ++next_scrape;
    }
    const std::size_t active = loop.active(options.max_inflight + 1);
    run.inflight_max = std::max(run.inflight_max, active);
    if (next == schedule.size() && next_scrape == run.scrapes.size() &&
        active == 0) {
      break;
    }
    now = now_ns();
    std::uint64_t wake = loop.earliest_timeout();
    if (next < schedule.size() &&
        loop.active(options.max_inflight) < options.max_inflight) {
      wake = std::min(wake, run.requests[next].due);
    }
    if (next_scrape < run.scrapes.size()) {
      wake = std::min(wake, run.scrapes[next_scrape].due);
    }
    if (!resumed) wake = std::min(wake, stopped ? resume_at : stall_at);
    loop.wait_and_service(wake);
  }
  if (stopped && !resumed) (void)::kill(options.stall_pid, SIGCONT);
  return run;
}

Exchange fetch(std::uint16_t port, const std::string& method,
               const std::string& path, const std::string& body,
               std::uint64_t timeout_ns) {
  OpenLoopOptions options;
  options.port = port;
  options.timeout_ns = timeout_ns;
  Exchange exchange;
  exchange.due = now_ns();
  {
    Loop loop(options, 1);
    loop.start(0, &exchange, request_bytes(method, path, body), false);
    while (loop.busy(0)) {
      loop.expire(now_ns());
      if (!loop.busy(0)) break;
      loop.wait_and_service(loop.earliest_timeout());
    }
  }
  return exchange;
}

}  // namespace perfbench
