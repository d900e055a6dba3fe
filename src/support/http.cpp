#include "support/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "support/metrics.h"
#include "support/slo_controller.h"
#include "support/text.h"
#include "support/trace.h"

namespace confcall::support {
namespace {

// The "C" locale's isspace and tolower, which the request grammar has
// always used: ASCII only, whatever the process locale.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

constexpr char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

/// The next whitespace-delimited token of `line` from `*pos`; empty
/// when only whitespace is left.
std::string_view next_token(std::string_view line, std::size_t* pos) noexcept {
  std::size_t b = *pos;
  while (b < line.size() && is_space(line[b])) ++b;
  std::size_t e = b;
  while (e < line.size() && !is_space(line[e])) ++e;
  *pos = e;
  return line.substr(b, e - b);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::uint64_t now_ns() { return SteadyClockSource::shared().now_ns(); }

// One allocation: the head is small next to the reserve for the body.
std::string render_response(const HttpResponse& response) {
  std::string out;
  out.reserve(128 + response.content_type.size() + response.body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += http_status_reason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpResponse plain_status(int status, const std::string& body) {
  HttpResponse response;
  response.status = status;
  response.body = body + "\n";
  return response;
}

// Strict Content-Length: decimal digits only, no sign, no whitespace,
// no trailing junk, bounded width. std::stoul would accept "+5", " 5"
// and "5x" — exactly the ambiguity request-smuggling rides on.
[[nodiscard]] bool parse_content_length(std::string_view text,
                                        std::size_t* out) {
  if (text.empty() || text.size() > 19) return false;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, *out);
  return error == std::errc{} && stop == end;
}

}  // namespace

namespace detail {

// One scan over the bytes the slot holds: views into the buffer, and a
// std::string only for each field HttpRequest keeps.
RequestParse parse_request(std::string_view buffer, std::size_t* header_end,
                           const HttpServerOptions& options,
                           HttpRequest* request, HttpResponse* error) {
  if (buffer.size() > options.max_request_bytes) {
    // Before the blank line this is a runaway header block (431);
    // after it, body bytes pushed past the cap (413).
    *error = *header_end == std::string_view::npos
                 ? plain_status(431, "header block too large")
                 : plain_status(413, "request body too large");
    return RequestParse::kRejected;
  }
  if (*header_end == std::string_view::npos) {
    *header_end = buffer.find("\r\n\r\n");
    if (*header_end == std::string_view::npos) return RequestParse::kNeedMore;
  }
  // Headers complete: parse enough to know the body length. The request
  // line is three whitespace-separated tokens; more are ignored.
  const std::string_view head = buffer.substr(0, *header_end);
  const std::size_t line_end = std::min(head.find('\n'), head.size());
  std::string_view request_line = head.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.remove_suffix(1);
  }
  std::size_t at = 0;
  const std::string_view method = next_token(request_line, &at);
  const std::string_view target = next_token(request_line, &at);
  const std::string_view version = next_token(request_line, &at);
  if (!version.starts_with("HTTP/1.")) {
    *error = plain_status(400, "malformed request line");
    return RequestParse::kRejected;
  }
  request->method = method;
  // Header lines: a name before the first ':' (trimmed, lower-cased) and
  // a trimmed value; a line without ':' is skipped.
  request->headers.clear();
  request->headers.reserve(
      static_cast<std::size_t>(std::count(head.begin(), head.end(), '\n')));
  std::string_view length_header;
  bool length_seen = false;
  for (std::size_t line_start = line_end + 1; line_start < head.size();) {
    const std::size_t end = std::min(head.find('\n', line_start), head.size());
    std::string_view line = head.substr(line_start, end - line_start);
    line_start = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string& name = request->headers
                            .emplace_back(trim(line.substr(0, colon)),
                                          trim(line.substr(colon + 1)))
                            .first;
    for (char& c : name) c = ascii_lower(c);
    if (!length_seen && name == "content-length") {
      length_seen = true;
      length_header = trim(line.substr(colon + 1));
    }
  }
  const std::size_t query_pos = target.find('?');
  request->path = target.substr(0, query_pos);
  request->query = query_pos == std::string_view::npos
                       ? std::string_view{}
                       : target.substr(query_pos + 1);
  // Missing Content-Length means an empty body (every scraper GET and
  // the bodyless curl -X POST smoke path); a present but non-numeric
  // one is malformed, not zero.
  std::size_t content_length = 0;
  if (!length_header.empty() &&
      !parse_content_length(length_header, &content_length)) {
    *error = plain_status(400, "bad Content-Length");
    return RequestParse::kRejected;
  }
  const std::size_t body_start = *header_end + 4;
  if (content_length > options.max_request_bytes ||
      body_start + content_length > options.max_request_bytes) {
    // The headers fit; the declared payload does not. Reject from the
    // declaration alone — never read a body the cap already rules out.
    *error = plain_status(413, "request body too large");
    return RequestParse::kRejected;
  }
  if (buffer.size() < body_start + content_length) {
    return RequestParse::kNeedMore;
  }
  request->body = buffer.substr(body_start, content_length);
  return RequestParse::kComplete;
}

}  // namespace detail

namespace {

// Lingering close after a rejected request. The peer may still be
// sending (a slow-loris drip, a header flood, a pipelined request), and
// closing a socket with unread input makes the kernel answer with an RST
// instead of a FIN, which can discard the error response before the
// client reads it. So: half-close (the response ends with a FIN), then
// drain the peer's input until it closes too, or for at most kLingerNs /
// kLingerBytes, whichever comes first.
constexpr std::uint64_t kLingerNs = 100'000'000;  // 100 ms
constexpr std::size_t kLingerBytes = 1 << 18;     // 256 KiB

// epoll keys of the two shared descriptors; a slot's key is its index.
constexpr std::uint64_t kListenKey = ~std::uint64_t{0};
constexpr std::uint64_t kWakeKey = kListenKey - 1;

// The reject classes of confcall_http_rejections_total, by status;
// queue_full stays last (HttpServer::connections_shed reads it).
constexpr std::pair<int, const char*> kRejectClasses[] = {
    {400, "malformed"},        {408, "slow_client"}, {413, "body_too_large"},
    {431, "header_too_large"}, {503, "queue_full"},
};

/// One open connection of a loop.
struct Slot {
  enum class Phase { kReading, kWriting, kLingering };

  int fd = -1;  ///< -1 = free
  Phase phase = Phase::kReading;
  std::uint32_t events = 0;  ///< epoll interest; 0 = not in the set
  bool rejected = false;     ///< ends in a lingering close
  /// Read deadline, write-stall deadline or linger end, by phase.
  std::uint64_t deadline_ns = 0;
  std::string in;
  std::size_t header_end = std::string::npos;
  std::string out;
  std::size_t done = 0;  ///< bytes written, then bytes drained lingering
};

}  // namespace

/// One event loop: an epoll set over the shared listener, the wake
/// eventfd and this loop's slots. Built by start(), then owned and run
/// by one thread until stop() drains it.
class HttpServer::Loop {
 public:
  explicit Loop(HttpServer& server)
      : server_(server),
        options_(server.options_),
        epoll_(::epoll_create1(EPOLL_CLOEXEC)),
        slots_(2 * options_.max_pending_connections) {
    if (epoll_ < 0) throw_errno("HttpServer: epoll_create1");
    epoll_event wake{};
    wake.events = EPOLLIN;
    wake.data.u64 = kWakeKey;
    if (::epoll_ctl(epoll_, EPOLL_CTL_ADD, server_.wake_fd_, &wake) != 0) {
      ::close(epoll_);
      throw_errno("HttpServer: epoll_ctl");
    }
    set_listening(true);
  }
  ~Loop() { ::close(epoll_); }  // run() returns only with every slot closed
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  /// Serves until stop() is signalled and the last open slot closes.
  void run() {
    int timeout_ms = -1;  // no open slot: sleep until an event
    epoll_event events[64];
    while (!draining_ || open_ > 0) {
      const int n = ::epoll_wait(epoll_, events, 64, timeout_ms);
      bool acceptable = false;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t key = events[i].data.u64;
        if (key == kWakeKey) {
          // stop(): take what the backlog already holds, then no more.
          draining_ = true;
          (void)::epoll_ctl(epoll_, EPOLL_CTL_DEL, server_.wake_fd_, nullptr);
        }
        if (key == kListenKey || key == kWakeKey) {
          acceptable = true;
        } else if (slots_[key].fd >= 0) {
          advance(slots_[key]);
        }
      }
      // After the slot events, so a slot freed above is never reused
      // while a stale event for it is still in this batch.
      if (acceptable) accept_ready(draining_);
      if (draining_) set_listening(false);
      // Sleep until the nearest deadline, rounded up: waking before it
      // would only spin.
      timeout_ms = -1;
      const std::uint64_t now = now_ns();
      for (Slot& slot : slots_) {
        if (slot.fd >= 0 && slot.deadline_ns <= now) expire(slot);
        if (slot.fd < 0) continue;
        const auto wait = static_cast<int>(std::min<std::uint64_t>(
            (slot.deadline_ns - now + 999'999) / 1'000'000, 1 << 30));
        if (timeout_ms < 0 || wait < timeout_ms) timeout_ms = wait;
      }
    }
  }

 private:
  void set_listening(bool on) {
    if (on == listening_) return;
    listening_ = on;
    // EPOLLEXCLUSIVE: with several loops, a connection wakes one of them.
    epoll_event listen{};
    listen.events = EPOLLIN | EPOLLEXCLUSIVE;
    listen.data.u64 = kListenKey;
    (void)::epoll_ctl(epoll_, on ? EPOLL_CTL_ADD : EPOLL_CTL_DEL,
                      server_.listen_fd_, &listen);
  }

  /// Accepts one connection (the listener stays ready while more wait),
  /// or with `backlog` every connection already queued.
  void accept_ready(bool backlog) {
    while (listening_) {
      if (open_ == slots_.size()) {
        set_listening(false);  // the kernel backlog holds the rest
        return;
      }
      const int fd = ::accept4(server_.listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0 && (errno == EINTR || errno == ECONNABORTED)) continue;
      if (fd < 0) return;  // EAGAIN: the backlog is empty
      Slot& slot = *std::find_if(slots_.begin(), slots_.end(),
                                 [](const Slot& s) { return s.fd < 0; });
      slot.fd = fd;
      ++open_;
      if (++serving_ > options_.max_pending_connections) {
        reject(slot, plain_status(503, "connection queue full"));
      } else {
        slot.deadline_ns = now_ns() + options_.read_deadline_ns;
      }
      advance(slot);  // the request is often already here
      if (!backlog) return;
    }
  }

  /// Moves a slot through its phases as far as its socket allows.
  void advance(Slot& slot) {
    char chunk[4096];
    while (slot.fd >= 0) {
      const bool writing = slot.phase == Slot::Phase::kWriting;
      // MSG_NOSIGNAL keeps a dead peer an errno, never a SIGPIPE.
      const ssize_t n =
          writing ? ::send(slot.fd, slot.out.data() + slot.done,
                           slot.out.size() - slot.done, MSG_NOSIGNAL)
                  : ::recv(slot.fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // EPOLLOUT fires only with room to write, so every wake-up makes
        // progress and re-arms the stall deadline.
        if (writing) slot.deadline_ns = now_ns() + options_.read_deadline_ns;
        watch(slot, writing ? EPOLLOUT : EPOLLIN);
        return;
      }
      if (n > 0 && slot.phase == Slot::Phase::kReading) {
        slot.in.append(chunk, static_cast<std::size_t>(n));
        HttpRequest request;
        HttpResponse error;
        const detail::RequestParse parsed = detail::parse_request(
            slot.in, &slot.header_end, options_, &request, &error);
        if (parsed == detail::RequestParse::kRejected) reject(slot, error);
        if (parsed != detail::RequestParse::kComplete) continue;
        respond(slot, server_.dispatch(request));
        server_.requests_served_.fetch_add(1, std::memory_order_relaxed);
      } else if (n > 0 && writing) {
        slot.done += static_cast<std::size_t>(n);
        if (slot.done < slot.out.size()) continue;
        if (!slot.rejected) {
          close_slot(slot);
          return;
        }
        (void)::shutdown(slot.fd, SHUT_WR);  // a lingering close
        slot.phase = Slot::Phase::kLingering;
        slot.deadline_ns = now_ns() + kLingerNs;
        slot.done = 0;
      } else if (n > 0) {
        slot.done += static_cast<std::size_t>(n);
        if (slot.done >= kLingerBytes) close_slot(slot);
      } else if (slot.phase == Slot::Phase::kReading) {
        reject(slot, plain_status(400, n == 0 ? "connection closed mid-request"
                                              : "read error"));
      } else {
        // EPIPE/ECONNRESET while writing: nobody is left to answer.
        // While lingering, the peer closed: nothing left to protect.
        if (writing) server_.send_failed_metric_.inc();
        close_slot(slot);
      }
    }
  }

  void reject(Slot& slot, const HttpResponse& error) {
    server_.count_rejection(error.status);
    slot.rejected = true;
    --serving_;
    respond(slot, error);
  }

  void respond(Slot& slot, const HttpResponse& response) {
    slot.phase = Slot::Phase::kWriting;
    slot.out = render_response(response);
    slot.done = 0;
  }

  void expire(Slot& slot) {
    if (slot.phase == Slot::Phase::kReading) {
      reject(slot, plain_status(408, "request read deadline exceeded"));
      advance(slot);
      return;
    }
    // A stalled write: the peer stopped reading.
    if (slot.phase == Slot::Phase::kWriting) server_.send_failed_metric_.inc();
    close_slot(slot);
  }

  void watch(Slot& slot, std::uint32_t events) {
    if (slot.events == events) return;
    epoll_event event{};
    event.events = events;
    event.data.u64 = static_cast<std::uint64_t>(&slot - slots_.data());
    (void)::epoll_ctl(epoll_, slot.events == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD,
                      slot.fd, &event);
    slot.events = events;
  }

  void close_slot(Slot& slot) {
    ::close(slot.fd);  // also leaves the epoll set
    --open_;
    if (!slot.rejected) --serving_;
    slot = Slot{};  // frees the buffers, as the connection is gone
    if (!draining_) set_listening(true);
  }

  HttpServer& server_;
  const HttpServerOptions& options_;
  int epoll_;
  /// max_pending_connections serving slots plus as many lingering.
  std::vector<Slot> slots_;
  std::size_t open_ = 0;     ///< slots in use
  std::size_t serving_ = 0;  ///< open slots not rejected
  bool listening_ = false;
  bool draining_ = false;
};

std::string HttpRequest::header(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (key.size() == name.size() &&
        std::equal(key.begin(), key.end(), name.begin(),
                   [](char k, char n) { return k == ascii_lower(n); })) {
      return value;
    }
  }
  return {};
}

const char* http_status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

void HttpServerOptions::validate() const {
  const std::pair<const char*, std::uint64_t> knobs[] = {
      {"workers", workers},
      {"max_pending_connections", max_pending_connections},
      {"read_deadline_ns", read_deadline_ns},
      {"max_request_bytes", max_request_bytes},
  };
  for (const auto& [name, value] : knobs) {
    if (value == 0) {
      throw std::invalid_argument(std::string("HttpServerOptions: ") + name +
                                  " must be >= 1");
    }
  }
}

HttpServer::HttpServer(HttpServerOptions options, MetricRegistry* registry)
    : options_(std::move(options)) {
  options_.validate();
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<MetricRegistry>();
    registry = owned_registry_.get();
  }
  for (std::size_t i = 0; i < rejections_.size(); ++i) {
    rejections_[i] = registry->counter(
        "confcall_http_rejections_total",
        "Hostile or malformed connections rejected at the protocol layer, "
        "by reject class",
        {{"class", kRejectClasses[i].second}});
  }
  send_failed_metric_ = registry->counter(
      "confcall_http_send_failed_total",
      "Responses the peer stopped reading mid-write (EPIPE, ECONNRESET "
      "or send timeout on a half-written response)");
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(const std::string& method, const std::string& path,
                        Handler handler) {
  if (running_) {
    throw std::logic_error("HttpServer: register routes before start()");
  }
  routes_[{method, path}] = std::move(handler);
}

void HttpServer::start() {
  if (running_) throw std::logic_error("HttpServer: already started");
  std::vector<std::unique_ptr<Loop>> loops;
  sockaddr_in addr{};
  try {
    listen_fd_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw_errno("HttpServer: socket");
    const int one = 1;
    (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                    &addr.sin_addr) != 1) {
      throw std::runtime_error("HttpServer: bad bind address '" +
                               options_.bind_address + "'");
    }
    auto* const bound = reinterpret_cast<sockaddr*>(&addr);
    socklen_t bound_len = sizeof(addr);
    if (::bind(listen_fd_, bound, bound_len) != 0) {
      throw_errno("HttpServer: bind");
    }
    // A loop accepts only between handlers, so the backlog is the queue.
    if (::listen(listen_fd_, static_cast<int>(std::min<std::size_t>(
                                 options_.max_pending_connections,
                                 SOMAXCONN))) != 0) {
      throw_errno("HttpServer: listen");
    }
    if (::getsockname(listen_fd_, bound, &bound_len) != 0) {
      throw_errno("HttpServer: getsockname");
    }
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) throw_errno("HttpServer: eventfd");
    for (std::size_t i = 0; i < options_.workers; ++i) {
      loops.push_back(std::make_unique<Loop>(*this));
    }
  } catch (...) {
    loops.clear();
    close_fds();
    throw;
  }
  port_ = ntohs(addr.sin_port);
  running_ = true;
  for (std::unique_ptr<Loop>& loop : loops) {
    loops_.emplace_back([loop = std::move(loop)] { loop->run(); });
  }
}

void HttpServer::stop() {
  if (!running_) return;
  running_ = false;
  // The eventfd stays readable, so every loop sees it once and drains.
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
  for (std::thread& loop : loops_) loop.join();
  loops_.clear();
  close_fds();
  port_ = 0;
}

void HttpServer::close_fds() noexcept {
  for (int* fd : {&listen_fd_, &wake_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) const {
  const auto route = routes_.find({request.method, request.path});
  if (route != routes_.end()) {
    try {
      return route->second(request);
    } catch (const std::exception& e) {
      return plain_status(500, std::string("handler error: ") + e.what());
    }
  }
  // Exact path under another method -> 405, unknown path -> 404.
  const bool path_known =
      std::any_of(routes_.begin(), routes_.end(), [&](const auto& route) {
        return route.first.second == request.path;
      });
  return path_known ? plain_status(405, "method not allowed")
                    : plain_status(404, "not found");
}

void HttpServer::count_rejection(int status) const noexcept {
  for (std::size_t i = 0; i < rejections_.size(); ++i) {
    if (kRejectClasses[i].first == status) rejections_[i].inc();
  }
}

const char* readiness_name(Readiness state) noexcept {
  switch (state) {
    case Readiness::kStarting: return "starting";
    case Readiness::kRestoring: return "restoring";
    case Readiness::kWarmup: return "warmup";
    case Readiness::kReady: return "ready";
    case Readiness::kDraining: return "draining";
  }
  return "?";
}

void install_observability_routes(HttpServer& server, MetricRegistry* registry,
                                  Tracer* tracer,
                                  AdmissionController* admission,
                                  SloController* slo,
                                  ReadinessGate* readiness,
                                  ObservabilityOptions options) {
  if (registry == nullptr) {
    throw std::invalid_argument(
        "install_observability_routes: registry is required");
  }
  const Gauge scrape_bytes = registry->gauge(
      "confcall_scrape_bytes",
      "Payload size of the PREVIOUS /metrics scrape (label-cardinality "
      "growth shows up here first; 0 until the second scrape)");
  // The gauge is set from the previous scrape's size BEFORE rendering,
  // never after: setting it post-render would make every in-process
  // to_prometheus(snapshot()) taken after a scrape disagree with that
  // scrape's body by exactly this gauge — breaking the E16 byte-identity
  // contract. One scrape of lag is the price of self-consistency.
  const auto last_scrape_bytes = std::make_shared<std::atomic<std::size_t>>(0);
  const PrometheusOptions exposition{options.exemplars};
  server.handle("GET", "/metrics",
                [registry, scrape_bytes, last_scrape_bytes,
                 exposition](const HttpRequest&) {
    scrape_bytes.set(static_cast<double>(
        last_scrape_bytes->load(std::memory_order_relaxed)));
    HttpResponse response;
    // One consistent cut: the scrape is byte-identical to what an
    // in-process to_prometheus(snapshot()) at the same instant renders
    // (the E16 gate).
    response.body = to_prometheus(registry->snapshot(), exposition);
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    last_scrape_bytes->store(response.body.size(),
                             std::memory_order_relaxed);
    return response;
  });
  server.handle("GET", "/vars", [registry](const HttpRequest&) {
    HttpResponse response;
    response.body = to_json(registry->snapshot());
    response.content_type = "application/json";
    return response;
  });
  server.handle("GET", "/healthz", [admission, slo](const HttpRequest&) {
    Health health = Health::kHealthy;
    if (admission != nullptr) health = admission->health();
    const SloHealth verdict =
        slo == nullptr ? SloHealth::kOk : slo->slo_health();
    HttpResponse response;
    // Proactive health: a degrading verdict (projected breach) already
    // drains traffic, so the flip happens BEFORE the SLO is broken.
    response.status =
        health == Health::kShedding || verdict != SloHealth::kOk ? 503 : 200;
    response.content_type = "application/json";
    std::string& body = response.body;
    body += "{\"health\": \"";
    body += health_name(health);
    body += '"';
    if (slo != nullptr) {
      body += ", \"slo\": {\"state\": \"";
      body += slo_health_name(verdict);
      body += "\", \"target_p99_ms\": ";
      append_double_g(body, static_cast<double>(slo->target_p99_ns()) * 1e-6);
      body += ", \"observed_p99_ms\": ";
      append_double_g(body,
                      static_cast<double>(slo->observed_p99_ns()) * 1e-6);
      body += ", \"window_shed_fraction\": ";
      append_double_g(body, slo->shed_fraction());
      body += '}';
    }
    body += "}\n";
    return response;
  });
  server.handle("GET", "/readyz",
                [readiness, detail = std::move(options.readyz_detail)](
                    const HttpRequest&) {
    // Readiness, not liveness: /healthz says "the process is sound",
    // this says "send me traffic". A warm restart keeps /readyz at 503
    // through restore and warmup while /healthz is already 200.
    const Readiness state =
        readiness == nullptr ? Readiness::kReady : readiness->state();
    HttpResponse response;
    response.status = state == Readiness::kReady ? 200 : 503;
    response.content_type = "application/json";
    std::string body = std::string("{\"ready\": ") +
                       (state == Readiness::kReady ? "true" : "false") +
                       ", \"state\": \"" + readiness_name(state) + "\"";
    if (detail) {
      // Caller-supplied members (the fleet daemon's per-area restore /
      // warmup progress), rendered fresh per request.
      const std::string extra = detail();
      if (!extra.empty()) body += ", " + extra;
    }
    body += "}\n";
    response.body = std::move(body);
    return response;
  });
  server.handle("GET", "/traces", [tracer](const HttpRequest&) {
    HttpResponse response;
    response.body = to_trace_event_json(
        tracer == nullptr ? std::vector<SpanRecord>{} : tracer->snapshot());
    response.content_type = "application/json";
    return response;
  });
}

namespace {

// A blocking client socket connected to host:port whose sends and
// receives fail with EAGAIN after `timeout_ns` (at least 1 ms: a zero
// timeval would mean "block forever"). Throws std::runtime_error
// prefixed with `who`.
int connect_client(const std::string& who, const std::string& host,
                   std::uint16_t port, std::uint64_t timeout_ns) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno(who + ": socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error(who + ": bad host '" + host + "'");
  }
  const std::uint64_t us = std::max<std::uint64_t>(timeout_ns / 1000, 1000);
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(us / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(us % 1'000'000);
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno(who + ": connect");
  }
  return fd;
}

// False once the peer stops taking bytes (or the send timeout expires).
bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Appends what the peer sends to `raw` until it closes (true), or until
// `deadline` passes or recv fails (false). The socket's receive timeout
// wakes a recv that would wait past the deadline.
bool read_to_close(int fd, const Deadline& deadline, std::string* raw) {
  char chunk[4096];
  while (!deadline.expired(SteadyClockSource::shared())) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return n == 0;
    raw->append(chunk, static_cast<std::size_t>(n));
  }
  return false;
}

// The status code of a raw HTTP/1.x response; 0 when it does not start
// with a status line.
int response_status(const std::string& raw) {
  const std::size_t space = raw.find(' ');
  if (raw.rfind("HTTP/1.", 0) != 0 || space == std::string::npos ||
      space + 4 > raw.size()) {
    return 0;
  }
  int status = 0;
  for (std::size_t i = space + 1; i < space + 4; ++i) {
    if (raw[i] < '0' || raw[i] > '9') return 0;
    status = status * 10 + (raw[i] - '0');
  }
  return status;
}

}  // namespace

HttpClientResponse http_request(const std::string& host, std::uint16_t port,
                                const std::string& method,
                                const std::string& target,
                                const std::string& body,
                                std::uint64_t timeout_ns) {
  const int fd = connect_client("http_request", host, port, timeout_ns);
  if (!send_all(fd, method + ' ' + target + " HTTP/1.1\r\nHost: " + host +
                        "\r\nContent-Length: " + std::to_string(body.size()) +
                        "\r\nConnection: close\r\n\r\n" + body)) {
    ::close(fd);
    throw_errno("http_request: send");
  }
  std::string raw;
  const bool closed = read_to_close(
      fd, Deadline::after(timeout_ns, SteadyClockSource::shared()), &raw);
  ::close(fd);
  if (!closed) {
    throw std::runtime_error("http_request: no complete response (timeout "
                             "or reset)");
  }

  HttpClientResponse response;
  const std::size_t head_end = raw.find("\r\n\r\n");
  response.status = response_status(raw);
  if (head_end == std::string::npos || response.status == 0) {
    throw std::runtime_error("http_request: malformed response");
  }
  response.body = raw.substr(head_end + 4);
  return response;
}

HttpClientResponse http_get(const std::string& host, std::uint16_t port,
                            const std::string& target,
                            std::uint64_t timeout_ns) {
  return http_request(host, port, "GET", target, "", timeout_ns);
}

const char* socket_fault_class_name(SocketFaultClass fault) noexcept {
  switch (fault) {
    case SocketFaultClass::kTornWrite: return "torn_write";
    case SocketFaultClass::kMidBodyDisconnect: return "mid_body_disconnect";
    case SocketFaultClass::kSlowLorisHeaders: return "slow_loris_headers";
    case SocketFaultClass::kOversizedHeaders: return "oversized_headers";
    case SocketFaultClass::kOversizedBody: return "oversized_body";
    case SocketFaultClass::kGarbagePipelining: return "garbage_pipelining";
  }
  return "?";
}

namespace {

// True when response bytes are already waiting (the server reacted
// while the injector was still misbehaving).
bool reaction_pending(int fd) {
  char probe;
  const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n > 0) return true;
  if (n == 0) return true;  // orderly close is a reaction too
  return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
}

}  // namespace

std::uint64_t SocketFaultInjector::next_u64() noexcept {
  // splitmix64: tiny, seedable, and good enough to vary cut points and
  // garbage bytes deterministically.
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

SocketFaultInjector::Outcome SocketFaultInjector::run(
    const std::string& host, std::uint16_t port, SocketFaultClass fault,
    std::uint64_t patience_ns) {
  const int fd = connect_client("SocketFaultInjector", host, port,
                                patience_ns);
  const Deadline deadline =
      Deadline::after(patience_ns, SteadyClockSource::shared());

  // Failed sends are ignored: the server closing on us mid-abuse is a
  // reaction, not an injector failure.
  Outcome outcome;
  switch (fault) {
    case SocketFaultClass::kTornWrite: {
      // A complete, valid POST cut at a random interior byte, then a
      // half-close: the server sees EOF mid-request -> 400.
      std::string body(32, 'x');
      const std::string request =
          "POST /locate HTTP/1.1\r\nHost: h\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body;
      const std::size_t cut =
          1 + static_cast<std::size_t>(next_u64() % (request.size() - 1));
      (void)send_all(fd,
                                  std::string_view(request).substr(0, cut));
      (void)::shutdown(fd, SHUT_WR);
      break;
    }
    case SocketFaultClass::kMidBodyDisconnect: {
      // Headers promise 64 body bytes; a random short prefix arrives,
      // then EOF -> 400.
      const std::size_t sent_bytes =
          static_cast<std::size_t>(next_u64() % 32);
      std::string partial;
      for (std::size_t i = 0; i < sent_bytes; ++i) {
        partial.push_back(static_cast<char>('a' + (next_u64() % 26)));
      }
      (void)send_all(
          fd,
          "POST /locate HTTP/1.1\r\nHost: h\r\nContent-Length: 64\r\n\r\n" +
              partial);
      (void)::shutdown(fd, SHUT_WR);
      break;
    }
    case SocketFaultClass::kSlowLorisHeaders: {
      // One byte at a time, never finishing the header block, until the
      // server's read deadline answers 408 (or patience runs out).
      std::string drip = "GET / HTTP/1.1\r\n";
      while (!deadline.expired(SteadyClockSource::shared())) {
        if (reaction_pending(fd)) break;
        if (drip.empty()) {
          drip = "X-Slow-" +
                 std::to_string(next_u64() % 1000) + ": trickle\r\n";
        }
        if (!send_all(fd, std::string_view(&drip[0], 1))) {
          break;  // server gave up on us — go read its parting words
        }
        drip.erase(0, 1);
        timespec nap{0, 1'000'000};  // 1 ms between bytes
        (void)::nanosleep(&nap, nullptr);
      }
      break;
    }
    case SocketFaultClass::kOversizedHeaders: {
      // A header block that never ends, shipped in chunks until the
      // server's size cap answers 431. Stop the moment it reacts so its
      // response is read before any RST can discard it.
      (void)send_all(fd, "GET / HTTP/1.1\r\nHost: h\r\n");
      const std::string filler_line =
          "X-Filler: " + std::string(4000, 'f') + "\r\n";
      // 1024 lines ~ 4 MB, far past any configured cap.
      for (int i = 0; i < 1024; ++i) {
        if (reaction_pending(fd)) break;
        if (!send_all(fd, filler_line)) break;
        if (deadline.expired(SteadyClockSource::shared())) break;
      }
      break;
    }
    case SocketFaultClass::kOversizedBody: {
      // Honest headers declaring a payload past any sane cap; the
      // server must reject from the declaration alone (413), never
      // swallow gigabytes first. No body byte is ever sent.
      (void)send_all(
          fd,
          "POST /locate HTTP/1.1\r\nHost: h\r\n"
          "Content-Length: 1073741824\r\n\r\n");
      break;
    }
    case SocketFaultClass::kGarbagePipelining: {
      // A garbage request line (random bytes, no CR/LF) terminated like
      // a real header block, with a second request pipelined behind it:
      // the garbage earns 400 and the connection closes (one request
      // per connection), so the pipelined request must never be served.
      std::string garbage;
      for (int i = 0; i < 64; ++i) {
        garbage.push_back(
            static_cast<char>('!' + (next_u64() % 94)));  // printable
      }
      garbage += "\r\n\r\n";
      garbage += "GET /metrics HTTP/1.1\r\nHost: h\r\n\r\n";
      (void)send_all(fd, garbage);
      (void)::shutdown(fd, SHUT_WR);
      break;
    }
  }

  // Whatever the server answers, until its close or our patience ends;
  // bytes that arrive before a reset (the flood classes, where the
  // server closes on unread abuse) still parse.
  outcome.clean_close = read_to_close(fd, deadline, &outcome.raw);
  outcome.status = response_status(outcome.raw);
  ::close(fd);
  return outcome;
}

}  // namespace confcall::support
