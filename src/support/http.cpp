#include "support/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "support/metrics.h"
#include "support/slo_controller.h"
#include "support/trace.h"

namespace confcall::support {
namespace {

constexpr int kStopSentinel = -1;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

// Applies the remaining read budget as the socket receive timeout, so a
// blocked recv wakes up in time to notice the expired deadline.
void arm_recv_timeout(int fd, std::uint64_t remaining_ns) {
  timeval tv{};
  // At least 1 ms so a nearly-expired deadline still sets a real timeout
  // instead of "block forever" (tv == 0).
  const std::uint64_t us = std::max<std::uint64_t>(remaining_ns / 1000, 1000);
  tv.tv_sec = static_cast<time_t>(us / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(us % 1'000'000);
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void arm_send_timeout(int fd, std::uint64_t budget_ns) {
  timeval tv{};
  const std::uint64_t us = std::max<std::uint64_t>(budget_ns / 1000, 1000);
  tv.tv_sec = static_cast<time_t>(us / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(us % 1'000'000);
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// Returns false when the peer stopped reading (EPIPE/ECONNRESET/send
// timeout) — the caller counts it; there is nobody left to answer.
// MSG_NOSIGNAL keeps a dead peer an errno, never a SIGPIPE.
[[nodiscard]] bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // signal, not failure: retry
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string render_response(const HttpResponse& response) {
  std::ostringstream os;
  os << "HTTP/1.1 " << response.status << ' '
     << http_status_reason(response.status) << "\r\n"
     << "Content-Type: " << response.content_type << "\r\n"
     << "Content-Length: " << response.body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << response.body;
  return os.str();
}

[[nodiscard]] bool send_response(int fd, const HttpResponse& response) {
  return send_all(fd, render_response(response));
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
[[nodiscard]] bool parse_content_length(const std::string& text,
                                        std::size_t* out) {
  if (text.empty() || text.size() > 19) return false;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = value;
  return true;
}

/// Reads one request; returns false (with `error` filled) on a
/// malformed, oversized or timed-out request.
bool read_request(int fd, const HttpServerOptions& options,
                  HttpRequest* request, HttpResponse* error) {
  const Deadline deadline =
      Deadline::after(options.read_deadline_ns, SteadyClockSource::shared());
  std::string buffer;
  std::size_t header_end = std::string::npos;
  char chunk[4096];
  while (true) {
    const std::uint64_t remaining =
        deadline.remaining_ns(SteadyClockSource::shared());
    if (remaining == 0) {
      *error = plain_status(408, "request read deadline exceeded");
      return false;
    }
    arm_recv_timeout(fd, remaining);
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;  // timeout slice elapsed; the deadline check decides
      }
      *error = plain_status(400, "read error");
      return false;
    }
    if (n == 0) {  // client closed before a full request
      *error = plain_status(400, "connection closed mid-request");
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > options.max_request_bytes) {
      // Before the blank line this is a runaway header block (431);
      // after it, body bytes pushed past the cap (413).
      *error = header_end == std::string::npos
                   ? plain_status(431, "header block too large")
                   : plain_status(413, "request body too large");
      return false;
    }
    if (header_end == std::string::npos) {
      header_end = buffer.find("\r\n\r\n");
      if (header_end == std::string::npos) continue;
    }
    // Headers complete: parse enough to know the body length.
    std::istringstream head(buffer.substr(0, header_end));
    std::string request_line;
    std::getline(head, request_line);
    if (!request_line.empty() && request_line.back() == '\r') {
      request_line.pop_back();
    }
    std::istringstream rl(request_line);
    std::string target;
    std::string version;
    if (!(rl >> request->method >> target >> version) ||
        version.rfind("HTTP/1.", 0) != 0) {
      *error = plain_status(400, "malformed request line");
      return false;
    }
    request->headers.clear();
    std::string line;
    while (std::getline(head, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      request->headers.emplace_back(lower(trim(line.substr(0, colon))),
                                    trim(line.substr(colon + 1)));
    }
    const std::size_t query_pos = target.find('?');
    request->path = target.substr(0, query_pos);
    request->query = query_pos == std::string::npos
                         ? std::string{}
                         : target.substr(query_pos + 1);
    // Missing Content-Length means an empty body (every scraper GET and
    // the bodyless curl -X POST smoke path); a present but non-numeric
    // one is malformed, not zero.
    std::size_t content_length = 0;
    const std::string length_header = request->header("content-length");
    if (!length_header.empty() &&
        !parse_content_length(length_header, &content_length)) {
      *error = plain_status(400, "bad Content-Length");
      return false;
    }
    if (content_length > options.max_request_bytes ||
        header_end + 4 + content_length > options.max_request_bytes) {
      // The headers fit; the declared payload does not. Reject from the
      // declaration alone — never read a body the cap already rules out.
      *error = plain_status(413, "request body too large");
      return false;
    }
    if (buffer.size() >= header_end + 4 + content_length) {
      request->body = buffer.substr(header_end + 4, content_length);
      return true;
    }
    // else: keep reading body bytes under the same deadline
  }
}

// Lingering close after a rejected request. The peer may still be
// sending (a slow-loris drip, a header flood, a pipelined request), and
// closing a socket with unread input makes the kernel answer with an RST
// instead of a FIN, which can discard the error response before the
// client reads it. So: half-close (the response ends with a FIN), then
// drain the peer's input until it closes too, or for at most kLingerNs /
// kLingerBytes, whichever comes first.
constexpr std::uint64_t kLingerNs = 100'000'000;  // 100 ms
constexpr std::size_t kLingerBytes = 1 << 18;     // 256 KiB

void linger_close(int fd) {
  (void)::shutdown(fd, SHUT_WR);
  const Deadline deadline =
      Deadline::after(kLingerNs, SteadyClockSource::shared());
  char sink[4096];
  std::size_t drained = 0;
  while (drained < kLingerBytes) {
    const std::uint64_t remaining =
        deadline.remaining_ns(SteadyClockSource::shared());
    if (remaining == 0) break;
    arm_recv_timeout(fd, remaining);
    const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n > 0) {
      drained += static_cast<std::size_t>(n);
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                          errno != EINTR)) {
      break;  // the peer closed (or reset): nothing left to protect
    }
  }
  ::close(fd);
}

}  // namespace

std::string HttpRequest::header(const std::string& name) const {
  const std::string needle = lower(name);
  for (const auto& [key, value] : headers) {
    if (key == needle) return value;
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
  if (workers == 0) {
    throw std::invalid_argument("HttpServerOptions: workers must be >= 1");
  }
  if (max_pending_connections == 0) {
    throw std::invalid_argument(
        "HttpServerOptions: max_pending_connections must be >= 1");
  }
  if (read_deadline_ns == 0) {
    throw std::invalid_argument(
        "HttpServerOptions: read_deadline_ns must be >= 1");
  }
  if (max_request_bytes == 0) {
    throw std::invalid_argument(
        "HttpServerOptions: max_request_bytes must be >= 1");
  }
}

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {
  options_.validate();
  pending_.reserve(options_.max_pending_connections);
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

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("HttpServer: socket");
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    throw std::runtime_error("HttpServer: bad bind address '" +
                             options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("HttpServer: bind");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    throw_errno("HttpServer: listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    ::close(fd);
    throw_errno("HttpServer: getsockname");
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd);

  running_ = true;
  // One parallel_for hosts the whole server: task 0 is the blocking
  // accept loop, tasks 1..workers serve connections. The pool is sized
  // so every task runs concurrently; the hosting thread participates as
  // one of them and parallel_for's join IS the server shutdown barrier.
  const std::size_t tasks = options_.workers + 1;
  pool_thread_ = std::thread([this, tasks] {
    const ThreadPool pool(tasks);
    pool.parallel_for(tasks, [this](std::size_t task) {
      if (task == 0) {
        accept_loop();
      } else {
        worker_loop();
      }
    });
  });
}

void HttpServer::stop() {
  if (!running_) return;
  running_ = false;
  // Closing the listener unblocks accept(); the acceptor then enqueues
  // one stop sentinel per worker BEHIND any accepted connections, so the
  // drain is graceful: everything accepted before stop() is still
  // served.
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  queue_cv_.notify_all();
  if (pool_thread_.joinable()) pool_thread_.join();
  port_ = 0;
}

void HttpServer::accept_loop() {
  while (true) {
    const int lfd = listen_fd_.load();
    if (lfd < 0) break;
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (running_ && (errno == EINTR || errno == ECONNABORTED)) continue;
      break;  // listener closed: shutting down
    }
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (pending_.size() >= options_.max_pending_connections) {
        shed = true;
      } else {
        pending_.push_back(fd);
      }
    }
    if (shed) {
      connections_shed_.fetch_add(1, std::memory_order_relaxed);
      reject_queue_full_.inc();
      arm_send_timeout(fd, options_.read_deadline_ns);
      if (!send_response(fd, plain_status(503, "connection queue full"))) {
        send_failed_metric_.inc();
      }
      ::close(fd);
    } else {
      queue_cv_.notify_one();
    }
  }
  // Drain barrier: one sentinel per worker, queued after every accepted
  // connection.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (std::size_t i = 0; i < options_.workers; ++i) {
      pending_.push_back(kStopSentinel);
    }
  }
  queue_cv_.notify_all();
}

void HttpServer::worker_loop() {
  while (true) {
    int fd = kStopSentinel;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return !pending_.empty(); });
      fd = pending_.front();
      pending_.erase(pending_.begin());
    }
    if (fd == kStopSentinel) return;
    serve_connection(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  arm_send_timeout(fd, options_.read_deadline_ns);
  HttpRequest request;
  HttpResponse error;
  if (!read_request(fd, options_, &request, &error)) {
    count_rejection(error.status);
    if (!send_response(fd, error)) send_failed_metric_.inc();
    linger_close(fd);
    return;
  }
  HttpResponse response;
  const auto route = routes_.find({request.method, request.path});
  if (route != routes_.end()) {
    try {
      response = route->second(request);
    } catch (const std::exception& e) {
      response = plain_status(500, std::string("handler error: ") + e.what());
    }
  } else {
    // Exact path under another method -> 405, unknown path -> 404.
    bool path_known = false;
    for (const auto& [key, handler] : routes_) {
      (void)handler;
      if (key.second == request.path) {
        path_known = true;
        break;
      }
    }
    response = path_known ? plain_status(405, "method not allowed")
                          : plain_status(404, "not found");
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (!send_response(fd, response)) send_failed_metric_.inc();
  ::close(fd);
}

void HttpServer::count_rejection(int status) const noexcept {
  switch (status) {
    case 400: reject_malformed_.inc(); break;
    case 408: reject_slow_client_.inc(); break;
    case 413: reject_body_too_large_.inc(); break;
    case 431: reject_header_too_large_.inc(); break;
    case 503: reject_queue_full_.inc(); break;
    default: break;
  }
}

void HttpServer::bind_metrics(MetricRegistry& registry) {
  if (running_) {
    throw std::logic_error("HttpServer: bind_metrics before start()");
  }
  const std::string help =
      "Hostile or malformed connections rejected at the protocol layer, "
      "by reject class";
  reject_malformed_ = registry.counter("confcall_http_rejections_total",
                                       help, {{"class", "malformed"}});
  reject_slow_client_ = registry.counter("confcall_http_rejections_total",
                                         help, {{"class", "slow_client"}});
  reject_body_too_large_ = registry.counter(
      "confcall_http_rejections_total", help, {{"class", "body_too_large"}});
  reject_header_too_large_ =
      registry.counter("confcall_http_rejections_total", help,
                       {{"class", "header_too_large"}});
  reject_queue_full_ = registry.counter("confcall_http_rejections_total",
                                        help, {{"class", "queue_full"}});
  send_failed_metric_ = registry.counter(
      "confcall_http_send_failed_total",
      "Responses the peer stopped reading mid-write (EPIPE, ECONNRESET "
      "or send timeout on a half-written response)");
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
    std::ostringstream os;
    os << "{\"health\": \"" << health_name(health) << "\"";
    if (slo != nullptr) {
      os << ", \"slo\": {\"state\": \"" << slo_health_name(verdict)
         << "\", \"target_p99_ms\": "
         << static_cast<double>(slo->target_p99_ns()) * 1e-6
         << ", \"observed_p99_ms\": "
         << static_cast<double>(slo->observed_p99_ns()) * 1e-6
         << ", \"window_shed_fraction\": " << slo->shed_fraction() << "}";
    }
    os << "}\n";
    response.body = os.str();
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

HttpClientResponse http_request(const std::string& host, std::uint16_t port,
                                const std::string& method,
                                const std::string& target,
                                const std::string& body,
                                std::uint64_t timeout_ns) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("http_request: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("http_request: bad host '" + host + "'");
  }
  arm_recv_timeout(fd, timeout_ns);
  arm_send_timeout(fd, timeout_ns);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("http_request: connect");
  }
  std::ostringstream os;
  os << method << ' ' << target << " HTTP/1.1\r\n"
     << "Host: " << host << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  const std::string request = os.str();
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      throw_errno("http_request: send");
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char chunk[4096];
  const Deadline deadline =
      Deadline::after(timeout_ns, SteadyClockSource::shared());
  while (true) {
    if (deadline.expired(SteadyClockSource::shared())) {
      ::close(fd);
      throw std::runtime_error("http_request: response timeout");
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("http_request: recv");
    }
    if (n == 0) break;  // server closed: response complete
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  HttpClientResponse response;
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.rfind("HTTP/1.", 0) != 0) {
    throw std::runtime_error("http_request: malformed response");
  }
  const std::size_t space = raw.find(' ');
  response.status = std::stoi(raw.substr(space + 1));
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

// Reads whatever the server answers until EOF or the deadline; fills
// status (when the bytes parse as an HTTP status line), raw, and
// clean_close (an orderly FIN, not an error or injector timeout).
void drain_reaction(int fd, const Deadline& deadline,
                    SocketFaultInjector::Outcome* outcome) {
  char chunk[4096];
  while (true) {
    const std::uint64_t remaining =
        deadline.remaining_ns(SteadyClockSource::shared());
    if (remaining == 0) break;  // server never reacted within patience
    arm_recv_timeout(fd, remaining);
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // re-check
      // ECONNRESET and friends: not a clean close, but bytes already
      // drained (a response followed by a reset — the flood classes,
      // where the server closes on unread abuse) still parse below.
      break;
    }
    if (n == 0) {
      outcome->clean_close = true;
      break;
    }
    outcome->raw.append(chunk, static_cast<std::size_t>(n));
  }
  if (outcome->raw.rfind("HTTP/1.", 0) == 0) {
    const std::size_t space = outcome->raw.find(' ');
    if (space != std::string::npos && space + 4 <= outcome->raw.size()) {
      int status = 0;
      bool digits = true;
      for (std::size_t i = space + 1; i < space + 4; ++i) {
        const char c = outcome->raw[i];
        if (c < '0' || c > '9') {
          digits = false;
          break;
        }
        status = status * 10 + (c - '0');
      }
      if (digits) outcome->status = status;
    }
  }
}

// Best-effort send that never throws: the server closing on us
// mid-abuse is a reaction, not an injector failure.
bool send_ignoring_failure(int fd, std::string_view data) {
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
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("SocketFaultInjector: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("SocketFaultInjector: bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("SocketFaultInjector: connect");
  }
  arm_send_timeout(fd, patience_ns);
  const Deadline deadline =
      Deadline::after(patience_ns, SteadyClockSource::shared());

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
      (void)send_ignoring_failure(fd,
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
      (void)send_ignoring_failure(
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
        if (!send_ignoring_failure(fd, std::string_view(&drip[0], 1))) {
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
      (void)send_ignoring_failure(fd, "GET / HTTP/1.1\r\nHost: h\r\n");
      const std::string filler_line =
          "X-Filler: " + std::string(4000, 'f') + "\r\n";
      // 1024 lines ~ 4 MB, far past any configured cap.
      for (int i = 0; i < 1024; ++i) {
        if (reaction_pending(fd)) break;
        if (!send_ignoring_failure(fd, filler_line)) break;
        if (deadline.expired(SteadyClockSource::shared())) break;
      }
      break;
    }
    case SocketFaultClass::kOversizedBody: {
      // Honest headers declaring a payload past any sane cap; the
      // server must reject from the declaration alone (413), never
      // swallow gigabytes first. No body byte is ever sent.
      (void)send_ignoring_failure(
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
      (void)send_ignoring_failure(fd, garbage);
      (void)::shutdown(fd, SHUT_WR);
      break;
    }
  }

  drain_reaction(fd, deadline, &outcome);
  ::close(fd);
  return outcome;
}

}  // namespace confcall::support
