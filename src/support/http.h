// Minimal dependency-free HTTP/1.1 server for the observability scrape
// endpoints — deliberately a scrape server, not a web framework.
//
// The serving daemon (tools/confcall_serve) serves the five read-mostly
// routes install_observability_routes installs (/metrics, /vars,
// /healthz, /readyz, /traces) plus the two cellular::ServingNode adds
// (/fleetz and POST /locate), which a Prometheus scraper or a curl can
// hit while the locate loop runs. That workload shapes the design:
//
//   * POSIX sockets only, loopback by default. No TLS, no keep-alive,
//     no chunked encoding: one request per connection, `Connection:
//     close`, which every scraper and curl speaks.
//   * One non-blocking epoll loop per worker, each on its own thread.
//     A loop accepts, reads, runs the handler inline, writes and closes
//     each connection itself: no hand-off between threads. Loops share
//     the listening socket and nothing else, so with `workers > 1`
//     handlers run concurrently.
//   * Each open connection is a slot: its buffered request bytes, a
//     read deadline (408), its write progress with a stall deadline
//     (partial writes wait for EPOLLOUT), and a lingering-close phase.
//     epoll_wait sleeps until the nearest slot deadline, so a slow
//     client holds a slot, never the thread.
//   * Bounded connections: a loop serves at most
//     max_pending_connections slots at once; a connection accepted past
//     that is answered 503 at once, so a scrape storm sheds instead of
//     queueing unboundedly — the same philosophy as the admission
//     controller. A loop whose slots are all taken stops accepting, and
//     the kernel backlog (max_pending_connections deep) holds the rest.
//   * Every rejection (400/408/413/431/503) ends in a lingering close:
//     half-close, then drain the peer's input for at most 100 ms / 256
//     KiB, so the error response is not lost to an RST.
//
// Handlers run on the loops and must be thread-safe; the observability
// handlers only take registry/tracer snapshots, which are internally
// locked. stop() is a graceful drain: each loop is woken through an
// eventfd, accepts what is already in the backlog, stops listening,
// and exits once its last open slot has closed.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "support/metrics.h"
#include "support/overload.h"

namespace confcall::support {

class Tracer;
class AdmissionController;
class SloController;

/// One parsed request. Header names are lower-cased; values are
/// whitespace-trimmed.
struct HttpRequest {
  std::string method;  ///< upper-case, e.g. "GET"
  std::string path;    ///< target without the query string
  std::string query;   ///< after '?', may be empty
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; empty string when absent.
  [[nodiscard]] std::string header(const std::string& name) const;
};

struct HttpResponse {
  int status = 200;
  /// A view, not a string: every type a route sets is a literal, so a
  /// response (even the error one a read builds and never sends)
  /// allocates nothing for it.
  std::string_view content_type = "text/plain; charset=utf-8";
  std::string body;
};

[[nodiscard]] const char* http_status_reason(int status) noexcept;

struct HttpServerOptions {
  /// Loopback by default: the scrape surface is not an internet-facing
  /// server.
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral, read back via port()
  /// Event loops, one thread each (>= 1).
  std::size_t workers = 1;
  /// Connections one loop serves at once, and the listen backlog;
  /// beyond it the loop answers 503 (>= 1).
  std::size_t max_pending_connections = 64;
  /// Per-connection budget for reading the full request (>= 1 ns); a
  /// response write that makes no progress for as long is cut.
  std::uint64_t read_deadline_ns = 2'000'000'000;
  /// Request size cap, head + body (>= 1; oversized requests get 431).
  std::size_t max_request_bytes = 1 << 16;

  /// Throws std::invalid_argument with a specific message per violation.
  void validate() const;
};

namespace detail {

/// How far parse_request got with the bytes a connection holds so far.
enum class RequestParse { kNeedMore, kComplete, kRejected };

/// The server's request parser, one in-place scan over the bytes a
/// connection has buffered so far (exposed for the parser fuzz tests).
/// `header_end` caches where the header block ends once it has been
/// seen (npos before). kComplete fills `request`; kRejected fills
/// `error` with the 400 (malformed), 413 (body too large) or 431
/// (header block too large) answer. The grammar: a request line of
/// method, target and an `HTTP/1.x` version (whitespace-separated,
/// extra tokens ignored), header lines `name: value` (lines without a
/// ':' skipped), then Content-Length body bytes (strict decimal; absent
/// or empty means no body).
[[nodiscard]] RequestParse parse_request(std::string_view buffer,
                                         std::size_t* header_end,
                                         const HttpServerOptions& options,
                                         HttpRequest* request,
                                         HttpResponse* error);

}  // namespace detail

/// The server. Register routes, start(), scrape, stop(). Not copyable
/// or movable (the loops hold `this`).
///
/// Hostile-network telemetry is counted once, in the server's registry
/// (see docs/OBSERVABILITY.md):
///   confcall_http_rejections_total{class=...}  one series per reject
///     class — malformed (400), slow_client (408), body_too_large
///     (413), header_too_large (431), queue_full (503);
///   confcall_http_send_failed_total  responses the peer stopped
///     reading mid-write (EPIPE/ECONNRESET, or no write progress for
///     read_deadline_ns).
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Pass `registry` to count into a shared registry (it must outlive
  /// the server), or nullptr and the server owns a private one. Throws
  /// std::invalid_argument on bad options.
  explicit HttpServer(HttpServerOptions options = {},
                      MetricRegistry* registry = nullptr);
  ~HttpServer();  ///< stops and joins if still running
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact (method, path) matches. Must be
  /// called before start(); throws std::logic_error afterwards. A path
  /// registered under a different method answers 405; an unknown path
  /// 404.
  void handle(const std::string& method, const std::string& path,
              Handler handler);

  /// Binds, listens, and launches the event loops. Throws
  /// std::runtime_error (with errno text) when the socket setup fails,
  /// std::logic_error when already started.
  void start();

  /// Graceful drain: stop accepting, serve every open connection, join
  /// every loop. Idempotent.
  void stop();

  /// The bound port (resolves an ephemeral request); 0 before start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Requests answered by a handler (any status), and connections a
  /// full loop shed with an immediate 503 (the queue_full series).
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t connections_shed() const noexcept {
    return rejections_.back().value();
  }

 private:
  class Loop;  // one epoll loop and its connection slots (http.cpp)

  [[nodiscard]] HttpResponse dispatch(const HttpRequest& request) const;
  void count_rejection(int status) const noexcept;
  void close_fds() noexcept;

  HttpServerOptions options_;
  std::map<std::pair<std::string, std::string>, Handler> routes_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: stop() makes it readable for every loop
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::unique_ptr<MetricRegistry> owned_registry_;  ///< when none injected
  Counter send_failed_metric_;
  /// One per reject class: malformed (400), slow_client (408),
  /// body_too_large (413), header_too_large (431), queue_full (503).
  std::array<Counter, 5> rejections_;
  std::vector<std::thread> loops_;  ///< last: the loops use every member
};

/// Readiness phases of a serving process, ordered by lifecycle. Only
/// kReady answers /readyz with 200 — a balancer holds traffic through
/// restore and warmup (warm restart) and releases the backend before
/// drain completes (graceful shutdown).
enum class Readiness {
  kStarting,   ///< process up, state not yet examined
  kRestoring,  ///< loading/validating a --state-in checkpoint
  kWarmup,     ///< serving loop warming (cold or warm) before steady state
  kReady,      ///< take traffic
  kDraining,   ///< shutting down; finish in-flight work, accept nothing new
};

[[nodiscard]] const char* readiness_name(Readiness state) noexcept;

/// Shared readiness flag between the serving loop (writer) and the
/// /readyz handler (reader). Plain atomic — transitions are rare and
/// monotonicity is the caller's business (a warm restart walks
/// kStarting -> kRestoring -> kWarmup -> kReady -> kDraining).
class ReadinessGate {
 public:
  void set(Readiness state) noexcept {
    state_.store(state, std::memory_order_release);
  }
  [[nodiscard]] Readiness state() const noexcept {
    return state_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool ready() const noexcept {
    return state() == Readiness::kReady;
  }

 private:
  std::atomic<Readiness> state_{Readiness::kStarting};
};

/// Extra knobs for install_observability_routes, all default-off so the
/// plain call keeps the exact exposition prior releases served.
struct ObservabilityOptions {
  /// Emit OpenMetrics exemplar suffixes (`# {trace_id="..."} value`) on
  /// /metrics _bucket samples. Off by default: the default scrape must
  /// stay byte-identical release over release (the E16 gate), and
  /// strict Prometheus-format consumers may not expect the suffix.
  bool exemplars = false;
  /// Extra JSON members for the /readyz body, rendered per request:
  /// return a fragment like `"areas_ready": 3, "areas_total": 8` (no
  /// surrounding braces) or an empty string. The fleet daemon reports
  /// per-area restore/warmup progress through this.
  std::function<std::string()> readyz_detail;
};

/// Wires the standard observability surface onto `server` (all GET):
///   /metrics  Prometheus text from ONE consistent registry snapshot.
///             Registers and maintains the confcall_scrape_bytes gauge
///             (the PREVIOUS scrape's payload size — set before
///             rendering so scrapes stay byte-identical to an
///             in-process render, the E16 contract). With
///             ObservabilityOptions::exemplars, _bucket samples carry
///             OpenMetrics exemplar suffixes.
///   /vars     the same snapshot as JSON
///   /healthz  a small JSON document: the admission health state, and —
///             when an SloController is attached — its verdict, target
///             vs observed p99 and the last window's shed fraction.
///             Status keeps the load-balancer mapping: 200 while
///             healthy/degraded, 503 while shedding; with a controller
///             the status ALSO flips to 503 on a "degrading" verdict
///             (projected breach) so traffic drains BEFORE the SLO is
///             broken, not after. No admission controller: always 200.
///   /readyz   readiness, distinct from /healthz liveness: 200 only in
///             the kReady phase, 503 during restore, warmup and drain —
///             the balancer signal that holds traffic through a warm
///             restart. Without a gate, /readyz is always 200 (a server
///             with no lifecycle is trivially ready). The JSON body can
///             carry caller-supplied members (the fleet daemon's
///             areas_ready/areas_total restore progress) through
///             ObservabilityOptions::readyz_detail.
///   /traces   recent sampled spans as Chrome trace_event JSON (no
///             tracer: an empty trace)
/// The pointees must outlive the server; registry is required.
/// Throws std::invalid_argument on a null registry.
void install_observability_routes(HttpServer& server,
                                  MetricRegistry* registry,
                                  Tracer* tracer = nullptr,
                                  AdmissionController* admission = nullptr,
                                  SloController* slo = nullptr,
                                  ReadinessGate* readiness = nullptr,
                                  ObservabilityOptions options = {});

/// A minimal blocking client for tests, benches and smoke checks: one
/// request, reads to connection close. Throws std::runtime_error on
/// connect/send/timeout failures.
struct HttpClientResponse {
  int status = 0;
  std::string body;
};
[[nodiscard]] HttpClientResponse http_request(
    const std::string& host, std::uint16_t port, const std::string& method,
    const std::string& target, const std::string& body = "",
    std::uint64_t timeout_ns = 5'000'000'000);
[[nodiscard]] HttpClientResponse http_get(
    const std::string& host, std::uint16_t port, const std::string& target,
    std::uint64_t timeout_ns = 5'000'000'000);

/// Hostile-client behaviours the fault injector can aim at a server.
/// Each class has a documented contract (the status the server must
/// answer, or a clean close) — see docs/DESIGN.md §13.
enum class SocketFaultClass {
  kTornWrite,          ///< request cut mid-bytes, half-closed -> 400
  kMidBodyDisconnect,  ///< full headers, partial body, half-closed -> 400
  kSlowLorisHeaders,   ///< byte-at-a-time headers, never finishing -> 408
  kOversizedHeaders,   ///< header block past max_request_bytes -> 431
  kOversizedBody,      ///< Content-Length past max_request_bytes -> 413
  kGarbagePipelining,  ///< binary garbage + pipelined junk -> 400
};

[[nodiscard]] const char* socket_fault_class_name(
    SocketFaultClass fault) noexcept;

inline constexpr SocketFaultClass kAllSocketFaultClasses[] = {
    SocketFaultClass::kTornWrite,       SocketFaultClass::kMidBodyDisconnect,
    SocketFaultClass::kSlowLorisHeaders, SocketFaultClass::kOversizedHeaders,
    SocketFaultClass::kOversizedBody,   SocketFaultClass::kGarbagePipelining,
};

/// A deterministic hostile HTTP client: connects to a real server and
/// misbehaves in one of the SocketFaultClass ways, then reports how the
/// server reacted. All randomness (cut points, garbage bytes) comes from
/// an internal splitmix64 stream seeded at construction, so a sweep with
/// the same seed sends byte-identical abuse — the fd-leak and
/// status-code invariants in the tests are reproducible, not flaky.
class SocketFaultInjector {
 public:
  explicit SocketFaultInjector(std::uint64_t seed) : state_(seed) {}

  struct Outcome {
    /// Status the server answered with; 0 when it closed without a
    /// response.
    int status = 0;
    /// The connection ended in an orderly FIN (recv saw EOF) rather
    /// than an error or an injector-side timeout.
    bool clean_close = false;
    /// Raw bytes received, for assertions on the response shape.
    std::string raw;
  };

  /// Runs one fault against host:port. `patience_ns` bounds how long
  /// the injector waits for the server's reaction (keep it above the
  /// server's read deadline for the slow-loris class). Throws
  /// std::runtime_error only on injector-side setup failures (socket /
  /// connect); everything the server does is reported in the Outcome.
  [[nodiscard]] Outcome run(const std::string& host, std::uint16_t port,
                            SocketFaultClass fault,
                            std::uint64_t patience_ns = 5'000'000'000);

 private:
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  std::uint64_t state_;
};

}  // namespace confcall::support
