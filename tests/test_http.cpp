// Unit tests for the scrape server (support/http.h): option validation,
// route dispatch (exact match, 404/405, POST bodies), the observability
// routes (scrape-vs-snapshot byte identity, health mapping, traces), the
// read-deadline guard, and the event loop under hostile clients (queue-full
// shedding, slow readers and writers, fault injection). Every test binds an
// ephemeral loopback port and talks to it through blocking sockets.
#include "support/http.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/metrics.h"
#include "support/overload.h"
#include "support/slo_controller.h"
#include "support/trace.h"

namespace confcall::support {
namespace {

TEST(HttpServerOptions, ValidatesEveryKnob) {
  HttpServerOptions options;
  options.workers = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.max_pending_connections = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.read_deadline_ns = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.max_request_bytes = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  EXPECT_NO_THROW(HttpServerOptions{}.validate());
}

TEST(HttpServer, DispatchesRoutesAndEchoesBody) {
  HttpServer server;
  server.handle("GET", "/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  server.handle("POST", "/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.method + " " + request.path + " " + request.body;
    return response;
  });
  server.start();
  ASSERT_NE(server.port(), 0);

  const HttpClientResponse ping = http_get("127.0.0.1", server.port(),
                                           "/ping");
  EXPECT_EQ(ping.status, 200);
  EXPECT_EQ(ping.body, "pong");

  const HttpClientResponse echo = http_request(
      "127.0.0.1", server.port(), "POST", "/echo", "hello there");
  EXPECT_EQ(echo.status, 200);
  EXPECT_EQ(echo.body, "POST /echo hello there");
  EXPECT_EQ(server.requests_served(), 2u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServer, UnknownPath404KnownPathWrongMethod405) {
  HttpServer server;
  server.handle("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse{};
  });
  server.start();
  EXPECT_EQ(http_get("127.0.0.1", server.port(), "/nope").status, 404);
  EXPECT_EQ(http_request("127.0.0.1", server.port(), "POST", "/ping")
                .status,
            405);
  server.stop();
}

TEST(HttpServer, RegisteringAfterStartThrows) {
  HttpServer server;
  server.start();
  EXPECT_THROW(
      server.handle("GET", "/late",
                    [](const HttpRequest&) { return HttpResponse{}; }),
      std::logic_error);
  server.stop();
}

TEST(HttpServer, SilentClientGets408WhenReadDeadlineExpires) {
  HttpServerOptions options;
  options.read_deadline_ns = 50'000'000;  // 50 ms
  HttpServer server(options);
  server.handle("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse{};
  });
  server.start();

  // Connect and send NOTHING: the worker's deadline-guarded read must
  // answer 408 instead of holding the connection forever.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string raw;
  char chunk[512];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(raw.rfind("HTTP/1.1 408", 0), 0u) << raw;
  server.stop();
}

TEST(ObservabilityRoutes, RequiresARegistry) {
  HttpServer server;
  EXPECT_THROW(install_observability_routes(server, nullptr),
               std::invalid_argument);
}

TEST(ObservabilityRoutes, MetricsScrapeIsByteIdenticalToSnapshot) {
  MetricRegistry registry;
  const Counter calls = registry.counter("confcall_test_calls_total",
                                         "calls served");
  calls.inc(41);
  const Gauge depth = registry.gauge("confcall_test_depth", "queue depth");
  depth.set(2.5);

  HttpServer server;
  install_observability_routes(server, &registry);
  server.start();
  const HttpClientResponse scraped =
      http_get("127.0.0.1", server.port(), "/metrics");
  server.stop();
  EXPECT_EQ(scraped.status, 200);
  // The scrape IS the snapshot — same renderer, same consistent cut.
  EXPECT_EQ(scraped.body, to_prometheus(registry.snapshot()));

  HttpServer json_server;
  install_observability_routes(json_server, &registry);
  json_server.start();
  const HttpClientResponse vars =
      http_get("127.0.0.1", json_server.port(), "/vars");
  json_server.stop();
  EXPECT_EQ(vars.status, 200);
  EXPECT_EQ(vars.body, to_json(registry.snapshot()));
}

TEST(ObservabilityRoutes, HealthzMapsAdmissionHealth) {
  MetricRegistry registry;
  ManualClock clock;
  AdmissionController admission(AdmissionOptions{}, clock);
  HttpServer server;
  install_observability_routes(server, &registry, nullptr, &admission);
  server.start();

  const HttpClientResponse healthy =
      http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(healthy.status, 200);
  EXPECT_EQ(healthy.body, "{\"health\": \"healthy\"}\n");

  // Drain the bucket below the shed threshold (default 15% of 64): the
  // health machine flips to shedding, which must map to 503.
  (void)admission.admit(60.0);
  EXPECT_EQ(admission.health(), Health::kShedding);
  const HttpClientResponse shedding =
      http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(shedding.status, 503);
  EXPECT_EQ(shedding.body, "{\"health\": \"shedding\"}\n");
  server.stop();
}

TEST(ObservabilityRoutes, HealthzWithoutAdmissionIsAlwaysHealthy) {
  MetricRegistry registry;
  HttpServer server;
  install_observability_routes(server, &registry);
  server.start();
  const HttpClientResponse health =
      http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "{\"health\": \"healthy\"}\n");
  server.stop();
}

TEST(ObservabilityRoutes, HealthzReportsSloVerdictAndFlipsPreBreach) {
  MetricRegistry registry;
  ManualClock clock;
  AdmissionController admission(AdmissionOptions{}, clock, &registry);
  const Histogram rounds = registry.histogram(
      "confcall_locate_rounds", HistogramSpec::integers(16), "rounds");
  SloOptions options;
  options.target_p99_ns = 4'000'000;  // 4 ms at 1 ms/round
  options.min_interval_calls = 4;
  SloController slo(options, registry, admission, clock, 1'000'000);
  HttpServer server;
  install_observability_routes(server, &registry, nullptr, &admission,
                               &slo);
  server.start();

  // Within SLO: 200, with the slo subdocument in the body.
  for (int i = 0; i < 8; ++i) rounds.observe(2.0);
  slo.step();
  const HttpClientResponse ok =
      http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(ok.status, 200);
  EXPECT_NE(ok.body.find("\"health\": \"healthy\""), std::string::npos);
  EXPECT_NE(ok.body.find("\"slo\": {\"state\": \"ok\""), std::string::npos);
  EXPECT_NE(ok.body.find("\"target_p99_ms\": 4"), std::string::npos);

  // A rising trend that projects past the target flips /healthz to 503
  // while the measured p99 is still within SLO: the pre-breach drain.
  for (int i = 0; i < 8; ++i) rounds.observe(3.0);
  slo.step();
  ASSERT_EQ(slo.slo_health(), SloHealth::kDegrading);
  const HttpClientResponse degrading =
      http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(degrading.status, 503);
  EXPECT_NE(degrading.body.find("\"state\": \"degrading\""),
            std::string::npos);

  // An actual breach stays 503 with the breached verdict.
  for (int i = 0; i < 8; ++i) rounds.observe(8.0);
  slo.step();
  ASSERT_EQ(slo.slo_health(), SloHealth::kBreached);
  const HttpClientResponse breached =
      http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(breached.status, 503);
  EXPECT_NE(breached.body.find("\"state\": \"breached\""),
            std::string::npos);
  server.stop();
}

// The ostream rendering /healthz used before it appended to a string.
std::string reference_healthz(AdmissionController* admission,
                              const SloController* slo) {
  const Health health =
      admission == nullptr ? Health::kHealthy : admission->health();
  const SloHealth verdict =
      slo == nullptr ? SloHealth::kOk : slo->slo_health();
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
  return os.str();
}

TEST(ObservabilityRoutes, HealthzMatchesTheStreamRendering) {
  {
    // No SLO controller: the health word alone, healthy then shedding.
    MetricRegistry registry;
    ManualClock clock;
    AdmissionController admission(AdmissionOptions{}, clock, &registry);
    HttpServer server;
    install_observability_routes(server, &registry, nullptr, &admission);
    server.start();
    EXPECT_EQ(http_get("127.0.0.1", server.port(), "/healthz").body,
              reference_healthz(&admission, nullptr));
    (void)admission.admit(60.0);
    EXPECT_EQ(http_get("127.0.0.1", server.port(), "/healthz").body,
              reference_healthz(&admission, nullptr));
    server.stop();
  }
  // With a controller: whole, fractional and tiny milliseconds (a 1 ns
  // target is 1e-06 ms; a 333 ns round makes p99s like 0.000999 ms) and
  // a fractional shed share of the window's arrivals.
  for (const std::uint64_t target_ns :
       {std::uint64_t{1}, std::uint64_t{1'234'567}, std::uint64_t{4'000'000},
        std::uint64_t{123'456'789'012}}) {
    for (const std::uint64_t round_ns :
         {std::uint64_t{1}, std::uint64_t{333}, std::uint64_t{1'000'000}}) {
      MetricRegistry registry;
      ManualClock clock;
      AdmissionController admission(AdmissionOptions{}, clock, &registry);
      const Histogram rounds = registry.histogram(
          "confcall_locate_rounds", HistogramSpec::integers(16), "rounds");
      SloOptions options;
      options.target_p99_ns = target_ns;
      options.min_interval_calls = 4;
      SloController slo(options, registry, admission, clock, round_ns);
      HttpServer server;
      install_observability_routes(server, &registry, nullptr, &admission,
                                   &slo);
      server.start();
      EXPECT_EQ(http_get("127.0.0.1", server.port(), "/healthz").body,
                reference_healthz(&admission, &slo));
      // One admitted arrival drains the bucket, the next two are shed:
      // a 2/3 shed window.
      (void)admission.admit(60.0);
      (void)admission.admit(1.0);
      (void)admission.admit(1.0);
      for (int i = 0; i < 8; ++i) rounds.observe(3.0);
      slo.step();
      const HttpClientResponse reply =
          http_get("127.0.0.1", server.port(), "/healthz");
      EXPECT_EQ(reply.body, reference_healthz(&admission, &slo))
          << target_ns << " ns target, " << round_ns << " ns rounds";
      EXPECT_GT(slo.shed_fraction(), 0.0);
      EXPECT_LT(slo.shed_fraction(), 1.0);
      server.stop();
    }
  }
}

TEST(ObservabilityRoutes, TracesServeSampledSpans) {
  MetricRegistry registry;
  ManualClock clock;
  SamplingTracer tracer(1, 64, clock);
  {
    const Span span(&tracer, "locate");
    clock.advance(1'000);
  }
  HttpServer server;
  install_observability_routes(server, &registry, &tracer);
  server.start();
  const HttpClientResponse traces =
      http_get("127.0.0.1", server.port(), "/traces");
  server.stop();
  EXPECT_EQ(traces.status, 200);
  EXPECT_EQ(traces.body, to_trace_event_json(tracer.snapshot()));
  EXPECT_NE(traces.body.find("\"name\": \"locate\""), std::string::npos);

  // No tracer attached: an empty, still-valid trace document.
  HttpServer bare;
  install_observability_routes(bare, &registry);
  bare.start();
  const HttpClientResponse empty =
      http_get("127.0.0.1", bare.port(), "/traces");
  bare.stop();
  EXPECT_EQ(empty.body,
            "{\"traceEvents\": [], \"displayTimeUnit\": \"ns\"}\n");
}

// ---------------------------------------------------------------------------
// Hostile-network behaviour: the fault injector sweep, send-failure
// accounting, readiness, and protocol edge cases.

namespace {

/// Open fds of this process — the leak invariant the sweep asserts.
std::size_t count_open_fds() {
  std::size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;  // includes '.', '..' and the dirfd itself — consistent
}

/// Sends raw bytes to the server, half-closes, reads the full reaction.
std::string raw_exchange(std::uint16_t port, const std::string& bytes,
                         bool trickle = false) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  if (trickle) {
    // Byte-at-a-time delivery: the server's read loop must reassemble an
    // arbitrarily fragmented request (and ride out the EINTR-sized reads
    // that come with it) without misparsing.
    for (const char c : bytes) {
      EXPECT_EQ(::send(fd, &c, 1, MSG_NOSIGNAL), 1);
    }
  } else {
    EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  (void)::shutdown(fd, SHUT_WR);
  std::string raw;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return raw;
}

/// A blocking socket connected to the loopback server on `port`.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void send_text(int fd, const std::string& text) {
  EXPECT_EQ(::send(fd, text.data(), text.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(text.size()));
}

/// What a client read before the server closed on it.
struct Reaction {
  std::string raw;
  bool clean_close = false;  ///< recv saw an orderly FIN
};

/// Reads until the server closes or `patience` runs out, then closes fd.
Reaction read_to_close(int fd, std::chrono::milliseconds patience) {
  Reaction reaction;
  const auto give_up = std::chrono::steady_clock::now() + patience;
  char chunk[4096];
  while (std::chrono::steady_clock::now() < give_up) {
    pollfd readable{fd, POLLIN, 0};
    if (::poll(&readable, 1, 10) <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) reaction.clean_close = true;
    if (n <= 0) break;
    reaction.raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reaction;
}

std::uint64_t counter(const MetricRegistry& registry, const std::string& name,
                      const MetricLabels& labels = {}) {
  const RegistrySnapshot snapshot = registry.snapshot();
  const MetricSnapshot* metric = snapshot.find(name, labels);
  return metric == nullptr ? 0 : metric->counter_value;
}

}  // namespace

TEST(FaultInjector, EveryClassGetsItsDocumentedStatusWithoutFdLeaks) {
  HttpServerOptions options;
  options.read_deadline_ns = 200'000'000;  // keep slow-loris runs short
  MetricRegistry registry;  // before the server: counters must outlive it
  HttpServer server(options, &registry);
  server.handle("POST", "/locate", [](const HttpRequest&) {
    return HttpResponse{};
  });
  server.start();

  struct Expectation {
    SocketFaultClass fault;
    int status;
    const char* metric_class;
  };
  const Expectation expectations[] = {
      {SocketFaultClass::kTornWrite, 400, "malformed"},
      {SocketFaultClass::kMidBodyDisconnect, 400, "malformed"},
      {SocketFaultClass::kSlowLorisHeaders, 408, "slow_client"},
      {SocketFaultClass::kOversizedHeaders, 431, "header_too_large"},
      {SocketFaultClass::kOversizedBody, 413, "body_too_large"},
      {SocketFaultClass::kGarbagePipelining, 400, "malformed"},
  };

  const std::size_t fds_before = count_open_fds();
  SocketFaultInjector injector(0x5eed);
  for (const Expectation& expected : expectations) {
    for (int round = 0; round < 3; ++round) {
      const SocketFaultInjector::Outcome outcome = injector.run(
          "127.0.0.1", server.port(), expected.fault, 3'000'000'000);
      EXPECT_EQ(outcome.status, expected.status)
          << socket_fault_class_name(expected.fault) << " round " << round
          << " raw: " << outcome.raw.substr(0, 120);
      // The header flood is the one class where the server rightly
      // closes on top of unread abuse, so the response arrives with an
      // RST rather than a FIN; everywhere else the close is orderly.
      if (expected.fault != SocketFaultClass::kOversizedHeaders) {
        EXPECT_TRUE(outcome.clean_close)
            << socket_fault_class_name(expected.fault) << " round "
            << round;
      }
    }
  }

  // Every worker released its connection fd. Brief settle loop: the last
  // worker may still be between our EOF-drain and its close().
  std::size_t fds_after = count_open_fds();
  for (int i = 0; i < 100 && fds_after > fds_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fds_after = count_open_fds();
  }
  EXPECT_EQ(fds_after, fds_before);

  // And each class landed on its labelled rejection counter.
  server.stop();
  const RegistrySnapshot snapshot = registry.snapshot();
  for (const Expectation& expected : expectations) {
    bool found = false;
    for (const MetricSnapshot& metric : snapshot.metrics) {
      if (metric.name != "confcall_http_rejections_total") continue;
      for (const auto& label : metric.labels) {
        if (label.second == expected.metric_class) {
          found = true;
          EXPECT_GE(metric.counter_value, 3u) << expected.metric_class;
        }
      }
    }
    EXPECT_TRUE(found) << expected.metric_class;
  }
}

TEST(HttpServer, PeerResetDuringResponseIsCountedNotFatal) {
  MetricRegistry registry;  // before the server: counters must outlive it
  HttpServer server({}, &registry);
  install_observability_routes(server, &registry);
  server.handle("GET", "/slow", [](const HttpRequest&) {
    // Give the client time to vanish before the response is written.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    HttpResponse response;
    response.body = std::string(1 << 20, 'x');  // larger than socket buffers
    return response;
  });
  server.start();

  // Ask, then slam the door: SO_LINGER(0) close sends an RST, so the
  // worker's send hits ECONNRESET/EPIPE on a half-written response. The
  // contract: counted, never a crash (a SIGPIPE would kill the process)
  // and never a wedged worker.
  for (int i = 0; i < 3; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string request = "GET /slow HTTP/1.1\r\nHost: t\r\n\r\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    struct linger hard_close {1, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close,
                           sizeof(hard_close)),
              0);
    ::close(fd);
  }

  // The server is still fully alive for well-behaved clients...
  std::uint64_t send_failed = 0;
  for (int i = 0; i < 100; ++i) {
    const HttpClientResponse probe =
        http_get("127.0.0.1", server.port(), "/metrics");
    ASSERT_EQ(probe.status, 200);
    // Newline-anchored: the HELP line repeats the metric name.
    const std::size_t at =
        probe.body.find("\nconfcall_http_send_failed_total ");
    ASSERT_NE(at, std::string::npos);
    send_failed = static_cast<std::uint64_t>(
        std::stoull(probe.body.substr(at + 33)));
    if (send_failed >= 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // ...and every torn-off peer was counted.
  EXPECT_GE(send_failed, 3u);
  server.stop();
}

TEST(ObservabilityRoutes, ReadyzTracksTheRestartLifecycle) {
  MetricRegistry registry;
  ReadinessGate readiness;
  HttpServer server;
  install_observability_routes(server, &registry, nullptr, nullptr, nullptr,
                               &readiness);
  server.start();

  // A simulated restart walks the whole lifecycle. Liveness (/healthz)
  // stays 200 throughout — the process is fine — while readiness
  // (/readyz) only opens in kReady: a balancer must not route to a
  // backend that is restoring or draining.
  const struct {
    Readiness state;
    int expected;
  } phases[] = {
      {Readiness::kStarting, 503}, {Readiness::kRestoring, 503},
      {Readiness::kWarmup, 503},   {Readiness::kReady, 200},
      {Readiness::kDraining, 503},
  };
  for (const auto& phase : phases) {
    readiness.set(phase.state);
    const HttpClientResponse ready =
        http_get("127.0.0.1", server.port(), "/readyz");
    EXPECT_EQ(ready.status, phase.expected)
        << readiness_name(phase.state);
    EXPECT_NE(ready.body.find(readiness_name(phase.state)),
              std::string::npos);
    EXPECT_EQ(
        http_get("127.0.0.1", server.port(), "/healthz").status, 200)
        << readiness_name(phase.state);
  }
  server.stop();
}

TEST(ObservabilityRoutes, ScrapeBytesGaugeLagsOneScrapeBehind) {
  // confcall_scrape_bytes reports the PREVIOUS scrape's size: the gauge
  // is set before rendering, so each response stays byte-identical to
  // an in-process render of the same cut (the E16 gate) instead of
  // chasing its own length.
  MetricRegistry registry;
  registry.counter("confcall_test_calls_total", "calls").inc(1);
  HttpServer server;
  install_observability_routes(server, &registry);
  server.start();

  const HttpClientResponse first =
      http_get("127.0.0.1", server.port(), "/metrics");
  EXPECT_NE(first.body.find("confcall_scrape_bytes 0\n"),
            std::string::npos)
      << first.body;

  const HttpClientResponse second =
      http_get("127.0.0.1", server.port(), "/metrics");
  EXPECT_NE(second.body.find("confcall_scrape_bytes " +
                             std::to_string(first.body.size()) + "\n"),
            std::string::npos)
      << second.body;
  // Still byte-identical to the renderer on the post-scrape snapshot.
  EXPECT_EQ(second.body, to_prometheus(registry.snapshot()));
  server.stop();
}

TEST(ObservabilityRoutes, ReadyzDetailMergesIntoTheBody) {
  MetricRegistry registry;
  ReadinessGate readiness;
  ObservabilityOptions options;
  options.readyz_detail = [] {
    return std::string("\"areas_ready\": 3, \"areas_total\": 8");
  };
  HttpServer server;
  install_observability_routes(server, &registry, nullptr, nullptr, nullptr,
                               &readiness, options);
  server.start();

  readiness.set(Readiness::kRestoring);
  const HttpClientResponse restoring =
      http_get("127.0.0.1", server.port(), "/readyz");
  EXPECT_EQ(restoring.status, 503);
  EXPECT_NE(restoring.body.find("\"areas_ready\": 3"), std::string::npos)
      << restoring.body;

  readiness.set(Readiness::kReady);
  const HttpClientResponse ready =
      http_get("127.0.0.1", server.port(), "/readyz");
  EXPECT_EQ(ready.status, 200);
  EXPECT_NE(ready.body.find("\"areas_total\": 8"), std::string::npos)
      << ready.body;
  server.stop();
}

TEST(ObservabilityRoutes, MetricsExemplarsFollowTheOption) {
  MetricRegistry registry;
  const Histogram lat = registry.histogram(
      "confcall_test_lat_ns", HistogramSpec::integers(4), "latency");
  lat.observe(2.0);
  lat.annotate(2.0, 0xfeedULL);

  // Default routes: annotations never reach the wire.
  HttpServer plain_server;
  install_observability_routes(plain_server, &registry);
  plain_server.start();
  const HttpClientResponse plain =
      http_get("127.0.0.1", plain_server.port(), "/metrics");
  plain_server.stop();
  EXPECT_EQ(plain.body.find("trace_id"), std::string::npos);

  // Opted in: the bucket line grows the OpenMetrics exemplar suffix.
  ObservabilityOptions options;
  options.exemplars = true;
  HttpServer exemplar_server;
  install_observability_routes(exemplar_server, &registry, nullptr, nullptr,
                               nullptr, nullptr, options);
  exemplar_server.start();
  const HttpClientResponse annotated =
      http_get("127.0.0.1", exemplar_server.port(), "/metrics");
  exemplar_server.stop();
  EXPECT_NE(
      annotated.body.find("# {trace_id=\"000000000000feed\"} 2"),
      std::string::npos)
      << annotated.body;
}

TEST(HttpServer, ContentLengthEdgeCasesGetSpecificStatuses) {
  HttpServerOptions options;
  options.max_request_bytes = 4096;
  HttpServer server(options);
  server.handle("POST", "/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.body;
    return response;
  });
  server.start();
  const std::uint16_t port = server.port();

  // Missing Content-Length on a POST = empty body, still a valid request
  // (the CI smoke's bodyless locate depends on this).
  EXPECT_EQ(raw_exchange(port, "POST /echo HTTP/1.1\r\nHost: t\r\n\r\n")
                .rfind("HTTP/1.1 200", 0),
            0u);
  // Non-numeric, negative, or absurdly long Content-Length values are
  // malformed — 400, not a crash and not a smuggling vector.
  EXPECT_EQ(raw_exchange(
                port,
                "POST /echo HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
                .rfind("HTTP/1.1 400", 0),
            0u);
  EXPECT_EQ(
      raw_exchange(port, "POST /echo HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
          .rfind("HTTP/1.1 400", 0),
      0u);
  EXPECT_EQ(raw_exchange(port,
                         "POST /echo HTTP/1.1\r\nContent-Length: "
                         "99999999999999999999\r\n\r\n")
                .rfind("HTTP/1.1 400", 0),
            0u);
  // A declaration past the cap is rejected from the header alone — the
  // server must not read (or wait for) a body it will never accept.
  EXPECT_EQ(raw_exchange(port,
                         "POST /echo HTTP/1.1\r\nContent-Length: "
                         "1000000\r\n\r\n")
                .rfind("HTTP/1.1 413", 0),
            0u);
  // A header block that overruns the cap before the blank line is 431.
  EXPECT_EQ(raw_exchange(port,
                         "GET /echo HTTP/1.1\r\nX-Big: " +
                             std::string(8192, 'x') + "\r\n\r\n")
                .rfind("HTTP/1.1 431", 0),
            0u);
  // Byte-at-a-time delivery of a valid request still parses to 200.
  EXPECT_EQ(raw_exchange(port,
                         "POST /echo HTTP/1.1\r\nContent-Length: "
                         "2\r\n\r\nhi",
                         /*trickle=*/true)
                .rfind("HTTP/1.1 200", 0),
            0u);
  server.stop();
}

TEST(HttpServer, QueueFull503EndsInALingeringClose) {
  HttpServerOptions options;
  options.max_pending_connections = 4;
  options.read_deadline_ns = 300'000'000;
  MetricRegistry registry;  // before the server: counters must outlive it
  HttpServer server(options, &registry);
  install_observability_routes(server, &registry);
  server.start();

  // Four slow-loris clients take every serving slot of the one loop.
  std::vector<int> holders;
  for (int i = 0; i < 4; ++i) {
    holders.push_back(connect_loopback(server.port()));
    send_text(holders.back(), "GET /healthz HTTP/1.1\r\nHost: t\r\n");
  }
  // The fifth is shed. Its request is drained unread, so the 503
  // arrives whole and the close is a FIN, not an RST.
  const int fifth = connect_loopback(server.port());
  send_text(fifth, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  const Reaction shed = read_to_close(fifth, std::chrono::seconds(3));
  EXPECT_EQ(shed.raw.rfind("HTTP/1.1 503", 0), 0u) << shed.raw;
  EXPECT_NE(shed.raw.find("\r\n\r\nconnection queue full\n"),
            std::string::npos)
      << shed.raw;
  EXPECT_TRUE(shed.clean_close);

  for (const int fd : holders) {
    const Reaction held = read_to_close(fd, std::chrono::seconds(3));
    EXPECT_EQ(held.raw.rfind("HTTP/1.1 408", 0), 0u) << held.raw;
    EXPECT_TRUE(held.clean_close);
  }
  server.stop();
  EXPECT_EQ(server.connections_shed(), 1u);
  EXPECT_EQ(counter(registry, "confcall_http_rejections_total",
                    {{"class", "queue_full"}}),
            1u);
  EXPECT_EQ(counter(registry, "confcall_http_rejections_total",
                    {{"class", "slow_client"}}),
            4u);
}

TEST(HttpServer, SlowClientsDoNotStallTheLoop) {
  HttpServerOptions options;
  options.workers = 1;
  options.read_deadline_ns = 2'000'000'000;
  HttpServer server(options);
  server.handle("GET", "/healthz", [](const HttpRequest&) {
    return HttpResponse{};
  });
  server.start();

  using Clock = std::chrono::steady_clock;
  const Clock::time_point opened = Clock::now();
  std::vector<int> slow;
  for (int i = 0; i < 8; ++i) {
    slow.push_back(connect_loopback(server.port()));
    send_text(slow.back(), "GET /healthz HTTP/1.1\r\nHost: t\r\n");
  }
  // Eight clients mid-header hold slots, not the thread.
  const Clock::time_point asked = Clock::now();
  EXPECT_EQ(http_get("127.0.0.1", server.port(), "/healthz").status, 200);
  EXPECT_LT(Clock::now() - asked, std::chrono::milliseconds(100));

  for (const int fd : slow) {
    const Reaction reaction = read_to_close(fd, std::chrono::seconds(5));
    EXPECT_EQ(reaction.raw.rfind("HTTP/1.1 408", 0), 0u) << reaction.raw;
  }
  const Clock::duration waited = Clock::now() - opened;
  EXPECT_GE(waited, std::chrono::milliseconds(2000));
  EXPECT_LT(waited, std::chrono::milliseconds(3500));
  server.stop();
}

TEST(HttpServer, PartialWritesReachSlowReadersAndCutStalledOnes) {
  HttpServerOptions options;
  options.read_deadline_ns = 500'000'000;  // also the write-stall bound
  MetricRegistry registry;  // before the server: counters must outlive it
  HttpServer server(options, &registry);
  server.handle("GET", "/healthz", [](const HttpRequest&) {
    return HttpResponse{};
  });
  const std::string big(1 << 20, 'x');
  server.handle("GET", "/big", [&big](const HttpRequest&) {
    HttpResponse response;
    response.body = big;
    return response;
  });
  // Past what the kernel buffers on both ends, so the write must stall.
  server.handle("GET", "/huge", [](const HttpRequest&) {
    HttpResponse response;
    response.body = std::string(std::size_t{32} << 20, 'y');
    return response;
  });
  server.start();
  const std::size_t fds_before = count_open_fds();

  // A reader that takes 4 KiB at a time through a small receive window.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int window = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &window, sizeof(window)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  send_text(fd, "GET /big HTTP/1.1\r\nHost: t\r\n\r\n");
  std::string raw;
  char chunk[4096];
  bool asked_healthz = false;
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<std::size_t>(n));
    if (!asked_healthz && raw.size() >= (64u << 10)) {
      // Mid-response: the loop still answers other clients promptly.
      asked_healthz = true;
      const auto asked = std::chrono::steady_clock::now();
      EXPECT_EQ(http_get("127.0.0.1", server.port(), "/healthz").status, 200);
      EXPECT_LT(std::chrono::steady_clock::now() - asked,
                std::chrono::milliseconds(100));
    }
  }
  ::close(fd);
  EXPECT_TRUE(asked_healthz);
  const std::size_t body_at = raw.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(raw.substr(0, 15), "HTTP/1.1 200 OK");
  EXPECT_EQ(raw.substr(body_at + 4), big);

  // A reader that never reads is cut once the write stalls past the
  // deadline, and counted.
  const int stalled = connect_loopback(server.port());
  send_text(stalled, "GET /huge HTTP/1.1\r\nHost: t\r\n\r\n");
  std::uint64_t send_failed = 0;
  for (int i = 0; i < 300 && send_failed == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    send_failed = counter(registry, "confcall_http_send_failed_total");
  }
  EXPECT_EQ(send_failed, 1u);
  ::close(stalled);

  // Neither connection left an fd behind on the server.
  std::size_t fds_after = count_open_fds();
  for (int i = 0; i < 100 && fds_after > fds_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fds_after = count_open_fds();
  }
  EXPECT_EQ(fds_after, fds_before);
  server.stop();
}

}  // namespace
}  // namespace confcall::support
