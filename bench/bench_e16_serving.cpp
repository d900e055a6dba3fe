// Experiment E16 — cost and fidelity of the serving surface.
//
// PR5 turned tracing always-on (behind a deterministic 1-in-N sample)
// and put the registry behind a live HTTP scrape endpoint. Both are only
// acceptable if serving stays fast and the scrape tells the truth. This
// harness measures and gates three claims, and emits BENCH_E16.json:
//
//   * Sampled-tracing overhead: locate() throughput on the fixture.h workload
//     with metrics bound, untraced vs traced through a SamplingTracer at
//     1 in 64 (the serving daemon's default). Sides are interleaved,
//     best-of-N each, like E15. Gate: sampling costs <= 100 ns/call
//     (absolute, derived from the untraced/sampled throughput
//     difference; re-based from the original >= 95% ratio gate when
//     E18's batched/SoA hot path made the protected call ~4x faster —
//     the ratio is still recorded). The always-on budget E15's full
//     every-call tracer blows by an order of magnitude.
//   * Scrape fidelity: GET /metrics through the real HTTP server must be
//     BYTE-IDENTICAL to to_prometheus(registry.snapshot()) taken
//     in-process with no concurrent writers. The scrape is the same
//     snapshot, not a parallel bookkeeping path.
//   * Scrape latency under load: p99 of ~200 GET /metrics round-trips
//     against a cellular::ServingNode (confcall_serve's node) over the
//     same world while a background thread steps it as fast as it can.
//     Gate is deliberately loose (<= 250 ms) — it catches lock-ordering
//     accidents that would make scrapes block behind the hot path, not
//     container jitter.
//   * Batched POST /locate: arrays of 1/8/64 calls round-trip through
//     the daemon's own handler (the locate_api wire format, admission
//     and ServiceFleet::locate_many) on the same loaded node. Every
//     response must be a 200 with one admitted outcome per call, and
//     the round-trips share the scrape latency gate above.
//   * Codec cost: heap allocations and ns for each HTTP request parse
//     (support::detail::parse_request on a POST /locate request), each
//     decoded POST /locate body (1- and 64-call) and each /metrics render
//     (to_prometheus of a fresh snapshot of a fixed registry). A counting
//     global operator new in this binary counts the allocations; the
//     inputs are fixed, so the counts are exact on any machine.
//
// Flags (shared bench set, bench/harness.h): --smoke, --threads N
// (unused, accepted for uniformity), --out FILE (default BENCH_E16.json).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cellular/locate_api.h"
#include "cellular/serving_node.h"
#include "support/http.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/table.h"
#include "support/trace.h"

#include "fixture.h"
#include "harness.h"

// Every allocation in this binary, for the codec section: replacing the
// global operator new counts them and changes nothing else. Every form
// of new and delete is replaced, so a sanitizer's own operators never
// see a block they did not hand out.
std::atomic<std::uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace {

using namespace confcall;

constexpr std::size_t kSampleEvery = 64;  // the serving daemon's default

/// A ready-to-locate service over the bench/fixture.h world with
/// metrics bound and an optional tracer attached.
struct Locator {
  bench::World world;
  cellular::LocationService service;

  Locator(support::MetricRegistry& registry, support::Tracer* tracer)
      : service(world.make_service(make_config(registry, tracer))) {}

  static cellular::LocationService::Config make_config(
      support::MetricRegistry& registry, support::Tracer* tracer) {
    cellular::LocationService::Config config = bench::World::service_config();
    config.metrics = cellular::ServiceMetrics::create(registry);
    config.tracer = tracer;
    return config;
  }

  void locate_once() {
    cellular::UserId users[3];
    cellular::CellId truth[3];
    world.draw_call(world.rng, users, truth);
    (void)service.locate(users, truth, world.rng);
  }
};

/// One timed pass: locates per second with metrics bound, either
/// untraced or traced through a 1-in-kSampleEvery SamplingTracer.
double run_side(bool traced, bool smoke, std::size_t* calls_out) {
  support::MetricRegistry registry;
  support::SamplingTracer tracer(kSampleEvery, /*capacity=*/4096);
  Locator locator(registry, traced ? &tracer : nullptr);

  const std::size_t n = smoke ? 2000 : 20000;
  const auto loop_start = bench::Clock::now();
  for (std::size_t t = 0; t < n; ++t) locator.locate_once();
  const double elapsed = bench::seconds_since(loop_start);
  *calls_out = n;
  return elapsed > 0.0 ? static_cast<double>(n) / elapsed : 0.0;
}

/// Allocations and ns per call of `op`, over `reps` calls after one
/// warm-up call (which may fill thread-local scratch).
struct CodecCost {
  double allocs = 0.0;
  double ns = 0.0;
};

template <typename Op>
CodecCost codec_cost(std::size_t reps, Op&& op) {
  op();
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const auto start = bench::Clock::now();
  for (std::size_t i = 0; i < reps; ++i) op();
  const double elapsed = bench::seconds_since(start);
  const std::uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  return {static_cast<double>(allocs) / static_cast<double>(reps),
          1e9 * elapsed / static_cast<double>(reps)};
}

/// A POST /locate body of `calls` 3-callee calls ({3k, 3k+1, 3k+2} mod
/// 96, distinct within a call): one call object, or an array of them.
std::string locate_body(std::size_t calls, bool batch) {
  std::string body = batch ? "[" : "";
  for (std::size_t k = 0; k < calls; ++k) {
    if (k > 0) body += ", ";
    body += "{\"users\": [" + std::to_string((3 * k) % 96) + ", " +
            std::to_string((3 * k + 1) % 96) + ", " +
            std::to_string((3 * k + 2) % 96) + "]}";
  }
  if (batch) body += "]";
  return body;
}

/// A registry of the serving daemon's shape and a fixed content: two
/// shards of latency and round histograms, per-class counters and
/// fractional gauges, filled from a fixed-seed stream.
void fill_render_registry(support::MetricRegistry& registry) {
  std::uint64_t state = 2024;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int shard = 0; shard < 2; ++shard) {
    const support::MetricLabels labels{{"shard", std::to_string(shard)}};
    const support::Histogram latency = registry.histogram(
        "bench_locate_latency_ns",
        support::HistogramSpec::exponential(1000.0, 2.0, 22),
        "Locate latency", labels);
    const support::Histogram rounds = registry.histogram(
        "bench_locate_rounds", support::HistogramSpec::integers(8),
        "Rounds used", labels);
    const support::Counter calls =
        registry.counter("bench_locate_calls_total", "Calls", labels);
    for (int i = 0; i < 5000; ++i) {
      latency.observe(static_cast<double>(next() % 4'000'000));
      rounds.observe(static_cast<double>(next() % 9));
      calls.inc();
    }
  }
  for (int i = 0; i < 24; ++i) {
    registry
        .counter("bench_events_total", "Events by class",
                 {{"class", "class_" + std::to_string(i)}})
        .inc(next() % 100000);
    registry
        .gauge("bench_level_" + std::to_string(i % 6), "A level",
               {{"area", std::to_string(i)}})
        .set(static_cast<double>(next() % 1000) / 7.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness bench(
      "E16", "serving surface — sampled tracing and live scrape", argc, argv);
  const bool smoke = bench.smoke();

  // ---- 1. Sampled-tracing overhead: interleaved best-of-3 per side.
  std::size_t calls = 0;
  const std::vector<double> best = bench::best_of_interleaved(
      3, {[&] { return run_side(false, smoke, &calls); },
          [&] { return run_side(true, smoke, &calls); }});
  const double best_untraced = best[0], best_sampled = best[1];
  const double sampled_ratio =
      best_untraced > 0.0 ? best_sampled / best_untraced : 0.0;
  // Absolute per-call cost, not a ratio — same rationale as E15's
  // metrics gate (a ratio gate punishes speedups of the locate path
  // itself and turns the margin into timing noise).
  const double sampling_overhead_us_per_call =
      best_untraced > 0.0 && best_sampled > 0.0
          ? 1e6 * (1.0 / best_sampled - 1.0 / best_untraced)
          : 1e9;

  // ---- 2. Scrape fidelity: populate a registry, then compare the HTTP
  // scrape against the in-process render with no concurrent writers.
  bool scrape_identical = false;
  {
    support::MetricRegistry registry;
    support::SamplingTracer tracer(kSampleEvery, 4096);
    Locator locator(registry, &tracer);
    for (std::size_t t = 0; t < (smoke ? 500 : 5000); ++t) {
      locator.locate_once();
    }
    support::HttpServer server;  // ephemeral port, defaults
    support::install_observability_routes(server, &registry, &tracer);
    server.start();
    const support::HttpClientResponse scraped =
        support::http_get("127.0.0.1", server.port(), "/metrics");
    const std::string in_process =
        support::to_prometheus(registry.snapshot());
    scrape_identical = scraped.status == 200 && scraped.body == in_process;
    server.stop();
  }

  // ---- 3. Scrape + batched-locate latency under load: a writer thread
  // steps a serving node while we time GET /metrics round-trips AND
  // batched POST /locate round-trips (arrays of 1/8/64 calls through
  // the daemon's handler). Both share the same p99 <= 250 ms gate.
  double p50_ms = 0.0, p99_ms = 0.0;
  constexpr std::size_t kBatchSizes[] = {1, 8, 64};
  bool batch_ok = true;
  double batch_p99_ms[3] = {0.0, 0.0, 0.0};
  {
    // The fixture's world as a SimConfig, one 3-callee call per step.
    cellular::SimConfig world = bench::steady_sim_config();
    world.call_rate = 1.0;
    world.group_min = 3;
    world.group_max = 3;
    world.seed = 1313;
    cellular::ServingNode node(
        world, {.trace_every = kSampleEvery, .trace_capacity = 4096},
        support::SteadyClockSource::shared());
    node.start();
    (void)node.restore_or_warm_up();
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        node.step();
        // std::mutex is not fair: without a yield the writer re-takes
        // the node's sim mutex before a woken POST handler runs.
        std::this_thread::yield();
      }
    });
    const std::size_t scrapes = smoke ? 50 : 200;
    std::vector<double> latencies_ms;
    latencies_ms.reserve(scrapes);
    for (std::size_t i = 0; i < scrapes; ++i) {
      const auto start = bench::Clock::now();
      const support::HttpClientResponse response =
          support::http_get("127.0.0.1", node.port(), "/metrics");
      if (response.status == 200) {
        latencies_ms.push_back(bench::seconds_since(start) * 1000.0);
      }
    }
    // Batched POST /locate: call k of a batch pages users
    // {3k, 3k+1, 3k+2} mod 96 — distinct within each call, so the
    // request is always valid; the response must be a 200 with exactly
    // one admitted outcome per call.
    const std::size_t posts_per_size = smoke ? 5 : 20;
    for (std::size_t s = 0; s < 3; ++s) {
      const std::size_t batch = kBatchSizes[s];
      std::string body = "[";
      for (std::size_t k = 0; k < batch; ++k) {
        if (k > 0) body += ", ";
        body += "{\"users\": [" + std::to_string((3 * k) % 96) + ", " +
                std::to_string((3 * k + 1) % 96) + ", " +
                std::to_string((3 * k + 2) % 96) + "]}";
      }
      body += "]";
      std::vector<double> post_ms;
      post_ms.reserve(posts_per_size);
      for (std::size_t i = 0; i < posts_per_size; ++i) {
        const auto start = bench::Clock::now();
        const support::HttpClientResponse response = support::http_request(
            "127.0.0.1", node.port(), "POST", "/locate", body);
        const double elapsed_ms = bench::seconds_since(start) * 1000.0;
        bool round_trip_ok = response.status == 200;
        if (round_trip_ok) {
          try {
            const support::JsonValue parsed =
                support::JsonValue::parse(response.body);
            round_trip_ok = parsed.is_array() &&
                            parsed.as_array().size() == batch;
            for (const support::JsonValue& outcome : parsed.as_array()) {
              round_trip_ok =
                  round_trip_ok && outcome.find("admitted") != nullptr &&
                  outcome.find("admitted")->as_bool();
            }
          } catch (const support::JsonError&) {
            round_trip_ok = false;
          }
        }
        batch_ok = batch_ok && round_trip_ok;
        if (round_trip_ok) {
          post_ms.push_back(elapsed_ms);
          latencies_ms.push_back(elapsed_ms);
        }
      }
      std::sort(post_ms.begin(), post_ms.end());
      if (!post_ms.empty()) {
        batch_p99_ms[s] = post_ms[(post_ms.size() * 99) / 100];
      } else {
        batch_ok = false;
      }
    }
    stop.store(true);
    writer.join();
    node.drain();
    std::sort(latencies_ms.begin(), latencies_ms.end());
    if (!latencies_ms.empty()) {
      p50_ms = latencies_ms[latencies_ms.size() / 2];
      p99_ms = latencies_ms[(latencies_ms.size() * 99) / 100];
    }
  }

  // ---- 4. Codec cost: the in-place request parse, the DOM-free body
  // decode and the exposition render, each on fixed input.
  const std::size_t codec_reps = smoke ? 2000 : 20000;
  const std::string body1 = locate_body(1, /*batch=*/false);
  const std::string body64 = locate_body(64, /*batch=*/true);
  const std::string request_bytes =
      "POST /locate HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body1.size()) + "\r\n\r\n" + body1;
  bool codec_ok = true;
  const support::HttpServerOptions http_options;
  const CodecCost http_parse = codec_cost(codec_reps, [&] {
    support::HttpRequest request;
    support::HttpResponse error;
    std::size_t header_end = std::string_view::npos;
    codec_ok = codec_ok &&
               support::detail::parse_request(request_bytes, &header_end,
                                              http_options, &request, &error) ==
                   support::detail::RequestParse::kComplete &&
               request.body == body1;
  });
  const CodecCost decode1 = codec_cost(codec_reps, [&] {
    codec_ok = codec_ok && cellular::parse_locate_body(body1, 96).calls.size() == 1;
  });
  const CodecCost decode64 = codec_cost(codec_reps / 16, [&] {
    codec_ok =
        codec_ok && cellular::parse_locate_body(body64, 96).calls.size() == 64;
  });
  support::MetricRegistry render_registry;
  fill_render_registry(render_registry);
  std::size_t render_bytes = 0;
  const CodecCost render = codec_cost(smoke ? 50 : 500, [&] {
    render_bytes = support::to_prometheus(render_registry.snapshot()).size();
  });

  // ---- Report.
  support::TextTable table({"metric", "value"});
  table.add_row({"locates/sec (metrics, untraced)",
                 support::TextTable::fmt(best_untraced, 0)});
  table.add_row({"locates/sec (metrics, sampled 1/" +
                     support::TextTable::fmt(kSampleEvery) + ")",
                 support::TextTable::fmt(best_sampled, 0)});
  table.add_row({"sampled-trace throughput ratio",
                 support::TextTable::fmt(100.0 * sampled_ratio, 2) + "%"});
  table.add_row(
      {"sampling overhead/call",
       support::TextTable::fmt(1000.0 * sampling_overhead_us_per_call, 0) +
           " ns (gate <= 100)"});
  table.add_row({"scrape == in-process snapshot",
                 scrape_identical ? "yes" : "NO"});
  table.add_row({"scrape p50 under load",
                 support::TextTable::fmt(p50_ms, 2) + " ms"});
  table.add_row({"scrape p99 under load",
                 support::TextTable::fmt(p99_ms, 2) + " ms"});
  for (std::size_t s = 0; s < 3; ++s) {
    table.add_row({"POST /locate p99 (batch " +
                       support::TextTable::fmt(kBatchSizes[s]) + ")",
                   support::TextTable::fmt(batch_p99_ms[s], 2) + " ms"});
  }
  table.add_row({"batch POST round-trips ok", batch_ok ? "yes" : "NO"});
  const auto codec_row = [&](const std::string& what, const CodecCost& cost,
                             double calls_per_op) {
    table.add_row({what, support::TextTable::fmt(cost.allocs, 2) +
                             " allocs, " +
                             support::TextTable::fmt(cost.ns / calls_per_op, 0) +
                             " ns" + (calls_per_op > 1.0 ? "/call" : "")});
  };
  codec_row("HTTP request parse", http_parse, 1.0);
  codec_row("POST /locate decode (1 call)", decode1, 1.0);
  codec_row("POST /locate decode (64 calls)", decode64, 64.0);
  codec_row("/metrics render (" + support::TextTable::fmt(render_bytes) + " B)",
            render, 1.0);
  std::cout << "\n" << table;

  bench.gate("sampling_overhead_at_most_100ns",
             sampling_overhead_us_per_call <= 0.10, bench::Gate::kQuietHost);
  bench.gate("scrape_byte_identical", scrape_identical);
  bench.gate("p99_at_most_250ms_under_load", p99_ms > 0.0 && p99_ms <= 250.0);
  bench.gate("batch_post_round_trips", batch_ok);
  bench.gate("codec_round_trips", codec_ok);

  // ---- Machine-readable trajectory record.
  bench::Json& record = bench.record;
  record["locate_calls_per_side"] = calls;
  record["sample_every"] = kSampleEvery;
  bench::Json& overhead = record["overhead"];
  overhead["locates_per_sec_untraced"] = best_untraced;
  overhead["locates_per_sec_sampled"] = best_sampled;
  overhead["sampled_throughput_ratio"] = sampled_ratio;
  overhead["sampling_overhead_us_per_call"] = sampling_overhead_us_per_call;
  bench::Json& scrape = record["scrape"];
  scrape["byte_identical"] = scrape_identical;
  scrape["p50_ms"] = p50_ms;
  scrape["p99_ms"] = p99_ms;
  bench::Json& locate_batch = record["locate_batch"];
  locate_batch["round_trips_ok"] = batch_ok;
  for (std::size_t s = 0; s < 3; ++s) {
    locate_batch["p99_ms_batch" + std::to_string(kBatchSizes[s])] =
        batch_p99_ms[s];
  }
  bench::Json& codec = record["codec"];
  codec["http_parse_allocs"] = http_parse.allocs;
  codec["http_parse_ns"] = http_parse.ns;
  codec["decode_body1_allocs"] = decode1.allocs;
  codec["decode_body1_ns_per_call"] = decode1.ns;
  codec["decode_body64_allocs"] = decode64.allocs;
  codec["decode_body64_ns_per_call"] = decode64.ns / 64.0;
  codec["metrics_render_allocs"] = render.allocs;
  codec["metrics_render_ns"] = render.ns;
  codec["metrics_render_bytes"] = render_bytes;
  return bench.finish();
}
