// Experiment E16 — cost and fidelity of the serving surface.
//
// PR5 turned tracing always-on (behind a deterministic 1-in-N sample)
// and put the registry behind a live HTTP scrape endpoint. Both are only
// acceptable if serving stays fast and the scrape tells the truth. This
// harness measures and gates three claims, and emits BENCH_E16.json:
//
//   * Sampled-tracing overhead: locate() throughput on the E15 workload
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
//     while a background thread hammers locate() into the same registry.
//     Gate is deliberately loose (<= 250 ms) — it catches lock-ordering
//     accidents that would make scrapes block behind the hot path, not
//     container jitter.
//   * Batched POST /locate: arrays of 1/8/64 calls round-trip through
//     the locate_api wire format and LocationService::locate_many on
//     the same loaded server. Every response must be a 200 with one
//     admitted outcome per call, and the round-trips share the scrape
//     latency gate above.
//
// Flags (shared bench set, bench/harness.h): --smoke, --threads N
// (unused, accepted for uniformity), --out FILE (default BENCH_E16.json).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cellular/locate_api.h"
#include "cellular/service.h"
#include "cellular/topology.h"
#include "prob/rng.h"
#include "support/http.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/table.h"
#include "support/trace.h"

#include "harness.h"

namespace {

using namespace confcall;

constexpr std::size_t kSampleEvery = 64;  // the serving daemon's default

/// A ready-to-locate service over the E15 grid with metrics bound and an
/// optional tracer attached, plus the state the locate loop needs.
struct Harness {
  cellular::GridTopology grid{12, 12, true,
                              cellular::Neighborhood::kVonNeumann};
  cellular::LocationAreas areas = cellular::LocationAreas::tiles(grid, 3, 3);
  cellular::MarkovMobility mobility{grid, 0.9};
  prob::Rng rng{1313};
  std::vector<cellular::CellId> cells;
  cellular::LocationService service;

  Harness(support::MetricRegistry& registry, support::Tracer* tracer)
      : cells(make_cells(rng, grid)),
        service(grid, areas, mobility, make_config(registry, tracer),
                cells) {}

  static std::vector<cellular::CellId> make_cells(
      prob::Rng& rng, const cellular::GridTopology& grid) {
    std::vector<cellular::CellId> cells(96);
    for (auto& cell : cells) {
      cell = static_cast<cellular::CellId>(rng.next_below(grid.num_cells()));
    }
    return cells;
  }

  static cellular::LocationService::Config make_config(
      support::MetricRegistry& registry, support::Tracer* tracer) {
    cellular::LocationService::Config config;
    config.profile_kind = cellular::ProfileKind::kStationary;
    config.max_paging_rounds = 3;
    config.enable_plan_cache = true;
    config.metrics = cellular::ServiceMetrics::create(registry);
    config.tracer = tracer;
    return config;
  }

  void locate_once() {
    cellular::UserId users[3];
    cellular::CellId truth[3];
    for (std::size_t i = 0; i < 3; ++i) {
      users[i] = static_cast<cellular::UserId>(i * 32 + rng.next_below(32));
      truth[i] = cells[users[i]];
    }
    (void)service.locate(users, truth, rng);
  }
};

/// One timed pass: locates per second with metrics bound, either
/// untraced or traced through a 1-in-kSampleEvery SamplingTracer.
double run_side(bool traced, bool smoke, std::size_t* calls_out) {
  support::MetricRegistry registry;
  support::SamplingTracer tracer(kSampleEvery, /*capacity=*/4096);
  Harness harness(registry, traced ? &tracer : nullptr);

  const std::size_t n = smoke ? 2000 : 20000;
  const auto loop_start = bench::Clock::now();
  for (std::size_t t = 0; t < n; ++t) harness.locate_once();
  const double elapsed = bench::seconds_since(loop_start);
  *calls_out = n;
  return elapsed > 0.0 ? static_cast<double>(n) / elapsed : 0.0;
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
    Harness harness(registry, &tracer);
    for (std::size_t t = 0; t < (smoke ? 500 : 5000); ++t) {
      harness.locate_once();
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
  // hammers locate() into the registry while we time GET /metrics
  // round-trips AND batched POST /locate round-trips (arrays of 1/8/64
  // calls through cellular/locate_api + locate_many — the HTTP face of
  // the batch API). Both share the same p99 <= 250 ms gate.
  double p50_ms = 0.0, p99_ms = 0.0;
  constexpr std::size_t kBatchSizes[] = {1, 8, 64};
  bool batch_ok = true;
  double batch_p99_ms[3] = {0.0, 0.0, 0.0};
  {
    support::MetricRegistry registry;
    support::SamplingTracer tracer(kSampleEvery, 4096);
    Harness harness(registry, &tracer);
    // The service and its rng are shared between the writer thread and
    // the POST handler — same serialization as the serving daemon.
    std::mutex sim_mutex;
    support::HttpServer server;
    support::install_observability_routes(server, &registry, &tracer);
    server.handle("POST", "/locate", [&](const support::HttpRequest&
                                             request) {
      support::HttpResponse response;
      response.content_type = "application/json";
      cellular::LocateApiRequest api;
      try {
        api = cellular::parse_locate_body(request.body,
                                          harness.cells.size());
      } catch (const std::exception& error) {
        response.status = 400;
        response.body = "{\"error\": \"" +
                        support::json_escape(error.what()) + "\"}\n";
        return response;
      }
      std::lock_guard<std::mutex> lock(sim_mutex);
      std::vector<std::vector<cellular::CellId>> truths(api.calls.size());
      std::vector<cellular::LocationService::LocateRequest> requests;
      requests.reserve(api.calls.size());
      for (std::size_t i = 0; i < api.calls.size(); ++i) {
        const std::vector<cellular::UserId>& users = api.calls[i].users;
        truths[i].reserve(users.size());
        for (const cellular::UserId user : users) {
          truths[i].push_back(harness.cells[user]);
        }
        requests.push_back({users, truths[i], {}});
      }
      const std::vector<cellular::LocationService::LocateOutcome> outcomes =
          harness.service.locate_many(requests, harness.rng);
      std::string body = "[";
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (i > 0) body += ", ";
        cellular::append_outcome_json(body, true, requests[i].users.size(),
                                      &outcomes[i]);
      }
      body += "]\n";
      response.body = std::move(body);
      return response;
    });
    server.start();
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(sim_mutex);
        harness.locate_once();
      }
    });
    const std::size_t scrapes = smoke ? 50 : 200;
    std::vector<double> latencies_ms;
    latencies_ms.reserve(scrapes);
    for (std::size_t i = 0; i < scrapes; ++i) {
      const auto start = bench::Clock::now();
      const support::HttpClientResponse response =
          support::http_get("127.0.0.1", server.port(), "/metrics");
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
            "127.0.0.1", server.port(), "POST", "/locate", body);
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
    server.stop();
    std::sort(latencies_ms.begin(), latencies_ms.end());
    if (!latencies_ms.empty()) {
      p50_ms = latencies_ms[latencies_ms.size() / 2];
      p99_ms = latencies_ms[(latencies_ms.size() * 99) / 100];
    }
  }

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
  std::cout << "\n" << table;

  bench.gate("sampling_overhead_at_most_100ns",
             sampling_overhead_us_per_call <= 0.10, bench::Gate::kQuietHost);
  bench.gate("scrape_byte_identical", scrape_identical);
  bench.gate("p99_at_most_250ms_under_load", p99_ms > 0.0 && p99_ms <= 250.0);
  bench.gate("batch_post_round_trips", batch_ok);

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
  return bench.finish();
}
