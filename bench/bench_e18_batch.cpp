// Experiment E18 — the batched, vectorized locate hot path.
//
// PR7 restructured the evaluator and Fig.-1 DP inner loops onto the
// instance's column-major probability mirror (structure-of-arrays Kahan
// lanes that auto-vectorize without reassociating any device's
// compensated sum), moved per-call scratch onto a thread-local arena,
// and exposed batching end to end through
// LocationService::locate_many. This harness gates the three claims
// that make those changes safe to keep, and emits BENCH_E18.json:
//
//   * Bit-identity of the SoA evaluator: expected_paging /
//     stop_by_round against their *_scalar reference twins
//     (vector<prob::KahanSum>) across a family of instances
//     (uniform / Zipf / peaked / clustered rows; m up to 12, c up to
//     144), greedy strategies and all three objectives. Equality is
//     bitwise (std::bit_cast), not epsilon.
//   * Batch transparency: locate_many over a pre-generated request
//     stream must produce LocateOutcomes field-identical to N single
//     locate() calls on an identically seeded twin service — plan
//     cache on AND off.
//   * Batch throughput: locates/sec through locate_many at batch size
//     8 must clear 2x the E13 single-core baseline of 484k locates/sec
//     (the figure recorded when the scalar path shipped). The ratio
//     batch_locates_per_sec_ratio = batch8 / 484000 is the metric CI
//     gates strictly run-over-run.
//   * Thread invariance of the batched path: run_simulation_batch
//     (whose per-call site now routes through locate_many) must
//     produce bit-identical aggregate SimReports at pool sizes 1/2/8.
//
// Flags (shared bench set, bench/harness.h): --smoke, --threads N
// (unused, accepted for uniformity), --out FILE (default BENCH_E18.json).
#include <array>
#include <bit>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "cellular/service.h"
#include "cellular/simulator.h"
#include "cellular/topology.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "prob/distribution.h"
#include "prob/rng.h"
#include "support/metrics.h"
#include "support/table.h"

#include "harness.h"

namespace {

using namespace confcall;

/// The baseline the ratio gate divides by: single-core locates/sec
/// measured by E13 when the scalar evaluator path shipped.
constexpr double kBaselineLocatesPerSec = 484000.0;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---- 1. SoA vs scalar evaluator bit-identity. -------------------------

/// One instance family entry: m devices, c cells, and a row generator.
std::vector<core::Instance> equivalence_instances(prob::Rng& rng) {
  std::vector<core::Instance> instances;
  const std::array<std::pair<std::size_t, std::size_t>, 4> shapes{{
      {2, 9}, {3, 16}, {6, 36}, {12, 144}}};
  for (const auto& [m, c] : shapes) {
    instances.push_back(core::Instance::uniform(m, c));
    std::vector<prob::ProbabilityVector> zipf, mixed;
    for (std::size_t i = 0; i < m; ++i) {
      zipf.push_back(prob::zipf_vector(c, 0.8, rng));
      switch (i % 3) {
        case 0: mixed.push_back(prob::peaked_vector(c, 0.6, rng)); break;
        case 1:
          mixed.push_back(prob::clustered_vector(c, (c + 3) / 4, rng));
          break;
        default: mixed.push_back(prob::geometric_vector(c, 0.5, rng));
      }
    }
    instances.push_back(core::Instance::from_rows(zipf));
    instances.push_back(core::Instance::from_rows(mixed));
  }
  return instances;
}

bool check_evaluator_bit_identity(std::size_t* cases_out) {
  prob::Rng rng(1807);
  bool identical = true;
  std::size_t cases = 0;
  for (const core::Instance& instance : equivalence_instances(rng)) {
    const std::size_t m = instance.num_devices();
    std::vector<core::Objective> objectives{core::Objective::all_of(),
                                            core::Objective::any_of()};
    if (m >= 2) objectives.push_back(core::Objective::k_of_m((m + 1) / 2));
    for (const std::size_t d : {std::size_t{2}, std::size_t{3}}) {
      for (const core::Objective& objective : objectives) {
        const core::PlanResult plan =
            core::plan_greedy(instance, d, objective);
        const double soa =
            core::expected_paging(instance, plan.strategy, objective);
        const double scalar = core::expected_paging_scalar(
            instance, plan.strategy, objective);
        identical = identical && bits_equal(soa, scalar);
        const std::vector<double> by_round_soa =
            core::stop_by_round(instance, plan.strategy, objective);
        const std::vector<double> by_round_scalar =
            core::stop_by_round_scalar(instance, plan.strategy, objective);
        identical =
            identical && by_round_soa.size() == by_round_scalar.size();
        for (std::size_t r = 0;
             identical && r < by_round_soa.size(); ++r) {
          identical = bits_equal(by_round_soa[r], by_round_scalar[r]);
        }
        ++cases;
      }
    }
  }
  *cases_out = cases;
  return identical;
}

// ---- 2/3. Locate harness on the E13 workload shape. -------------------

struct Harness {
  cellular::GridTopology grid{12, 12, true,
                              cellular::Neighborhood::kVonNeumann};
  cellular::LocationAreas areas = cellular::LocationAreas::tiles(grid, 3, 3);
  cellular::MarkovMobility mobility{grid, 0.9};
  prob::Rng rng{1313};
  std::vector<cellular::CellId> cells;
  cellular::LocationService service;

  Harness(support::MetricRegistry& registry, bool plan_cache)
      : cells(make_cells(rng, grid)),
        service(grid, areas, mobility, make_config(registry, plan_cache),
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
      support::MetricRegistry& registry, bool plan_cache) {
    cellular::LocationService::Config config;
    config.profile_kind = cellular::ProfileKind::kStationary;
    config.max_paging_rounds = 3;
    config.enable_plan_cache = plan_cache;
    config.metrics = cellular::ServiceMetrics::create(registry);
    return config;
  }
};

/// A pre-generated 3-user call (stable storage for LocateRequest spans).
struct CallFixture {
  std::array<cellular::UserId, 3> users;
  std::array<cellular::CellId, 3> truth;
};

std::vector<CallFixture> make_calls(const Harness& harness, std::size_t n,
                                    std::uint64_t seed) {
  prob::Rng rng(seed);
  std::vector<CallFixture> calls(n);
  for (CallFixture& call : calls) {
    for (std::size_t i = 0; i < 3; ++i) {
      call.users[i] =
          static_cast<cellular::UserId>(i * 32 + rng.next_below(32));
      call.truth[i] = harness.cells[call.users[i]];
    }
  }
  return calls;
}

bool outcomes_identical(const cellular::LocationService::LocateOutcome& a,
                        const cellular::LocationService::LocateOutcome& b) {
  return a.cells_paged == b.cells_paged && a.rounds_used == b.rounds_used &&
         a.fallback_pages == b.fallback_pages &&
         a.missed_detections == b.missed_detections &&
         a.outage_pages == b.outage_pages &&
         a.dropped_rounds == b.dropped_rounds && a.retries == b.retries &&
         a.backoff_rounds == b.backoff_rounds &&
         a.forced_registrations == b.forced_registrations &&
         a.budget_exhausted == b.budget_exhausted &&
         a.degraded == b.degraded && a.abandoned == b.abandoned &&
         a.deadline_limited == b.deadline_limited;
}

/// Same request stream through N single locate() calls on one service
/// and through locate_many (batches of `batch`) on an identically
/// seeded twin: every outcome must match field for field.
bool check_batch_transparency(bool plan_cache, std::size_t n_calls,
                              std::size_t batch) {
  support::MetricRegistry registry_single, registry_batched;
  Harness single(registry_single, plan_cache);
  Harness batched(registry_batched, plan_cache);
  const std::vector<CallFixture> calls = make_calls(single, n_calls, 77);

  std::vector<cellular::LocationService::LocateOutcome> single_outcomes;
  single_outcomes.reserve(n_calls);
  for (const CallFixture& call : calls) {
    single_outcomes.push_back(
        single.service.locate(call.users, call.truth, single.rng));
  }

  std::vector<cellular::LocationService::LocateOutcome> batched_outcomes;
  batched_outcomes.reserve(n_calls);
  std::vector<cellular::LocationService::LocateRequest> requests;
  for (std::size_t begin = 0; begin < n_calls; begin += batch) {
    const std::size_t end = std::min(begin + batch, n_calls);
    requests.clear();
    for (std::size_t i = begin; i < end; ++i) {
      requests.push_back({calls[i].users, calls[i].truth, {}});
    }
    const std::vector<cellular::LocationService::LocateOutcome> chunk =
        batched.service.locate_many(requests, batched.rng);
    batched_outcomes.insert(batched_outcomes.end(), chunk.begin(),
                            chunk.end());
  }

  if (single_outcomes.size() != batched_outcomes.size()) return false;
  for (std::size_t i = 0; i < single_outcomes.size(); ++i) {
    if (!outcomes_identical(single_outcomes[i], batched_outcomes[i])) {
      return false;
    }
  }
  return true;
}

/// Locates/sec through locate_many at a fixed batch size. The request
/// stream is regenerated per batch from the harness rng (same per-call
/// work as E13's single-call loop: two rng draws + fixture writes).
double run_batched(std::size_t n_calls, std::size_t batch) {
  support::MetricRegistry registry;
  Harness harness(registry, /*plan_cache=*/true);
  std::vector<CallFixture> fixtures(batch);
  std::vector<cellular::LocationService::LocateRequest> requests(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    requests[b] = {fixtures[b].users, fixtures[b].truth, {}};
  }
  std::size_t done = 0;
  const auto start = bench::Clock::now();
  while (done < n_calls) {
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t i = 0; i < 3; ++i) {
        fixtures[b].users[i] = static_cast<cellular::UserId>(
            i * 32 + harness.rng.next_below(32));
        fixtures[b].truth[i] = harness.cells[fixtures[b].users[i]];
      }
    }
    (void)harness.service.locate_many(requests, harness.rng);
    done += batch;
  }
  const double elapsed = bench::seconds_since(start);
  return elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
}

/// Single-call reference loop (the E13 shape).
double run_single(std::size_t n_calls) {
  support::MetricRegistry registry;
  Harness harness(registry, /*plan_cache=*/true);
  CallFixture fixture;
  const auto start = bench::Clock::now();
  for (std::size_t t = 0; t < n_calls; ++t) {
    for (std::size_t i = 0; i < 3; ++i) {
      fixture.users[i] = static_cast<cellular::UserId>(
          i * 32 + harness.rng.next_below(32));
      fixture.truth[i] = harness.cells[fixture.users[i]];
    }
    (void)harness.service.locate(fixture.users, fixture.truth, harness.rng);
  }
  const double elapsed = bench::seconds_since(start);
  return elapsed > 0.0 ? static_cast<double>(n_calls) / elapsed : 0.0;
}

// ---- 4. Thread invariance of the batched simulation path. -------------

bool sim_reports_identical(const cellular::SimReport& a,
                           const cellular::SimReport& b) {
  return a.steps == b.steps && a.calls_arrived == b.calls_arrived &&
         a.calls_served == b.calls_served &&
         a.calls_completed == b.calls_completed &&
         a.calls_shed == b.calls_shed &&
         a.reports_sent == b.reports_sent &&
         a.cells_paged_total == b.cells_paged_total &&
         a.fallback_pages == b.fallback_pages &&
         a.retries_total == b.retries_total &&
         a.calls_degraded == b.calls_degraded &&
         a.calls_abandoned == b.calls_abandoned &&
         a.forced_registrations == b.forced_registrations &&
         bits_equal(a.pages_per_call.mean(), b.pages_per_call.mean()) &&
         bits_equal(a.rounds_per_call.mean(), b.rounds_per_call.mean());
}

bool check_thread_invariance(bool smoke) {
  cellular::SimConfig config;
  config.grid_rows = 12;
  config.grid_cols = 12;
  config.la_tile_rows = 3;
  config.la_tile_cols = 3;
  config.num_users = 96;
  config.stay_probability = 0.9;
  config.call_rate = 0.9;
  config.group_min = 2;
  config.group_max = 4;
  config.max_paging_rounds = 3;
  config.profile_kind = cellular::ProfileKind::kStationary;
  config.steps = smoke ? 300 : 1200;
  config.warmup_steps = 50;
  config.seed = 13;
  const std::size_t replications = smoke ? 3 : 6;
  const cellular::SimBatchReport at1 =
      cellular::run_simulation_batch(config, replications, 1);
  const cellular::SimBatchReport at2 =
      cellular::run_simulation_batch(config, replications, 2);
  const cellular::SimBatchReport at8 =
      cellular::run_simulation_batch(config, replications, 8);
  return sim_reports_identical(at1.aggregate, at2.aggregate) &&
         sim_reports_identical(at1.aggregate, at8.aggregate);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness bench("E18", "batched locate hot path", argc, argv);
  const bool smoke = bench.smoke();
  std::cout << "hardware threads: " << bench.hardware_concurrency() << "\n";

  // ---- 1. Evaluator bit-identity (always gated).
  std::size_t evaluator_cases = 0;
  const bool evaluator_identical =
      check_evaluator_bit_identity(&evaluator_cases);

  // ---- 2. Batch transparency, cache on and off (always gated).
  const std::size_t transparency_calls = smoke ? 1000 : 5000;
  const bool transparent_cached =
      check_batch_transparency(true, transparency_calls, 8);
  const bool transparent_uncached =
      check_batch_transparency(false, transparency_calls, 8);

  // ---- 3. Throughput: single-call loop vs batched loops, best-of-3
  // interleaved passes per shape.
  const std::size_t n = smoke ? 20000 : 200000;
  constexpr std::size_t kBatchSizes[3] = {1, 8, 64};
  const std::vector<double> best = bench::best_of_interleaved(
      3, {[&] { return run_single(n); },
          [&] { return run_batched(n, kBatchSizes[0]); },
          [&] { return run_batched(n, kBatchSizes[1]); },
          [&] { return run_batched(n, kBatchSizes[2]); }});
  const double best_single = best[0];
  const double* best_batch = best.data() + 1;  // batch 1 / 8 / 64
  const double ratio = best_batch[1] / kBaselineLocatesPerSec;

  // ---- 4. Thread invariance of the batched simulation path.
  const bool threads_invariant = check_thread_invariance(smoke);

  // ---- Report.
  support::TextTable table({"metric", "value"});
  table.add_row({"evaluator bit-identity (" +
                     support::TextTable::fmt(evaluator_cases) + " cases)",
                 evaluator_identical ? "yes" : "NO"});
  table.add_row({"locate_many == N x locate (cache on)",
                 transparent_cached ? "yes" : "NO"});
  table.add_row({"locate_many == N x locate (cache off)",
                 transparent_uncached ? "yes" : "NO"});
  table.add_row(
      {"locates/sec (single)", support::TextTable::fmt(best_single, 0)});
  for (std::size_t s = 0; s < 3; ++s) {
    table.add_row({"locates/sec (batch " +
                       support::TextTable::fmt(kBatchSizes[s]) + ")",
                   support::TextTable::fmt(best_batch[s], 0)});
  }
  table.add_row({"batch8 / 484k baseline",
                 support::TextTable::fmt(ratio, 2) + "x (need >= 2.0x)"});
  table.add_row({"SimReport invariant @1/2/8 threads",
                 threads_invariant ? "yes" : "NO"});
  std::cout << "\n" << table;

  bench.gate("evaluator_bit_identical", evaluator_identical);
  bench.gate("batch_transparent_cached", transparent_cached);
  bench.gate("batch_transparent_uncached", transparent_uncached);
  bench.gate("batch8_at_least_2x_baseline", ratio >= 2.0);
  bench.gate("sim_thread_invariant", threads_invariant);

  // ---- Machine-readable trajectory record.
  bench::Json& record = bench.record;
  record["baseline_locates_per_sec"] = kBaselineLocatesPerSec;
  bench::Json& equivalence = record["equivalence"];
  equivalence["evaluator_cases"] = evaluator_cases;
  equivalence["evaluator_bit_identical"] = evaluator_identical;
  equivalence["batch_transparent_cached"] = transparent_cached;
  equivalence["batch_transparent_uncached"] = transparent_uncached;
  equivalence["sim_thread_invariant_1_2_8"] = threads_invariant;
  bench::Json& throughput = record["throughput"];
  throughput["locates_per_sec_single"] = best_single;
  for (std::size_t s = 0; s < 3; ++s) {
    throughput["locates_per_sec_batch" + std::to_string(kBatchSizes[s])] =
        best_batch[s];
  }
  record["batch_locates_per_sec_ratio"] = ratio;
  return bench.finish();
}
