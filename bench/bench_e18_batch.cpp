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

#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "prob/distribution.h"
#include "prob/rng.h"
#include "support/metrics.h"
#include "support/table.h"

#include "fixture.h"
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

// ---- 2/3. Locates on the bench/fixture.h world. ----------------------

cellular::LocationService make_service(const bench::World& world,
                                       support::MetricRegistry& registry,
                                       bool plan_cache) {
  cellular::LocationService::Config config = bench::World::service_config();
  config.enable_plan_cache = plan_cache;
  config.metrics = cellular::ServiceMetrics::create(registry);
  return world.make_service(config);
}

/// Same request stream through N single locate() calls on one service
/// and through locate_many (batches of `batch`) on an identically
/// seeded twin: every outcome must match field for field.
bool check_batch_transparency(bool plan_cache, std::size_t n_calls,
                              std::size_t batch) {
  support::MetricRegistry registry_single, registry_batched;
  bench::World single_world, batched_world;
  cellular::LocationService single =
      make_service(single_world, registry_single, plan_cache);
  cellular::LocationService batched =
      make_service(batched_world, registry_batched, plan_cache);
  bench::CallBatch calls(n_calls);
  prob::Rng call_rng(77);
  calls.draw(single_world, call_rng);

  std::vector<cellular::LocationService::LocateOutcome> single_outcomes;
  single_outcomes.reserve(n_calls);
  for (std::size_t i = 0; i < n_calls; ++i) {
    single_outcomes.push_back(
        single.locate(calls.users[i], calls.truth[i], single_world.rng));
  }

  std::vector<cellular::LocationService::LocateOutcome> batched_outcomes;
  batched_outcomes.reserve(n_calls);
  const std::span<const cellular::LocationService::LocateRequest> requests =
      calls.requests;
  for (std::size_t begin = 0; begin < n_calls; begin += batch) {
    const std::vector<cellular::LocationService::LocateOutcome> chunk =
        batched.locate_many(
            requests.subspan(begin, std::min(batch, n_calls - begin)),
            batched_world.rng);
    batched_outcomes.insert(batched_outcomes.end(), chunk.begin(),
                            chunk.end());
  }
  return single_outcomes == batched_outcomes;
}

/// Locates/sec through locate_many at a fixed batch size. The request
/// stream is redrawn per batch from the world rng (same per-call work
/// as E13's single-call loop: three rng draws + call writes).
double run_batched(std::size_t n_calls, std::size_t batch) {
  support::MetricRegistry registry;
  bench::World world;
  cellular::LocationService service =
      make_service(world, registry, /*plan_cache=*/true);
  bench::CallBatch calls(batch);
  std::size_t done = 0;
  const auto start = bench::Clock::now();
  while (done < n_calls) {
    calls.draw(world, world.rng);
    (void)service.locate_many(calls.requests, world.rng);
    done += batch;
  }
  const double elapsed = bench::seconds_since(start);
  return elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
}

/// Single-call reference loop (the E13 shape).
double run_single(std::size_t n_calls) {
  support::MetricRegistry registry;
  bench::World world;
  cellular::LocationService service =
      make_service(world, registry, /*plan_cache=*/true);
  cellular::UserId users[3];
  cellular::CellId truth[3];
  const auto start = bench::Clock::now();
  for (std::size_t t = 0; t < n_calls; ++t) {
    world.draw_call(world.rng, users, truth);
    (void)service.locate(users, truth, world.rng);
  }
  const double elapsed = bench::seconds_since(start);
  return elapsed > 0.0 ? static_cast<double>(n_calls) / elapsed : 0.0;
}

// ---- 4. Thread invariance of the batched simulation path. -------------

bool check_thread_invariance(bool smoke) {
  cellular::SimConfig config = bench::steady_sim_config();
  config.steps = smoke ? 300 : 1200;
  config.warmup_steps = 50;
  const std::size_t replications = smoke ? 3 : 6;
  const cellular::SimBatchReport at1 =
      cellular::run_simulation_batch(config, replications, 1);
  const cellular::SimBatchReport at2 =
      cellular::run_simulation_batch(config, replications, 2);
  const cellular::SimBatchReport at8 =
      cellular::run_simulation_batch(config, replications, 8);
  return bench::same_report(at1.aggregate, at2.aggregate) &&
         bench::same_report(at1.aggregate, at8.aggregate);
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
