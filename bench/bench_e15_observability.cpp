// Experiment E15 — cost and determinism of the observability layer.
//
// The metrics registry (support/metrics.h) and span tracer
// (support/trace.h) are only acceptable if they are effectively free on
// the hot path and change nothing about simulation results. This harness
// measures and gates both claims, and emits BENCH_E15.json so the
// overhead trajectory is recorded run over run:
//
//   * locate() throughput on the E13 steady-profile workload, three
//     ways: uninstrumented, with every ServiceMetrics handle bound to a
//     live registry, and with metrics + a span Tracer attached. The
//     sides are interleaved (round-robin, best-of-N per side) so a
//     background hiccup on a small container cannot masquerade as
//     instrument overhead. Gate: metric updates cost <= 250 ns/call
//     (absolute, derived from the off/on throughput difference — a
//     RATIO gate would punish every speedup of the locate path itself,
//     as E18's batching did by 4x; the ratio is still recorded). The
//     tracing side is reported, not gated — spans pay two clock reads
//     each and are opt-in per deployment.
//   * snapshot-merge determinism: run_simulation_batch with
//     collect_metrics on, at 1, 2 and N threads; the merged aggregate
//     registry must serialize to BIT-IDENTICAL JSON for every thread
//     count (the simulator drives all metrics off the virtual clock and
//     merges in replication order, so this is exact, not approximate).
//     This gate is unconditional, like E13/E14's determinism gates.
//
// Flags (shared bench set, bench/harness.h): --smoke, --threads N
// (0 = hardware), --out FILE (default BENCH_E15.json).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "cellular/simulator.h"
#include "cellular/workload.h"
#include "prob/rng.h"
#include "support/metrics.h"
#include "support/table.h"
#include "support/trace.h"

#include "harness.h"

namespace {

using namespace confcall;

/// Which observability hooks a timing side binds.
enum class Side { kOff, kMetrics, kMetricsAndTrace };

/// One timed pass of the E13 steady-profile locate workload with the
/// given instrumentation bound. Returns locates per second. Every side
/// runs the identical call sequence (same seed, same users), so the only
/// difference is the instrumentation itself.
double run_side(Side side, bool smoke, std::size_t* calls_out) {
  const cellular::GridTopology grid(12, 12, true,
                                    cellular::Neighborhood::kVonNeumann);
  const cellular::LocationAreas areas =
      cellular::LocationAreas::tiles(grid, 3, 3);
  const cellular::MarkovMobility mobility(grid, 0.9);

  support::MetricRegistry registry;
  support::Tracer tracer(/*capacity=*/4096);

  cellular::LocationService::Config config;
  config.profile_kind = cellular::ProfileKind::kStationary;
  config.max_paging_rounds = 3;
  config.enable_plan_cache = true;
  if (side != Side::kOff) {
    config.metrics = cellular::ServiceMetrics::create(registry);
  }
  if (side == Side::kMetricsAndTrace) {
    config.tracer = &tracer;
  }

  prob::Rng rng(1313);
  std::vector<cellular::CellId> cells(96);
  for (auto& cell : cells) {
    cell = static_cast<cellular::CellId>(rng.next_below(grid.num_cells()));
  }
  cellular::LocationService service(grid, areas, mobility, config, cells);

  const std::size_t n = smoke ? 2000 : 20000;
  const auto loop_start = bench::Clock::now();
  for (std::size_t t = 0; t < n; ++t) {
    cellular::UserId users[3];
    cellular::CellId truth[3];
    for (std::size_t i = 0; i < 3; ++i) {
      users[i] =
          static_cast<cellular::UserId>(i * 32 + rng.next_below(32));
      truth[i] = cells[users[i]];
    }
    (void)service.locate(users, truth, rng);
  }
  const double elapsed = bench::seconds_since(loop_start);
  *calls_out = n;
  return elapsed > 0.0 ? static_cast<double>(n) / elapsed : 0.0;
}

/// Scenario for the snapshot-determinism sweep: the E14 overloaded
/// deployment (admission + deadlines + resilient planner chain) so every
/// metric family — locate, planner, admission — is exercised, with
/// collect_metrics on.
cellular::SimConfig metrics_batch_config(bool smoke) {
  cellular::SimConfig config =
      cellular::overloaded_urban_scenario(15).config;
  config.steps = smoke ? 300 : 1200;
  config.warmup_steps = 50;
  config.collect_metrics = true;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness bench("E15", "observability layer overhead and determinism",
                       argc, argv);
  const bool smoke = bench.smoke();
  const std::size_t hw = bench.hardware_concurrency();
  const std::size_t wide = bench.threads() != 0 ? bench.threads() : 8;
  std::cout << "hardware threads: " << hw << "\n";

  // ---- 1. Overhead: interleaved best-of-3 per side.
  std::size_t calls = 0;
  const std::vector<double> best = bench::best_of_interleaved(
      3, {[&] { return run_side(Side::kOff, smoke, &calls); },
          [&] { return run_side(Side::kMetrics, smoke, &calls); },
          [&] { return run_side(Side::kMetricsAndTrace, smoke, &calls); }});
  const double best_off = best[0], best_metrics = best[1];
  const double best_traced = best[2];
  const double metrics_ratio =
      best_off > 0.0 ? best_metrics / best_off : 0.0;
  const double traced_ratio =
      best_off > 0.0 ? best_traced / best_off : 0.0;
  // The gate is the instrumentation's ABSOLUTE cost per call, not the
  // throughput ratio: a ratio gate punishes every speedup of the
  // protected path (E18's batched/SoA locate cut the call from ~2 us
  // to ~0.5 us, which quadruples the same ~0.1 us of metric work as a
  // fraction). The ratio stays recorded for the trajectory.
  const double metrics_overhead_us_per_call =
      best_off > 0.0 && best_metrics > 0.0
          ? 1e6 * (1.0 / best_metrics - 1.0 / best_off)
          : 1e9;

  // ---- 2. Snapshot-merge determinism across thread counts.
  const cellular::SimConfig base = metrics_batch_config(smoke);
  const std::size_t reps = 8;
  bool snapshots_identical = true;
  std::string reference_json;
  double t1_sec = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, wide}) {
    const auto batch_start = bench::Clock::now();
    const cellular::SimBatchReport batch =
        cellular::run_simulation_batch(base, reps, threads);
    if (threads == 1) t1_sec = bench::seconds_since(batch_start);
    const std::string json = support::to_json(batch.aggregate.metrics);
    if (reference_json.empty()) {
      reference_json = json;
      if (batch.aggregate.metrics.empty()) snapshots_identical = false;
    } else {
      snapshots_identical &= json == reference_json;
    }
  }

  // ---- Report.
  support::TextTable table({"metric", "value"});
  table.add_row({"locates/sec (off)",
                 support::TextTable::fmt(best_off, 0)});
  table.add_row({"locates/sec (metrics)",
                 support::TextTable::fmt(best_metrics, 0)});
  table.add_row({"locates/sec (metrics+trace)",
                 support::TextTable::fmt(best_traced, 0)});
  table.add_row({"metrics throughput ratio",
                 support::TextTable::fmt(100.0 * metrics_ratio, 2) + "%"});
  table.add_row({"metrics+trace ratio",
                 support::TextTable::fmt(100.0 * traced_ratio, 2) + "%"});
  table.add_row(
      {"metrics overhead/call",
       support::TextTable::fmt(1000.0 * metrics_overhead_us_per_call, 0) +
           " ns (gate <= 250)"});
  table.add_row({"snapshot thread-invariant",
                 snapshots_identical ? "yes" : "NO"});
  std::cout << "\n" << table;

  bench.gate("metrics_overhead_at_most_250ns",
             metrics_overhead_us_per_call <= 0.25, bench::Gate::kQuietHost);
  bench.gate("snapshots_bit_identical", snapshots_identical);

  // ---- Machine-readable trajectory record.
  bench::Json& record = bench.record;
  record["hardware_threads"] = hw;
  record["locate_calls_per_side"] = calls;
  bench::Json& overhead = record["overhead"];
  overhead["locates_per_sec_off"] = best_off;
  overhead["locates_per_sec_metrics"] = best_metrics;
  overhead["locates_per_sec_traced"] = best_traced;
  overhead["metrics_throughput_ratio"] = metrics_ratio;
  overhead["traced_throughput_ratio"] = traced_ratio;
  overhead["metrics_overhead_us_per_call"] = metrics_overhead_us_per_call;
  bench::Json& determinism = record["determinism"];
  determinism["batch_t1_sec"] = t1_sec;
  determinism["snapshots_bit_identical"] = snapshots_identical;
  return bench.finish();
}
