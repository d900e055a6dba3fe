// Experiment E14 — overload protection under burst x outage chaos.
//
// The paper prices call setup under a delay constraint d; a deployed
// service must also survive the days when demand transiently exceeds
// capacity. This harness drives the full overload stack — Markov-
// modulated call bursts, token-bucket admission with the three-state
// health machine, per-call deadlines propagated into locate(), and the
// breaker-guarded resilient planner chain — across a burst-multiplier x
// outage-rate grid, and emits a machine-readable BENCH_E14.json with the
// admitted-call latency percentiles (p50/p99 setup rounds priced in ms),
// shed rate, degraded-admit rate and breaker telemetry per cell.
//
// Three invariants gate the exit code on every grid cell:
//   * determinism — the pinned seed reproduces identical SimReports
//     across repeat runs AND across batch thread counts;
//   * conservation — every arrival is exactly one of completed /
//     abandoned / shed;
//   * deadline — no admitted call ever used more rounds than its
//     propagated deadline afforded.
//
// Flags (shared bench set, bench/harness.h): --smoke, --threads N
// (0 = hardware), --out FILE (default BENCH_E14.json).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "cellular/simulator.h"
#include "cellular/workload.h"
#include "support/table.h"

#include "fixture.h"
#include "harness.h"

namespace {

using namespace confcall;

struct CellResult {
  double burst_multiplier = 1.0;
  double outage_rate = 0.0;
  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded_admits = 0;
  std::uint64_t deadline_limited = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_skips = 0;
  std::uint64_t failovers = 0;
  std::uint64_t health_transitions = 0;
  std::uint64_t bursts = 0;
  double shed_rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool conservation_ok = false;
  bool deadline_ok = false;
  bool deterministic = false;
};

cellular::SimConfig grid_cell_config(bool smoke, double burst_multiplier,
                                     double outage_rate) {
  cellular::SimConfig config = cellular::overloaded_urban_scenario(14).config;
  config.steps = smoke ? 400 : 2000;
  config.warmup_steps = 50;
  config.burst.burst_rate =
      std::min(1.0, config.burst.base_rate * burst_multiplier);
  config.faults.cell_outage_rate = outage_rate;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness bench("E14", "overload protection under burst x outage chaos",
                       argc, argv);
  const bool smoke = bench.smoke();
  const std::size_t threads = bench.threads();
  const std::size_t replications = smoke ? 4 : 8;

  const std::vector<double> burst_multipliers = {1.0, 10.0};
  const std::vector<double> outage_rates = {0.0, 0.05};

  std::vector<CellResult> cells;
  for (const double burst : burst_multipliers) {
    for (const double outage : outage_rates) {
      const cellular::SimConfig config =
          grid_cell_config(smoke, burst, outage);
      const std::uint64_t round_cap =
          config.overload.call_deadline_ns / config.overload.round_duration_ns;

      const cellular::SimBatchReport batch =
          cellular::run_simulation_batch(config, replications, threads);
      // Determinism gate: identical counters on a repeat run and on a
      // different thread count (1 vs 2 exercises the scheduling seams).
      const cellular::SimBatchReport repeat =
          cellular::run_simulation_batch(config, replications, threads);
      const cellular::SimBatchReport narrow =
          cellular::run_simulation_batch(config, replications, 1);
      const cellular::SimBatchReport pair =
          cellular::run_simulation_batch(config, replications, 2);

      CellResult cell;
      cell.burst_multiplier = burst;
      cell.outage_rate = outage;
      const cellular::SimReport& agg = batch.aggregate;
      cell.arrived = agg.calls_arrived;
      cell.completed = agg.calls_completed;
      cell.abandoned = agg.calls_abandoned;
      cell.shed = agg.calls_shed;
      cell.degraded_admits = agg.calls_degraded_admit;
      cell.deadline_limited = agg.calls_deadline_limited;
      cell.breaker_trips = agg.breaker_trips;
      cell.breaker_skips = agg.breaker_skips;
      cell.failovers = agg.planner_failovers;
      cell.health_transitions = agg.health_transitions;
      cell.bursts = agg.bursts_entered;
      cell.shed_rate = cell.arrived == 0
                           ? 0.0
                           : static_cast<double>(cell.shed) /
                                 static_cast<double>(cell.arrived);
      const double round_ms =
          static_cast<double>(config.overload.round_duration_ns) * 1e-6;
      cell.p50_ms =
          static_cast<double>(agg.rounds_percentile(0.50)) * round_ms;
      cell.p99_ms =
          static_cast<double>(agg.rounds_percentile(0.99)) * round_ms;

      cell.conservation_ok =
          agg.calls_arrived ==
              agg.calls_completed + agg.calls_abandoned + agg.calls_shed &&
          agg.calls_served == agg.calls_completed + agg.calls_abandoned;
      // No admitted call may appear in a histogram bucket past the
      // deadline's round budget — in any individual replication.
      cell.deadline_ok = true;
      for (const cellular::SimReport& run : batch.runs) {
        for (std::size_t r = round_cap + 1; r < run.rounds_histogram.size();
             ++r) {
          cell.deadline_ok &= run.rounds_histogram[r] == 0;
        }
      }
      cell.deterministic = bench::same_report(agg, repeat.aggregate) &&
                           bench::same_report(agg, narrow.aggregate) &&
                           bench::same_report(agg, pair.aggregate);
      cells.push_back(cell);
    }
  }

  support::TextTable table({"burst", "outage", "arrived", "shed%", "degr%",
                            "p50 ms", "p99 ms", "trips", "skips", "ok"});
  for (const CellResult& cell : cells) {
    const double degraded_rate =
        cell.arrived == 0 ? 0.0
                          : 100.0 * static_cast<double>(cell.degraded_admits) /
                                static_cast<double>(cell.arrived);
    table.add_row(
        {support::TextTable::fmt(cell.burst_multiplier, 0) + "x",
         support::TextTable::fmt(100.0 * cell.outage_rate, 0) + "%",
         std::to_string(cell.arrived),
         support::TextTable::fmt(100.0 * cell.shed_rate, 1),
         support::TextTable::fmt(degraded_rate, 1),
         support::TextTable::fmt(cell.p50_ms, 1),
         support::TextTable::fmt(cell.p99_ms, 1),
         std::to_string(cell.breaker_trips),
         std::to_string(cell.breaker_skips),
         cell.conservation_ok && cell.deadline_ok && cell.deterministic
             ? "yes"
             : "NO"});
  }
  std::cout << "\n" << table;

  bench::Json& record = bench.record;
  record["replications"] = replications;
  bool conservation_ok = true, deadline_ok = true, deterministic = true;
  for (const CellResult& cell : cells) {
    conservation_ok = conservation_ok && cell.conservation_ok;
    deadline_ok = deadline_ok && cell.deadline_ok;
    deterministic = deterministic && cell.deterministic;
    bench::Json& json = record["cells"].append();
    json["burst_multiplier"] = cell.burst_multiplier;
    json["outage_rate"] = cell.outage_rate;
    json["calls_arrived"] = cell.arrived;
    json["calls_completed"] = cell.completed;
    json["calls_abandoned"] = cell.abandoned;
    json["calls_shed"] = cell.shed;
    json["shed_rate"] = cell.shed_rate;
    json["degraded_admits"] = cell.degraded_admits;
    json["deadline_limited"] = cell.deadline_limited;
    json["latency_p50_ms"] = cell.p50_ms;
    json["latency_p99_ms"] = cell.p99_ms;
    json["breaker_trips"] = cell.breaker_trips;
    json["breaker_skips"] = cell.breaker_skips;
    json["planner_failovers"] = cell.failovers;
    json["health_transitions"] = cell.health_transitions;
    json["bursts_entered"] = cell.bursts;
    json["conservation_ok"] = cell.conservation_ok;
    json["deadline_ok"] = cell.deadline_ok;
    json["deterministic"] = cell.deterministic;
  }
  bench.gate("conservation_exact", conservation_ok);
  bench.gate("no_deadline_overrun", deadline_ok);
  bench.gate("seed_and_thread_determinism", deterministic);
  return bench.finish();
}
