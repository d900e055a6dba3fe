// Experiment E20 — fleet serving: multi-area sharding with core-aware
// placement and cross-shard plan sharing.
//
// PR9 added cellular::ServiceFleet (DESIGN.md §14): N serving areas run
// as one pool task per touched area on an M-thread pool (M shards, each
// a metrics label and a pinning core), and one bounded signature ->
// strategy table so identically-distributed areas plan once per fleet.
// This harness gates the claims that make sharding worth having, and
// emits BENCH_E20.json:
//
//   * Aggregate throughput scales with the shard count. The same fixed
//     request stream is served at shards 1/2/4/8 over a fixed 8-area
//     fleet; the JSON records locates/sec per shard count and the
//     max-over-1 scaling ratio. The >= 1M locates/sec aggregate gate
//     self-arms on hardware with >= 8 hardware threads (the harness's
//     hardware_concurrency, also recorded as hardware_cores) —
//     on smaller machines the numbers are recorded, not gated, because
//     lanes beyond the core count only add scheduling overhead.
//   * Per-shard latency is observable: the per-shard
//     confcall_fleet_task_ns{shard} histograms must all have mass after
//     the widest run, and their p99s are recorded per shard.
//   * Results are a pure function of the request stream. An identical
//     deterministic drive (steps interleaved with locate batches) at
//     shards 1/2/8 must produce bit-identical outcome streams AND
//     byte-identical fleet checkpoint files — shards are execution,
//     not state. Recorded as the numeric determinism_identical 1/0 so
//     bench_compare.py can strict-path it.
//   * Cross-shard plan sharing works: with every area identically
//     distributed (kStationary profiles over the same grid), the
//     fleet's one plan table must answer at least one area's
//     plan from another area's publish.
//
// Flags (shared bench set, bench/harness.h): --smoke, --threads N
// (unused, accepted for uniformity), --out FILE (default BENCH_E20.json).
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "support/metrics.h"
#include "support/state_io.h"
#include "support/table.h"

#include "fixture.h"
#include "harness.h"

namespace {

using namespace confcall;

/// The shared plan table after a run: its hits, summed over the areas
/// that made the lookups, and its footprint.
struct PlanTableRecord {
  std::uint64_t hits = 0;
  std::size_t capacity = 0;
  std::size_t bytes = 0;  ///< the row slab, capacity x row width
};

/// Locates/sec serving `stream` in dispatches of `batch` through a
/// fresh fleet at `num_shards`. `p99_out`, when given, receives each
/// shard's task-latency p99 (ns) from the per-shard histograms, and
/// `table_out` the shared table's hits and footprint.
double run_throughput(const bench::World& world, std::size_t num_shards,
                      std::span<const cellular::ServiceFleet::Request> stream,
                      std::vector<double>* p99_out,
                      PlanTableRecord* table_out) {
  constexpr std::size_t kBatch = 64;
  support::MetricRegistry registry;
  cellular::ServiceFleet fleet = world.make_fleet(num_shards, &registry);
  const auto start = bench::Clock::now();
  std::size_t done = 0;
  while (done < stream.size()) {
    const std::size_t take = std::min(kBatch, stream.size() - done);
    (void)fleet.locate_many(stream.subspan(done, take));
    done += take;
  }
  const double elapsed = bench::seconds_since(start);
  if (p99_out != nullptr) {
    p99_out->assign(num_shards, 0.0);
    for (const support::MetricSnapshot& metric :
         registry.snapshot().metrics) {
      if (metric.name != "confcall_fleet_task_ns") continue;
      for (const auto& [key, value] : metric.labels) {
        if (key != "shard") continue;
        const std::size_t shard = static_cast<std::size_t>(
            std::stoul(value));
        if (shard < p99_out->size() && metric.histogram.count > 0) {
          (*p99_out)[shard] = metric.histogram.quantile(0.99);
        }
      }
    }
  }
  if (table_out != nullptr) {
    const support::SignatureTable& plans = fleet.shared_table().plans;
    *table_out = {.capacity = plans.capacity(), .bytes = plans.slab_bytes()};
    for (std::size_t a = 0; a < fleet.num_areas(); ++a) {
      table_out->hits += fleet.service(a).plan_cache_stats().hits;
    }
  }
  return static_cast<double>(done) / elapsed;
}

/// Drives a fresh fleet through the identical mixed workload (steps
/// interleaved with locate batches) and returns the outcome digest plus
/// the checkpoint file bytes.
void deterministic_drive(const bench::World& world, std::size_t num_shards,
                         std::size_t n_batches, const std::string& path,
                         std::uint64_t* digest_out, std::string* bytes_out) {
  constexpr std::size_t kBatch = 32;
  cellular::ServiceFleet fleet = world.make_fleet(num_shards, nullptr);
  const std::vector<cellular::ServiceFleet::Request> stream =
      bench::fleet_stream(n_batches * kBatch);
  std::uint64_t digest = 0;
  for (std::size_t b = 0; b < n_batches; ++b) {
    fleet.step_all();
    const std::vector<cellular::LocationService::LocateOutcome> outcomes =
        fleet.locate_many(
            std::span<const cellular::ServiceFleet::Request>(stream).subspan(
                b * kBatch, kBatch));
    digest ^= bench::outcome_digest(outcomes) + b;  // order-sensitive fold
  }
  support::StateBundle bundle;
  fleet.add_state_sections(bundle);
  (void)support::save_state_file(path, bundle);
  std::ifstream in(path, std::ios::binary);
  *bytes_out = std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
  (void)std::remove(path.c_str());
  *digest_out = digest;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness bench(
      "E20", "fleet serving — sharded areas, core-aware placement", argc,
      argv);
  const bool smoke = bench.smoke();
  const std::string scratch =
      "bench_e20_scratch_" + std::to_string(::getpid()) + ".bin";

  const bench::World world;
  const std::size_t cores = bench.hardware_concurrency();

  // ---- 1/2. Throughput scaling + per-shard p99 (best-of-3 interleaved
  // passes; the widest side keeps the p99s and hits of its best pass).
  const std::size_t n_calls = smoke ? 20000 : 200000;
  const std::vector<cellular::ServiceFleet::Request> stream =
      bench::fleet_stream(n_calls);
  const std::vector<std::size_t> shard_counts{1, 2, 4, 8};
  std::vector<double> widest_p99;
  PlanTableRecord plan_table;
  double widest_best = 0.0;
  std::vector<std::function<double()>> sides;
  for (const std::size_t shards : shard_counts) {
    sides.push_back([&, shards] {
      const bool widest = shards == shard_counts.back();
      std::vector<double> p99;
      PlanTableRecord table;
      const double rate =
          run_throughput(world, shards, stream, widest ? &p99 : nullptr,
                         widest ? &table : nullptr);
      if (widest && rate > widest_best) {
        widest_best = rate;
        widest_p99 = p99;
        plan_table = table;
      }
      return rate;
    });
  }
  const std::vector<double> locates_per_sec =
      bench::best_of_interleaved(3, sides);
  const double aggregate_best =
      *std::max_element(locates_per_sec.begin(), locates_per_sec.end());
  const double scaling =
      locates_per_sec.back() / std::max(locates_per_sec.front(), 1.0);
  // The 1M/s aggregate gate arms only where the lanes have cores to
  // land on; the scaling ratio itself is recorded, never gated (a
  // 1-core container legitimately shows <= 1x).
  const bool throughput_gated = cores >= 8;
  const bool throughput_ok = !throughput_gated || aggregate_best >= 1.0e6;
  bool p99_ok = widest_p99.size() == shard_counts.back();
  for (const double p99 : widest_p99) p99_ok = p99_ok && p99 > 0.0;

  // ---- 3. Bit-identical outcomes + checkpoints at shards 1/2/8.
  const std::size_t n_batches = smoke ? 24 : 96;
  std::uint64_t reference_digest = 0;
  std::string reference_bytes;
  bool identical = true;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    std::uint64_t digest = 0;
    std::string bytes;
    deterministic_drive(world, shards, n_batches, scratch, &digest, &bytes);
    if (reference_bytes.empty()) {
      reference_digest = digest;
      reference_bytes = bytes;
      continue;
    }
    identical =
        identical && digest == reference_digest && bytes == reference_bytes;
  }
  identical = identical && !reference_bytes.empty();

  // ---- Report.
  support::TextTable table({"metric", "value"});
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    table.add_row({"locates/sec @" + std::to_string(shard_counts[i]) +
                       " shards",
                   support::TextTable::fmt(locates_per_sec[i], 0)});
  }
  table.add_row({"scaling (8 shards / 1 shard)",
                 support::TextTable::fmt(scaling, 2) + "x"});
  table.add_row({"aggregate gate (>= 1M/s)",
                 throughput_gated
                     ? (throughput_ok ? "armed: PASS" : "armed: FAIL")
                     : "unarmed (" + std::to_string(cores) + " cores)"});
  for (std::size_t s = 0; s < widest_p99.size(); ++s) {
    table.add_row({"task p99 ns, shard " + std::to_string(s),
                   support::TextTable::fmt(widest_p99[s], 0)});
  }
  table.add_row({"outcomes+checkpoints identical @1/2/8 shards",
                 identical ? "yes" : "NO"});
  table.add_row(
      {"shared-plan hits", support::TextTable::fmt(plan_table.hits)});
  table.add_row({"plan table rows / slab bytes",
                 std::to_string(plan_table.capacity) + " / " +
                     std::to_string(plan_table.bytes)});
  std::cout << "\n" << table;

  bench.gate("aggregate_throughput_where_armed", throughput_ok);
  bench.gate("per_shard_p99_observable", p99_ok);
  bench.gate("determinism_identical", identical);
  bench.gate("cross_shard_plan_sharing", plan_table.hits >= 1);

  // ---- Machine-readable record.
  bench::Json& record = bench.record;
  record["hardware_cores"] = cores;
  bench::Json& throughput = record["throughput"];
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    throughput["locates_per_sec_shards_" + std::to_string(shard_counts[i])] =
        locates_per_sec[i];
  }
  record["aggregate_locates_per_sec"] = aggregate_best;
  record["scaling_8_over_1"] = scaling;
  record["throughput_gate_armed"] = throughput_gated;
  record["per_shard_task_p99_ns"] = widest_p99;
  record["determinism_identical"] = identical ? 1 : 0;
  record["shared_plan_hits"] = plan_table.hits;
  // The table's footprint: bench_compare.py reads *_bytes as
  // lower-is-better, so a growth warns run over run.
  record["plan_table_capacity"] = plan_table.capacity;
  record["plan_table_bytes"] = plan_table.bytes;
  return bench.finish();
}
