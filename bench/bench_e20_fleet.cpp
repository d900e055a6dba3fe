// Experiment E20 — fleet serving: multi-area sharding with core-aware
// placement and cross-shard plan sharing.
//
// PR9 added cellular::ServiceFleet (DESIGN.md §14): N serving areas on
// M per-core shard lanes, a bounded queue per shard with back-stealing
// past a limit, and one bounded signature -> strategy table so
// identically-distributed areas plan once per fleet. This harness
// gates the claims that make sharding worth having, and emits
// BENCH_E20.json:
//
//   * Aggregate throughput scales with the shard count. The same fixed
//     request stream is served at shards 1/2/4/8 over a fixed 8-area
//     fleet; the JSON records locates/sec per shard count and the
//     max-over-1 scaling ratio. The >= 1M locates/sec aggregate gate
//     self-arms on hardware with >= 8 cores (hardware_concurrency) —
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
// Flags (shared bench set): --smoke, --threads N (unused, accepted for
// uniformity), --out FILE (default BENCH_E20.json).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cellular/service.h"
#include "cellular/service_fleet.h"
#include "cellular/topology.h"
#include "prob/rng.h"
#include "support/cli.h"
#include "support/metrics.h"
#include "support/state_io.h"
#include "support/table.h"

namespace {

using namespace confcall;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kNumAreas = 8;  // fixed: only the lane count varies
constexpr std::size_t kNumUsers = 96;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The world every fleet in this bench serves: one topology, one
/// mobility law, one initial-cell draw — so runs differ only in the
/// shard count under test.
struct World {
  cellular::GridTopology grid{12, 12, true,
                              cellular::Neighborhood::kVonNeumann};
  cellular::LocationAreas areas = cellular::LocationAreas::tiles(grid, 3, 3);
  cellular::MarkovMobility mobility{grid, 0.9};
  std::vector<cellular::CellId> initial_cells;

  World() {
    prob::Rng rng(1313);
    initial_cells.resize(kNumUsers);
    for (auto& cell : initial_cells) {
      cell = static_cast<cellular::CellId>(rng.next_below(grid.num_cells()));
    }
  }

  static cellular::LocationService::Config service_config() {
    cellular::LocationService::Config config;
    // Stationary profiles: every area's planning inputs are identical,
    // which is exactly the workload the fleet's plan table exists for
    // (one Fig. 1 plan per resident signature per FLEET).
    config.profile_kind = cellular::ProfileKind::kStationary;
    config.max_paging_rounds = 3;
    config.enable_plan_cache = true;
    return config;
  }

  [[nodiscard]] cellular::ServiceFleet make_fleet(
      std::size_t num_shards, support::MetricRegistry* registry) const {
    cellular::FleetConfig config;
    config.num_shards = num_shards;
    config.num_areas = kNumAreas;
    config.seed = 1313;
    config.registry = registry;
    config.pin_threads = false;  // shared CI runners: placement off
    return cellular::ServiceFleet(grid, areas, mobility, service_config(),
                                  initial_cells, config);
  }
};

/// The fixed request stream: `n` three-user calls round-robined over
/// the areas, participants drawn from a dedicated fixture rng. The
/// stream is a pure function of `n` — every shard count serves the
/// exact same calls in the exact same order.
std::vector<cellular::ServiceFleet::Request> make_stream(std::size_t n) {
  prob::Rng fixture_rng(4242);
  std::vector<cellular::ServiceFleet::Request> stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream[i].area = i % kNumAreas;
    stream[i].users.reserve(3);
    for (std::size_t k = 0; k < 3; ++k) {
      stream[i].users.push_back(static_cast<cellular::UserId>(
          k * 32 + fixture_rng.next_below(32)));
    }
  }
  return stream;
}

/// Locates/sec serving `stream` in dispatches of `batch` through a
/// fresh fleet at `num_shards`. `p99_out`, when given, receives each
/// shard's task-latency p99 (ns) from the per-shard histograms, and
/// `hits_out` the shared-table hit count.
double run_throughput(const World& world, std::size_t num_shards,
                      std::span<const cellular::ServiceFleet::Request> stream,
                      std::vector<double>* p99_out, std::uint64_t* hits_out) {
  constexpr std::size_t kBatch = 64;
  support::MetricRegistry registry;
  cellular::ServiceFleet fleet = world.make_fleet(num_shards, &registry);
  const auto start = Clock::now();
  std::size_t done = 0;
  while (done < stream.size()) {
    const std::size_t take = std::min(kBatch, stream.size() - done);
    (void)fleet.locate_many(stream.subspan(done, take));
    done += take;
  }
  const double elapsed = seconds_since(start);
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
  if (hits_out != nullptr) *hits_out = fleet.shared_table().plans.stats().hits;
  return static_cast<double>(done) / elapsed;
}

/// FNV-1a over every outcome field the endpoint reports: two runs with
/// equal digests served every call identically.
std::uint64_t outcome_digest(
    const std::vector<cellular::LocationService::LocateOutcome>& outcomes) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ULL;
  };
  for (const auto& outcome : outcomes) {
    mix(outcome.cells_paged);
    mix(outcome.rounds_used);
    mix(outcome.retries);
    mix(outcome.abandoned ? 1 : 0);
    mix(outcome.degraded ? 1 : 0);
    mix(outcome.deadline_limited ? 1 : 0);
  }
  return hash;
}

/// Drives a fresh fleet through the identical mixed workload (steps
/// interleaved with locate batches) and returns the outcome digest plus
/// the checkpoint file bytes.
void deterministic_drive(const World& world, std::size_t num_shards,
                         std::size_t n_batches, const std::string& path,
                         std::uint64_t* digest_out, std::string* bytes_out) {
  constexpr std::size_t kBatch = 32;
  cellular::ServiceFleet fleet = world.make_fleet(num_shards, nullptr);
  const std::vector<cellular::ServiceFleet::Request> stream =
      make_stream(n_batches * kBatch);
  std::uint64_t digest = 0;
  for (std::size_t b = 0; b < n_batches; ++b) {
    fleet.step_all();
    const std::vector<cellular::LocationService::LocateOutcome> outcomes =
        fleet.locate_many(
            std::span<const cellular::ServiceFleet::Request>(stream).subspan(
                b * kBatch, kBatch));
    digest ^= outcome_digest(outcomes) + b;  // order-sensitive fold
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
  support::BenchFlags flags;
  try {
    flags = support::parse_bench_flags(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "bench_e20_fleet: " << error.what() << "\n";
    return 2;
  }
  const bool smoke = flags.smoke;
  const std::string out_path =
      flags.out.empty() ? "BENCH_E20.json" : flags.out;
  const std::string scratch =
      "bench_e20_scratch_" + std::to_string(::getpid()) + ".bin";
  std::cout << "E20: fleet serving — sharded areas, core-aware placement"
            << (smoke ? " (smoke)" : "") << "\n";

  const World world;
  const unsigned cores = std::thread::hardware_concurrency();

  // ---- 1/2. Throughput scaling + per-shard p99 (best-of-3 passes).
  const std::size_t n_calls = smoke ? 20000 : 200000;
  const std::vector<cellular::ServiceFleet::Request> stream =
      make_stream(n_calls);
  const std::vector<std::size_t> shard_counts{1, 2, 4, 8};
  std::vector<double> locates_per_sec(shard_counts.size(), 0.0);
  std::vector<double> widest_p99;
  std::uint64_t shared_hits = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < shard_counts.size(); ++i) {
      const bool widest = i + 1 == shard_counts.size();
      std::vector<double> p99;
      std::uint64_t hits = 0;
      const double rate =
          run_throughput(world, shard_counts[i], stream,
                         widest ? &p99 : nullptr, widest ? &hits : nullptr);
      if (rate > locates_per_sec[i]) {
        locates_per_sec[i] = rate;
        if (widest) {
          widest_p99 = p99;
          shared_hits = hits;
        }
      }
    }
  }
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

  // ---- 4. Cross-shard plan sharing.
  const bool sharing_ok = shared_hits >= 1;

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
      {"shared-plan hits", support::TextTable::fmt(shared_hits)});
  std::cout << "\n" << table;

  const bool ok = throughput_ok && p99_ok && identical && sharing_ok;
  std::cout << "\ninvariants (aggregate throughput gate where armed, "
            << "per-shard p99 observable, bit-identical results and "
            << "checkpoints across shard counts, cross-shard plan "
            << "sharing): " << (ok ? "PASS" : "FAIL (BUG)") << "\n";

  // ---- Machine-readable record.
  std::ofstream json(out_path);
  json << "{\n"
       << "  \"experiment\": \"E20\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"hardware_cores\": " << cores << ",\n"
       << "  \"throughput\": {\n";
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    json << "    \"locates_per_sec_shards_" << shard_counts[i]
         << "\": " << locates_per_sec[i]
         << (i + 1 < shard_counts.size() ? ",\n" : "\n");
  }
  json << "  },\n"
       << "  \"aggregate_locates_per_sec\": " << aggregate_best << ",\n"
       << "  \"scaling_8_over_1\": " << scaling << ",\n"
       << "  \"throughput_gate_armed\": "
       << (throughput_gated ? "true" : "false") << ",\n"
       << "  \"per_shard_task_p99_ns\": [";
  for (std::size_t s = 0; s < widest_p99.size(); ++s) {
    json << (s == 0 ? "" : ", ") << widest_p99[s];
  }
  json << "],\n"
       << "  \"determinism_identical\": " << (identical ? 1 : 0) << ",\n"
       << "  \"shared_plan_hits\": " << shared_hits << ",\n"
       << "  \"pass\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << out_path << "\n";

  return ok ? 0 : 1;
}
