// Experiment E21 — fleet-wide SLO sensing over the label algebra, with
// trace exemplars.
//
// PR10 taught the SLO controller to sense the LABEL-SUMMED rounds
// window (RegistrySnapshot::sum_by — PromQL `sum without (shard)`), so
// one controller closes the loop over a whole ServiceFleet: the
// per-shard confcall_locate_rounds{shard="s"} series fold into one
// fleet-wide interval histogram that is invariant under resharding.
// This harness gates the claims that make that composition sound, and
// emits BENCH_E21.json:
//
//   * Control works fleet-wide: a deterministic quiet/burst cycle is
//     served twice per burst level — static admission thresholds vs the
//     controller — and the controlled admitted p99 must be <= the
//     static baseline's at EVERY level. (The physics is E17's, one
//     level up: the controller pins the token refill under the
//     quiet-hour demand, holding admits in the degraded band where the
//     single-round blanket plan serves them.)
//   * Sensing does not break fleet determinism: the identical
//     controlled drive at shards 1/2/8 must produce bit-identical
//     outcome digests AND identical control trajectories (steps,
//     breaches, final actuator positions) — the label-erased sum the
//     controller reads is the same histogram at any shard count.
//     Recorded as the numeric determinism_identical 1/0.
//   * Sensing is cheap: fleet locate throughput with the controller
//     snapshotting + label-summing every control period must stay
//     within 5% of the same drive without it (aggregation_throughput_
//     ratio >= 0.95, strict-pathed by bench_compare.py).
//   * Exemplars flow end to end: with a SamplingTracer attached, the
//     rounds histogram must carry at least one valid exemplar trace id
//     after the drive, the opt-in exposition must render the
//     OpenMetrics `# {trace_id="..."}` suffix, and the DEFAULT
//     exposition must stay exemplar-free byte for byte (the E16
//     contract). The default scrape size and series cardinality are
//     recorded so growth shows up in review.
//
// Flags (shared bench set, bench/harness.h): --smoke, --threads N
// (unused, accepted for uniformity), --out FILE (default BENCH_E21.json).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cellular/service.h"
#include "cellular/service_fleet.h"
#include "cellular/topology.h"
#include "prob/rng.h"
#include "support/metrics.h"
#include "support/overload.h"
#include "support/slo_controller.h"
#include "support/table.h"
#include "support/trace.h"

#include "harness.h"

namespace {

using namespace confcall;

constexpr std::size_t kNumAreas = 8;
constexpr std::size_t kNumUsers = 96;
constexpr std::size_t kUsersPerCall = 3;
constexpr std::uint64_t kRoundNs = 1'000'000;       // 1 ms rounds
constexpr std::uint64_t kStepNs = 10'000'000;       // 10 ms steps
constexpr std::uint64_t kControlPeriodNs = 100'000'000;  // 100 ms
constexpr double kSloTargetMs = 2.0;
// One traffic cycle: 70 quiet steps (one call every 10th step, served
// at full quality once the bucket recovers) then 30 burst steps
// (multiplier calls per step, draining the bucket through degraded
// into shedding). Deterministic — no arrival randomness, so the
// admission sequence is a pure function of the control trajectory.
constexpr std::size_t kCycleSteps = 100;
constexpr std::size_t kQuietSteps = 70;
constexpr std::size_t kWarmupSteps = 400;

/// The world every fleet serves (the E20 fixture): one topology, one
/// mobility law, one initial-cell draw, stationary profiles so every
/// area plans the same Fig. 1 strategy.
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
    config.profile_kind = cellular::ProfileKind::kStationary;
    config.max_paging_rounds = 3;
    config.enable_plan_cache = true;
    return config;
  }

  [[nodiscard]] cellular::ServiceFleet make_fleet(
      std::size_t num_shards, support::MetricRegistry* registry,
      cellular::LocationService::Config config) const {
    cellular::FleetConfig fleet_config;
    fleet_config.num_shards = num_shards;
    fleet_config.num_areas = kNumAreas;
    fleet_config.seed = 1313;
    fleet_config.registry = registry;
    fleet_config.pin_threads = false;  // shared CI runners
    return cellular::ServiceFleet(grid, areas, mobility, std::move(config),
                                  initial_cells, fleet_config);
  }
};

/// The fixed call stream: `n` three-user calls round-robined over the
/// areas, a pure function of `n` — every arm and every shard count
/// consumes the exact same calls in the exact same order.
std::vector<cellular::ServiceFleet::Request> make_stream(std::size_t n) {
  prob::Rng fixture_rng(4242);
  std::vector<cellular::ServiceFleet::Request> stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream[i].area = i % kNumAreas;
    stream[i].users.reserve(kUsersPerCall);
    for (std::size_t k = 0; k < kUsersPerCall; ++k) {
      stream[i].users.push_back(static_cast<cellular::UserId>(
          k * 32 + fixture_rng.next_below(32)));
    }
  }
  return stream;
}

/// Calls offered at virtual step `t` of the quiet/burst cycle.
std::size_t calls_at_step(std::size_t t, std::size_t burst_multiplier) {
  const std::size_t phase = t % kCycleSteps;
  if (phase < kQuietSteps) return phase % 10 == 0 ? 1 : 0;
  return burst_multiplier;
}

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

struct ArmResult {
  bool controller = false;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  double p99_ms = 0.0;       ///< measured-window admitted rounds p99
  std::uint64_t window_calls = 0;
  std::uint64_t slo_steps = 0;
  std::uint64_t slo_breaches = 0;
  double final_refill = 0.0;
  double final_degrade = 0.0;
  std::uint64_t digest = 0;  ///< whole-drive outcome fold
  bool conservation_ok = false;
  bool exemplar_seen = false;
};

/// One arm: the cycle workload against a fresh fleet at `num_shards`,
/// with admission gating every offered call (cost = callees), served
/// on a hand-advanced clock. `controller` attaches the SloController
/// sensing the label-summed rounds family; `tracer_every > 0` attaches
/// a SamplingTracer so the rounds histogram collects exemplars.
ArmResult run_arm(const World& world, std::size_t num_shards,
                  std::size_t burst_multiplier, bool controller,
                  std::size_t measured_steps, std::size_t tracer_every) {
  support::ManualClock clock(1);
  support::MetricRegistry registry;
  std::optional<support::SamplingTracer> tracer;
  if (tracer_every > 0) tracer.emplace(tracer_every, 256, clock);

  support::AdmissionOptions admission_options;
  admission_options.bucket_capacity = 48.0;
  admission_options.refill_per_sec = 80.0;  // 0.8 tokens per 10 ms step
  support::AdmissionController admission(admission_options, clock);
  admission.bind_metrics(registry);

  cellular::LocationService::Config service_cfg = World::service_config();
  service_cfg.tracer = tracer ? &*tracer : nullptr;
  cellular::ServiceFleet fleet =
      world.make_fleet(num_shards, &registry, std::move(service_cfg));

  std::unique_ptr<support::SloController> slo;
  if (controller) {
    support::SloOptions options;
    options.enabled = true;
    options.target_p99_ns =
        static_cast<std::uint64_t>(kSloTargetMs * 1e6);
    options.control_period_ns = kControlPeriodNs;
    // Quiet-phase traffic is ~0.7 calls per period; without this floor
    // the anti-windup hold would blind the controller between bursts.
    options.min_interval_calls = 2;
    // Actuator ceiling below the quiet-hour token demand (~21/s at 3
    // tokens per call) plus slack: AIMD converges to the ceiling while
    // under SLO instead of refilling back into the healthy band.
    options.max_refill_per_sec = 24.0;
    slo = std::make_unique<support::SloController>(
        options, registry, admission, clock, kRoundNs);
    slo->bind_metrics(registry);
  }

  const std::size_t total_steps = kWarmupSteps + measured_steps;
  std::size_t max_calls = 0;
  for (std::size_t t = 0; t < total_steps; ++t) {
    max_calls += calls_at_step(t, burst_multiplier);
  }
  const std::vector<cellular::ServiceFleet::Request> stream =
      make_stream(max_calls);

  ArmResult arm;
  arm.controller = controller;
  std::size_t next_call = 0;
  support::RegistrySnapshot window_start;
  std::vector<cellular::ServiceFleet::Request> batch;
  for (std::size_t t = 0; t < total_steps; ++t) {
    if (t == kWarmupSteps) window_start = registry.snapshot();
    clock.advance(kStepNs);
    fleet.step_all();
    batch.clear();
    const std::size_t offered = calls_at_step(t, burst_multiplier);
    for (std::size_t c = 0; c < offered; ++c) {
      cellular::ServiceFleet::Request request = stream[next_call++];
      ++arm.offered;
      const support::AdmissionController::Decision decision =
          admission.admit(static_cast<double>(request.users.size()));
      if (decision == support::AdmissionController::Decision::kShed) {
        ++arm.shed;
        continue;
      }
      if (decision ==
          support::AdmissionController::Decision::kAdmitDegraded) {
        request.context.plan_cheap = true;
        ++arm.degraded;
      }
      ++arm.admitted;
      batch.push_back(std::move(request));
    }
    if (!batch.empty()) {
      const std::vector<cellular::LocationService::LocateOutcome> outcomes =
          fleet.locate_many(batch);
      arm.digest ^= outcome_digest(outcomes) + t;  // order-sensitive fold
    }
    if (slo) (void)slo->maybe_step();
  }

  // The measured window, sensed exactly the way the controller senses:
  // delta against the window-open snapshot, label-summed over every
  // shard's series.
  const support::RegistrySnapshot window =
      registry.snapshot().delta(window_start);
  const std::optional<support::MetricSnapshot> rounds =
      window.sum_by("confcall_locate_rounds");
  arm.window_calls = rounds ? rounds->histogram.count : 0;
  arm.p99_ms = rounds ? rounds->histogram.quantile(0.99) *
                            (static_cast<double>(kRoundNs) * 1e-6)
                      : 0.0;
  if (slo) {
    arm.slo_steps = slo->control_steps();
    arm.slo_breaches = slo->breaches();
    arm.final_refill = slo->refill_per_sec();
    arm.final_degrade = slo->degrade_threshold();
  }
  arm.conservation_ok = arm.offered == arm.admitted + arm.shed &&
                        admission.shed() == arm.shed;
  const std::optional<support::MetricSnapshot> lifetime_rounds =
      registry.snapshot().sum_by("confcall_locate_rounds");
  if (lifetime_rounds) {
    for (const support::Exemplar& exemplar :
         lifetime_rounds->histogram.exemplars) {
      arm.exemplar_seen = arm.exemplar_seen || exemplar.valid();
    }
  }
  return arm;
}

/// Locates/sec over `stream` through a fresh un-gated fleet; when
/// `sense` is set, a full SloController runs its sensing (snapshot +
/// delta + sum_by) on the daemon's production cadence — the clock
/// advances one 10 ms step per batch against the default 1 s control
/// period, so one sensing pass covers ~100 dispatched batches, exactly
/// the duty cycle `confcall_serve --control-period-ms 1000` runs at.
/// The SLO target sits far above any observable p99 so the actuators
/// never move: both arms serve the identical call sequence.
double run_aggregation_throughput(
    const World& world,
    std::span<const cellular::ServiceFleet::Request> stream, bool sense) {
  constexpr std::size_t kBatch = 64;
  constexpr std::uint64_t kProductionPeriodNs = 1'000'000'000;  // 1 s
  support::ManualClock clock(1);
  support::MetricRegistry registry;
  support::AdmissionOptions admission_options;
  support::AdmissionController admission(admission_options, clock);
  cellular::ServiceFleet fleet =
      world.make_fleet(2, &registry, World::service_config());
  std::unique_ptr<support::SloController> slo;
  if (sense) {
    support::SloOptions options;
    options.enabled = true;
    options.target_p99_ns = 1'000'000'000'000ULL;  // never breached
    options.control_period_ns = kProductionPeriodNs;
    slo = std::make_unique<support::SloController>(
        options, registry, admission, clock, kRoundNs);
  }
  const auto start = bench::Clock::now();
  std::size_t done = 0;
  while (done < stream.size()) {
    const std::size_t take = std::min(kBatch, stream.size() - done);
    (void)fleet.locate_many(stream.subspan(done, take));
    done += take;
    clock.advance(kStepNs);
    if (slo) (void)slo->maybe_step();
  }
  return static_cast<double>(done) / bench::seconds_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness bench("E21", "fleet-wide SLO sensing over the label algebra",
                       argc, argv);
  const bool smoke = bench.smoke();
  std::cout << "target p99 " << kSloTargetMs << " ms\n";

  const World world;
  const std::size_t measured_steps = smoke ? 600 : 2000;

  // ---- 1. Burst sweep at 2 shards: controlled p99 <= static p99 at
  // every level. The tracer rides along on the controlled arm so the
  // exemplar path is exercised under real fleet traffic.
  struct Cell {
    std::size_t burst = 1;
    ArmResult baseline;
    ArmResult controlled;
  };
  const std::vector<std::size_t> burst_multipliers{1, 2, 4, 10};
  std::vector<Cell> cells;
  bool controller_not_worse = true;
  bool conservation_ok = true;
  bool exemplar_captured = false;
  for (const std::size_t burst : burst_multipliers) {
    Cell cell;
    cell.burst = burst;
    cell.baseline = run_arm(world, 2, burst, false, measured_steps, 0);
    cell.controlled = run_arm(world, 2, burst, true, measured_steps, 4);
    controller_not_worse &=
        cell.controlled.p99_ms <= cell.baseline.p99_ms;
    conservation_ok &= cell.baseline.conservation_ok &&
                       cell.controlled.conservation_ok;
    exemplar_captured |= cell.controlled.exemplar_seen;
    cells.push_back(cell);
  }

  // ---- 2. Determinism with the controller in the loop: shards 1/2/8
  // must agree on the outcome digest AND the control trajectory — the
  // label-erased window the controller senses is shard-invariant.
  bool determinism_identical = true;
  {
    const ArmResult reference =
        run_arm(world, 1, 4, true, measured_steps, 0);
    for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
      const ArmResult other =
          run_arm(world, shards, 4, true, measured_steps, 0);
      determinism_identical =
          determinism_identical && other.digest == reference.digest &&
          other.admitted == reference.admitted &&
          other.shed == reference.shed &&
          other.slo_steps == reference.slo_steps &&
          other.slo_breaches == reference.slo_breaches &&
          other.final_refill == reference.final_refill &&
          other.final_degrade == reference.final_degrade &&
          other.window_calls == reference.window_calls &&
          other.p99_ms == reference.p99_ms;
    }
  }

  // ---- 3. Sensing overhead: best-of-5 throughput with and without
  // the controller's per-period snapshot + delta + sum_by.
  const std::vector<cellular::ServiceFleet::Request> throughput_stream =
      make_stream(smoke ? 20000 : 100000);
  const std::vector<double> best = bench::best_of_interleaved(
      5, {[&] {
            return run_aggregation_throughput(world, throughput_stream, false);
          },
          [&] {
            return run_aggregation_throughput(world, throughput_stream, true);
          }});
  const double plain_rate = best[0], sensed_rate = best[1];
  const double aggregation_ratio =
      plain_rate > 0.0 ? sensed_rate / plain_rate : 0.0;

  // ---- 4. Exposition: the opt-in render carries the exemplar suffix,
  // the default render must not (the E16 byte-identity contract), and
  // the default scrape size + cardinality are recorded.
  bool exposition_ok = false;
  std::size_t scrape_bytes = 0;
  std::size_t series_count = 0;
  {
    support::ManualClock clock(1);
    support::MetricRegistry registry;
    support::SamplingTracer tracer(1, 64, clock);  // sample every root
    cellular::LocationService::Config cfg = World::service_config();
    cfg.tracer = &tracer;
    cellular::ServiceFleet fleet = world.make_fleet(2, &registry, cfg);
    (void)fleet.locate_many(make_stream(64));
    const support::RegistrySnapshot snapshot = registry.snapshot();
    const std::string plain = support::to_prometheus(snapshot);
    support::PrometheusOptions with_exemplars;
    with_exemplars.exemplars = true;
    const std::string annotated =
        support::to_prometheus(snapshot, with_exemplars);
    exposition_ok =
        plain.find("# {trace_id=") == std::string::npos &&
        annotated.find("# {trace_id=\"") != std::string::npos;
    scrape_bytes = plain.size();
    series_count = snapshot.metrics.size();
  }

  // ---- Report.
  support::TextTable table({"burst", "arm", "offered", "shed", "degr",
                            "p99 ms", "slo steps", "refill/s"});
  for (const Cell& cell : cells) {
    for (const ArmResult* arm : {&cell.baseline, &cell.controlled}) {
      table.add_row({std::to_string(cell.burst) + "x",
                     arm->controller ? "slo" : "static",
                     std::to_string(arm->offered),
                     std::to_string(arm->shed),
                     std::to_string(arm->degraded),
                     support::TextTable::fmt(arm->p99_ms, 1),
                     std::to_string(arm->slo_steps),
                     arm->controller
                         ? support::TextTable::fmt(arm->final_refill, 1)
                         : "-"});
    }
  }
  std::cout << "\n" << table << "\nlabel-aggregation throughput ratio "
            << support::TextTable::fmt(aggregation_ratio, 3) << "\n";

  bench.gate("controller_not_worse", controller_not_worse);
  bench.gate("determinism_identical", determinism_identical);
  bench.gate("aggregation_ratio_at_least_0_95", aggregation_ratio >= 0.95,
             bench::Gate::kQuietHost);
  bench.gate("exemplar_captured", exemplar_captured);
  bench.gate("exposition_gated", exposition_ok);
  bench.gate("conservation_ok", conservation_ok);

  // ---- Machine-readable record.
  bench::Json& record = bench.record;
  record["slo_target_p99_ms"] = kSloTargetMs;
  for (const Cell& cell : cells) {
    bench::Json& json = record["cells"].append();
    json["burst_multiplier"] = cell.burst;
    for (const auto& [key, arm] : {std::pair{"baseline", &cell.baseline},
                                   std::pair{"controlled", &cell.controlled}}) {
      bench::Json& side = json[key];
      side["offered"] = arm->offered;
      side["admitted"] = arm->admitted;
      side["shed"] = arm->shed;
      side["degraded"] = arm->degraded;
      side["window_calls"] = arm->window_calls;
      side["p99_ms"] = arm->p99_ms;
      side["slo_control_steps"] = arm->slo_steps;
      side["slo_breaches"] = arm->slo_breaches;
    }
  }
  record["controller_not_worse"] = controller_not_worse;
  record["determinism_identical"] = determinism_identical ? 1 : 0;
  record["aggregation_throughput_ratio"] = aggregation_ratio;
  record["plain_locates_per_sec"] = plain_rate;
  record["sensed_locates_per_sec"] = sensed_rate;
  record["exemplar_captured"] = exemplar_captured ? 1 : 0;
  record["exposition_gated"] = exposition_ok ? 1 : 0;
  record["scrape_bytes"] = scrape_bytes;
  record["series_count"] = series_count;
  return bench.finish();
}
