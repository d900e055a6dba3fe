// The one serving world the in-process benches E13–E21 measure, stated
// once: the Fig. 1 workload on a 12x12 toroidal grid tiled into 3x3
// location areas, 96 lazy users (stay 0.9), 3-callee calls planned for
// d = 3 rounds under stationary profiles.
//
//   bench::World world;  // grid, areas, mobility, rng 1313, cells
//   cellular::LocationService service =
//       world.make_service(bench::World::service_config());
//   cellular::UserId users[3];
//   cellular::CellId truth[3];
//   world.draw_call(world.rng, users, truth);
//   (void)service.locate(users, truth, world.rng);
//
// It also holds the one fleet request stream and the two determinism
// fingerprints the benches compare: outcome_digest folds every
// LocateOutcome field, and same_report compares every SimReport field
// that does not legitimately differ between the runs being compared.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "cellular/mobility.h"
#include "cellular/service.h"
#include "cellular/service_fleet.h"
#include "cellular/simulator.h"
#include "cellular/topology.h"
#include "prob/rng.h"
#include "support/metrics.h"

namespace confcall::bench {

constexpr std::size_t kCallees = 3;   ///< users paged per call
constexpr std::size_t kFleetAreas = 8;

/// The steady-profile workload as a simulator config. Stationary
/// profiles never change and lazy users rarely cross an area, so every
/// area's planning inputs repeat call after call: the regime the plan
/// table is built for. Steps and warm-up stay at their defaults.
inline cellular::SimConfig steady_sim_config() {
  cellular::SimConfig config;
  config.grid_rows = 12;
  config.grid_cols = 12;
  config.la_tile_rows = 3;
  config.la_tile_cols = 3;
  config.num_users = 96;
  // Lazy, not frozen: the chain must be ergodic.
  config.stay_probability = 0.9;
  config.call_rate = 0.9;
  config.group_min = 2;
  config.group_max = 4;
  config.max_paging_rounds = 3;
  config.profile_kind = cellular::ProfileKind::kStationary;
  config.seed = 13;
  return config;
}

/// Callee `i` of a call: a draw within the i-th third of the 96 users,
/// so a call's callees are always distinct.
inline cellular::UserId draw_callee(prob::Rng& rng, std::size_t i) {
  return static_cast<cellular::UserId>(i * 32 + rng.next_below(32));
}

/// The world of steady_sim_config(). Services and fleets keep pointers
/// into it, so it neither copies nor moves; twin services get twin
/// worlds.
struct World {
  World() : World(steady_sim_config()) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Stationary profiles, d = 3, plan table on.
  static cellular::LocationService::Config service_config() {
    const cellular::SimConfig sim = steady_sim_config();
    cellular::LocationService::Config config;
    config.profile_kind = sim.profile_kind;
    config.max_paging_rounds = sim.max_paging_rounds;
    return config;
  }

  [[nodiscard]] cellular::LocationService make_service(
      cellular::LocationService::Config config) const {
    return cellular::LocationService(grid, areas, mobility, std::move(config),
                                     cells);
  }

  /// `shards` lanes over kFleetAreas areas, seed 1313, placement off
  /// (shared runners).
  [[nodiscard]] cellular::ServiceFleet make_fleet(
      std::size_t shards, support::MetricRegistry* registry,
      cellular::LocationService::Config config = service_config()) const {
    cellular::FleetConfig fleet_config;
    fleet_config.num_shards = shards;
    fleet_config.num_areas = kFleetAreas;
    fleet_config.seed = 1313;
    fleet_config.registry = registry;
    fleet_config.pin_threads = false;
    return cellular::ServiceFleet(grid, areas, mobility, std::move(config),
                                  cells, fleet_config);
  }

  /// Draws one call's callees from `rng` and looks up where they are.
  void draw_call(prob::Rng& rng, std::span<cellular::UserId, kCallees> users,
                 std::span<cellular::CellId, kCallees> truth) const {
    for (std::size_t i = 0; i < kCallees; ++i) {
      users[i] = draw_callee(rng, i);
      truth[i] = cells[users[i]];
    }
  }

  cellular::GridTopology grid;
  cellular::LocationAreas areas;
  cellular::MarkovMobility mobility;
  prob::Rng rng{1313};
  std::vector<cellular::CellId> cells;

 private:
  explicit World(const cellular::SimConfig& config)
      : grid(config.grid_rows, config.grid_cols, config.toroidal,
             config.neighborhood),
        areas(cellular::LocationAreas::tiles(grid, config.la_tile_rows,
                                             config.la_tile_cols)),
        mobility(grid, config.stay_probability),
        cells(cellular::scatter_users(grid, config.num_users, rng)) {}
};

/// `size` calls in stable storage, with one LocateRequest viewing each.
struct CallBatch {
  explicit CallBatch(std::size_t size)
      : users(size), truth(size), requests(size) {
    for (std::size_t b = 0; b < size; ++b) {
      requests[b] = {users[b], truth[b], {}};
    }
  }
  CallBatch(const CallBatch&) = delete;
  CallBatch& operator=(const CallBatch&) = delete;

  /// Redraws every call, in order, from `rng`.
  void draw(const World& world, prob::Rng& rng) {
    for (std::size_t b = 0; b < users.size(); ++b) {
      world.draw_call(rng, users[b], truth[b]);
    }
  }

  std::vector<std::array<cellular::UserId, kCallees>> users;
  std::vector<std::array<cellular::CellId, kCallees>> truth;
  std::vector<cellular::LocationService::LocateRequest> requests;
};

/// The fixed fleet request stream: `n` calls round-robined over the
/// areas, callees drawn from Rng 4242. A pure function of `n`, so every
/// shard count and every arm serves the same calls in the same order.
inline std::vector<cellular::ServiceFleet::Request> fleet_stream(
    std::size_t n) {
  prob::Rng rng(4242);
  std::vector<cellular::ServiceFleet::Request> stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream[i].area = i % kFleetAreas;
    for (std::size_t k = 0; k < kCallees; ++k) {
      stream[i].users.push_back(draw_callee(rng, k));
    }
  }
  return stream;
}

/// FNV-1a over every LocateOutcome field: two runs with equal digests
/// served every call identically.
inline std::uint64_t outcome_digest(
    const std::vector<cellular::LocationService::LocateOutcome>& outcomes) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ULL;
  };
  for (const auto& outcome : outcomes) {
    for (const std::size_t count :
         {outcome.cells_paged, outcome.rounds_used, outcome.fallback_pages,
          outcome.missed_detections, outcome.outage_pages,
          outcome.dropped_rounds, outcome.retries, outcome.backoff_rounds,
          outcome.forced_registrations}) {
      mix(count);
    }
    for (const bool flag : {outcome.budget_exhausted, outcome.degraded,
                            outcome.abandoned, outcome.deadline_limited}) {
      mix(flag ? 1 : 0);
    }
  }
  return hash;
}

/// Bitwise equality of two running statistics.
inline bool same_stats(const prob::RunningStats& a,
                       const prob::RunningStats& b) {
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  return a.count() == b.count() && bits(a.mean()) == bits(b.mean()) &&
         bits(a.variance()) == bits(b.variance()) &&
         bits(a.min()) == bits(b.min()) && bits(a.max()) == bits(b.max());
}

/// Equality of every SimReport field except the plan-table counters
/// (they differ with the table on and off) and the metrics snapshot
/// (compared as rendered text where a bench needs it).
inline bool same_report(const cellular::SimReport& a,
                        const cellular::SimReport& b) {
  const auto counters = [](const cellular::SimReport& r) {
    return std::array{
        r.steps, r.calls_arrived, r.calls_served, r.calls_completed,
        r.calls_shed, r.calls_degraded_admit, r.calls_deadline_limited,
        r.breaker_trips, r.breaker_skips, r.planner_failovers,
        r.health_transitions, r.bursts_entered, r.slo_control_steps,
        r.slo_breaches, r.slo_pre_breach_signals, r.reports_sent,
        r.cells_paged_total, r.fallback_pages, r.missed_detections,
        r.reports_lost, r.outage_pages, r.dropped_rounds, r.retries_total,
        r.backoff_rounds, r.calls_degraded, r.calls_abandoned,
        r.forced_registrations, r.budget_exhaustions,
        r.faults_injected.outages_started, r.faults_injected.reports_dropped,
        r.faults_injected.rounds_dropped};
  };
  return counters(a) == counters(b) &&
         same_stats(a.pages_per_call, b.pages_per_call) &&
         same_stats(a.rounds_per_call, b.rounds_per_call) &&
         a.rounds_histogram == b.rounds_histogram;
}

}  // namespace confcall::bench
