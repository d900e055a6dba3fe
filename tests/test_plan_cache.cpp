// Tests for the plan cache (cellular/service.h) and the batched
// parallel simulator (cellular/simulator.h, run_simulation_batch).
//
// The cache's contract is transparency: because the key is a content
// signature of everything the planner reads, a hit returns exactly the
// strategy a fresh plan would produce, so observable results must be
// identical with the cache on or off — only planning cost differs. The
// batch runner's contract is thread-count invariance via RNG substreams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "cellular/faults.h"
#include "cellular/profile.h"
#include "cellular/profile_digest.h"
#include "cellular/service.h"
#include "cellular/simulator.h"
#include "cellular/workload.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "prob/rng.h"

namespace confcall::cellular {

/// Reaches LocationService's private paging step (see the friend
/// declaration in cellular/service.h).
struct LocationServiceTestPeer {
  using AreaOutcome = LocationService::AreaOutcome;
  static constexpr std::size_t kUnknownLocal = LocationService::kUnknownLocal;

  static AreaOutcome page_by_row(LocationService& service, const PlanRow& row,
                                 std::size_t num_cells,
                                 std::span<const UserId> users,
                                 std::span<const CellId> true_cells,
                                 const std::vector<std::size_t>& local_of,
                                 std::vector<bool>& found,
                                 LocationService::LocateOutcome& outcome,
                                 prob::Rng& rng) {
    return service.execute_area_plan(row, num_cells, users, true_cells,
                                     local_of, found, outcome, rng);
  }

  /// The planned phase paged by a core::Strategy, round by round: the
  /// loop a packed row must reproduce (fault-free).
  static AreaOutcome page_by_strategy(const LocationService& service,
                                      const core::Strategy& strategy,
                                      std::span<const CellId> true_cells,
                                      const std::vector<std::size_t>& local_of,
                                      std::vector<bool>& found,
                                      LocationService::LocateOutcome& outcome,
                                      prob::Rng& rng) {
    const std::size_t n = found.size();
    AreaOutcome area;
    for (std::size_t r = 0; r < strategy.num_rounds(); ++r) {
      area.pages += strategy.group(r).size();
      area.rounds = r + 1;
      for (std::size_t i = 0; i < n; ++i) {
        if (found[i] || local_of[i] == kUnknownLocal) continue;
        if (strategy.round_of(static_cast<core::CellId>(local_of[i])) != r) {
          continue;
        }
        std::size_t cohabitants = 0;
        for (std::size_t j = 0; j < n; ++j) {
          if (!found[j] && true_cells[j] == true_cells[i]) ++cohabitants;
        }
        if (service.page_answered(cohabitants, rng)) {
          found[i] = true;
        } else {
          ++outcome.missed_detections;
        }
      }
      bool everyone_found = true;
      for (std::size_t i = 0; i < n; ++i) everyone_found &= found[i];
      if (everyone_found) {
        area.ran_all_rounds = r + 1 == strategy.num_rounds();
        return area;
      }
    }
    area.ran_all_rounds = true;
    return area;
  }
};

namespace {

bool stats_equal(const prob::RunningStats& a, const prob::RunningStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() &&
         a.max() == b.max();
}

void expect_same_observables(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(a.calls_served, b.calls_served);
  EXPECT_EQ(a.reports_sent, b.reports_sent);
  EXPECT_EQ(a.cells_paged_total, b.cells_paged_total);
  EXPECT_EQ(a.fallback_pages, b.fallback_pages);
  EXPECT_EQ(a.reports_lost, b.reports_lost);
  EXPECT_EQ(a.outage_pages, b.outage_pages);
  EXPECT_EQ(a.dropped_rounds, b.dropped_rounds);
  EXPECT_EQ(a.retries_total, b.retries_total);
  EXPECT_EQ(a.calls_degraded, b.calls_degraded);
  EXPECT_EQ(a.calls_abandoned, b.calls_abandoned);
  EXPECT_TRUE(stats_equal(a.pages_per_call, b.pages_per_call));
  EXPECT_TRUE(stats_equal(a.rounds_per_call, b.rounds_per_call));
}

SimConfig small_config() {
  SimConfig config;
  config.grid_rows = 6;
  config.grid_cols = 6;
  config.la_tile_rows = 3;
  config.la_tile_cols = 3;
  config.num_users = 24;
  config.call_rate = 0.5;
  config.steps = 300;
  config.warmup_steps = 30;
  config.seed = 99;
  return config;
}

TEST(PlanCache, PackedPlanPagesLikeItsStrategy) {
  // One 16-cell area; imperfect detection with collision losses, so the
  // detection draws (and their order) are part of what must match.
  const GridTopology grid(4, 4, true, Neighborhood::kVonNeumann);
  const LocationAreas areas = LocationAreas::tiles(grid, 4, 4);
  const MarkovMobility mobility(grid, 0.9);
  LocationService::Config config;
  config.detection_probability = 0.7;
  config.collision_losses = true;
  LocationService service(grid, areas, mobility, config,
                          std::vector<CellId>(8, 0));
  using Peer = LocationServiceTestPeer;

  prob::Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t c = 1 + rng.next_below(16);
    const std::size_t d = 1 + rng.next_below(std::min<std::size_t>(4, c));
    const std::size_t m = 1 + rng.next_below(4);
    std::vector<double> probabilities(m * c);
    for (std::size_t i = 0; i < m; ++i) {
      double total = 0.0;
      for (std::size_t j = 0; j < c; ++j) {
        probabilities[i * c + j] = 0.05 + rng.next_double();
        total += probabilities[i * c + j];
      }
      for (std::size_t j = 0; j < c; ++j) probabilities[i * c + j] /= total;
    }
    const core::Instance instance(m, c, probabilities);
    const core::Strategy strategy = core::plan_greedy(instance, d).strategy;
    const double ep = core::expected_paging(instance, strategy);

    PlanRow row(PlanRow::stride_for(16));
    row.pack(strategy, ep);
    EXPECT_EQ(row.expected_paging(), ep);
    ASSERT_EQ(row.num_rounds(), strategy.num_rounds());
    const core::Strategy rebuilt = row.to_strategy(c);
    for (std::size_t cell = 0; cell < c; ++cell) {
      EXPECT_EQ(rebuilt.round_of(static_cast<core::CellId>(cell)),
                strategy.round_of(static_cast<core::CellId>(cell)));
    }
    EXPECT_EQ(rebuilt.group_sizes(), strategy.group_sizes());
    // Rebuilt rounds list their cells in ascending order, so the
    // evaluator may sum in another order: equal to within 4 ULPs.
    EXPECT_DOUBLE_EQ(core::expected_paging(instance, rebuilt), ep);

    // Callees at random local cells; one in eight has a stale record.
    std::vector<UserId> users(m);
    std::vector<CellId> true_cells(m);
    std::vector<std::size_t> local_of(m);
    for (std::size_t i = 0; i < m; ++i) {
      users[i] = static_cast<UserId>(i);
      const std::size_t local = rng.next_below(c);
      true_cells[i] = static_cast<CellId>(local);
      local_of[i] = rng.next_below(8) == 0 ? Peer::kUnknownLocal : local;
    }
    const std::uint64_t seed = rng.next_u64();
    prob::Rng by_row_rng(seed);
    prob::Rng by_strategy_rng(seed);
    std::vector<bool> by_row_found(m, false);
    std::vector<bool> by_strategy_found(m, false);
    LocationService::LocateOutcome by_row_outcome;
    LocationService::LocateOutcome by_strategy_outcome;
    const Peer::AreaOutcome by_row = Peer::page_by_row(
        service, row, c, users, true_cells, local_of, by_row_found,
        by_row_outcome, by_row_rng);
    const Peer::AreaOutcome by_strategy = Peer::page_by_strategy(
        service, strategy, true_cells, local_of, by_strategy_found,
        by_strategy_outcome, by_strategy_rng);
    EXPECT_EQ(by_row.pages, by_strategy.pages) << "trial " << trial;
    EXPECT_EQ(by_row.rounds, by_strategy.rounds) << "trial " << trial;
    EXPECT_EQ(by_row.ran_all_rounds, by_strategy.ran_all_rounds);
    EXPECT_EQ(by_row_found, by_strategy_found);
    EXPECT_TRUE(by_row_outcome == by_strategy_outcome);
    EXPECT_EQ(by_row_rng.next_u64(), by_strategy_rng.next_u64());
  }
}

TEST(PlanCache, BlanketRowIsOneRoundOfEveryCell) {
  PlanRow row(PlanRow::stride_for(9));
  row.pack(core::Strategy::from_groups({{0, 2}, {1}, {3, 4, 5, 6, 7, 8}}, 9),
           2.5);
  row.pack_blanket();
  EXPECT_EQ(row.num_rounds(), 1u);
  EXPECT_EQ(row.to_strategy(9), core::Strategy::blanket(9));
}

TEST(PlanCache, ConfigCapsTheDelayBudgetAtOneRoundByte) {
  LocationService::Config config;
  config.max_paging_rounds = 255;
  EXPECT_NO_THROW(config.validate());
  config.max_paging_rounds = 256;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(PlanCache, SimReportIdenticalWithCacheOnAndOff) {
  SimConfig on = small_config();
  on.enable_plan_cache = true;
  SimConfig off = small_config();
  off.enable_plan_cache = false;

  const SimReport with_cache = run_simulation(on);
  const SimReport without_cache = run_simulation(off);
  expect_same_observables(with_cache, without_cache);

  EXPECT_GT(with_cache.plan_cache_hits, 0u);
  EXPECT_GT(with_cache.plan_cache_misses, 0u);
  EXPECT_EQ(without_cache.plan_cache_hits, 0u);
  EXPECT_EQ(without_cache.plan_cache_misses, 0u);
}

TEST(PlanCache, TransparentUnderFaultsToo) {
  SimConfig on = small_config();
  on.faults.cell_outage_rate = 0.05;
  on.faults.outage_duration = 10;
  on.faults.report_loss_rate = 0.1;
  on.faults.seed = 0xabc;
  SimConfig off = on;
  off.enable_plan_cache = false;
  expect_same_observables(run_simulation(on), run_simulation(off));
}

TEST(PlanCache, SteadyProfileWorkloadHitsOverNinetyPercent) {
  SimConfig config = small_config();
  config.profile_kind = ProfileKind::kStationary;
  config.steps = 1000;
  const SimReport report = run_simulation(config);
  EXPECT_GE(report.plan_cache_hit_rate(), 0.90)
      << report.plan_cache_hits << " hits / " << report.plan_cache_misses
      << " misses";
}

// Direct service-level test of the fault-invalidation path: taking a cell
// of the area down must change the plan signature (forcing a replan), and
// the outage expiring must restore the original signature (hitting the
// still-resident entry).
TEST(PlanCache, OutageInvalidatesAndRecoveryRestores) {
  const GridTopology grid(2, 2, true, Neighborhood::kVonNeumann);
  const LocationAreas areas = LocationAreas::tiles(grid, 2, 2);
  const MarkovMobility mobility(grid, 0.5);
  LocationService::Config config;
  config.profile_kind = ProfileKind::kStationary;
  config.enable_plan_cache = true;
  LocationService service(grid, areas, mobility, config, {0, 1, 2, 3});

  FaultConfig fault_config;
  fault_config.cell_outage_rate = 1.0;  // begin_step() darkens a cell
  fault_config.outage_duration = 3;
  fault_config.seed = 5;
  FaultPlan faults(fault_config, grid.num_cells());
  service.attach_faults(&faults);

  prob::Rng rng(1);
  const UserId users[] = {0, 1};
  const CellId cells[] = {0, 1};

  (void)service.locate(users, cells, rng);  // cold miss
  (void)service.locate(users, cells, rng);  // hit: nothing changed
  EXPECT_EQ(service.plan_cache_stats().misses, 1u);
  EXPECT_EQ(service.plan_cache_stats().hits, 1u);

  faults.begin_step();  // a cell goes dark
  ASSERT_GT(faults.cells_out(), 0u);
  (void)service.locate(users, cells, rng);  // outage state: must replan
  EXPECT_EQ(service.plan_cache_stats().misses, 2u);

  // Let every outage expire (rate 1.0 keeps starting new ones, so step a
  // detached copy of the clock instead: detach, then the all-up signature
  // must match the original cached entry again).
  service.attach_faults(nullptr);
  (void)service.locate(users, cells, rng);
  EXPECT_EQ(service.plan_cache_stats().misses, 2u);
  EXPECT_EQ(service.plan_cache_stats().hits, 2u);
}

TEST(PlanCache, BlanketPolicyBypassesTheCache) {
  SimConfig config = small_config();
  config.paging_policy = PagingPolicy::kBlanketArea;
  const SimReport report = run_simulation(config);
  EXPECT_EQ(report.plan_cache_hits + report.plan_cache_misses, 0u);
}

TEST(PlanCache, ChurningProfilesStayCorrect) {
  // kLastSeen advances the prediction horizon every tick, so signatures
  // churn; the bounded cache must keep returning correct (= uncached)
  // results while evicting.
  SimConfig on = small_config();
  on.profile_kind = ProfileKind::kLastSeen;
  SimConfig off = on;
  off.enable_plan_cache = false;
  expect_same_observables(run_simulation(on), run_simulation(off));
}

TEST(PlanCache, ServiceShapesInOneProcessDoNotShareDigests) {
  // Last-seen digests are keyed by (cell, steps), which only means
  // something within one grid, area layout, mobility model and horizon.
  // Three differently shaped scenarios served back to back in one
  // process, cache on (digest-signed) and off (never signed), must give
  // identical reports: a memo leaking across shapes would sign one
  // world's callees with another world's profiles and serve stale plans.
  const std::vector<Scenario> scenarios = {
      dense_urban_scenario(3), campus_scenario(3), highway_scenario(3)};
  std::vector<SimReport> cached;
  std::size_t hits = 0;
  for (const Scenario& scenario : scenarios) {
    SimConfig on = scenario.config;
    on.enable_plan_cache = true;
    cached.push_back(run_simulation(on));
    hits += cached.back().plan_cache_hits;
  }
  EXPECT_GT(hits, 0u);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    SimConfig off = scenarios[i].config;
    off.enable_plan_cache = false;
    SCOPED_TRACE(scenarios[i].name);
    expect_same_observables(cached[i], run_simulation(off));
    EXPECT_GT(cached[i].plan_cache_hits + cached[i].plan_cache_misses, 0u);
  }
}

TEST(PlanCache, LastSeenDigestMemoHoldsEachKeysRowDigest) {
  // Every (cell, steps) slot a serving service filled must hold exactly
  // the digest of the row that key names — the contract that lets a hit
  // sign from the memo instead of building the row.
  const GridTopology grid(4, 4, true, Neighborhood::kVonNeumann);
  const LocationAreas areas = LocationAreas::tiles(grid, 2, 2);
  const MarkovMobility mobility(grid, 0.4);
  LocationService::Config config;
  config.profile_kind = ProfileKind::kLastSeen;
  config.last_seen_horizon = 6;
  const SilenceModel silence{config.report_policy, config.distance_threshold,
                             0.0};
  SharedPlanTable shared(grid, areas, mobility, config.profile_kind,
                         config.last_seen_horizon, silence, /*capacity=*/64);
  config.shared_plan_table = &shared;
  LocationService service(grid, areas, mobility, config, {0, 5, 10, 15});

  // A locate re-registers every found callee, so waiting t ticks before
  // each call signs keys (cell, min(t, horizon)) for t = 0..8.
  prob::Rng rng(11);
  const UserId users[] = {0, 1, 2, 3};
  const CellId cells[] = {0, 5, 10, 15};
  for (std::size_t t = 0; t < 9; ++t) {
    for (std::size_t tick = 0; tick < t; ++tick) service.tick();
    (void)service.locate(users, cells, rng);
  }
  EXPECT_EQ(shared.digests->filled(), 4u * 7u);
  for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
    for (std::size_t steps = 0; steps <= config.last_seen_horizon; ++steps) {
      const std::uint64_t stored = shared.digests->find(cell, steps);
      if (stored == 0) continue;
      EXPECT_EQ(stored, profile_digest(last_seen_profile(
                            mobility, cell, steps,
                            areas.cells_in(areas.area_of(cell)), silence)))
          << "cell " << cell << " steps " << steps;
    }
  }
  EXPECT_THROW((void)shared.digests->find(0, config.last_seen_horizon + 1),
               std::invalid_argument);
  EXPECT_THROW((void)shared.digests->find(16, 0), std::invalid_argument);
}

TEST(PlanCache, SharedTableFromAnotherWorldIsRejected) {
  const GridTopology grid(4, 4, true, Neighborhood::kVonNeumann);
  const LocationAreas areas = LocationAreas::tiles(grid, 2, 2);
  const MarkovMobility mobility(grid, 0.4);
  const GridTopology other_grid(4, 4, true, Neighborhood::kVonNeumann);
  const LocationAreas other_areas = LocationAreas::tiles(grid, 2, 2);
  const MarkovMobility other_mobility(other_grid, 0.4);
  const std::vector<CellId> cells = {0, 5, 10};

  LocationService::Config config;
  const ProfileKind kind = config.profile_kind;  // kLastSeen
  const std::size_t horizon = config.last_seen_horizon;
  const SilenceModel silence{config.report_policy, config.distance_threshold,
                             0.0};
  SharedPlanTable matching(grid, areas, mobility, kind, horizon, silence, 64);
  config.shared_plan_table = &matching;
  EXPECT_NO_THROW(LocationService(grid, areas, mobility, config, cells));

  SharedPlanTable wrong_grid(other_grid, areas, other_mobility, kind,
                             horizon, silence, 64);
  SharedPlanTable wrong_areas(grid, other_areas, mobility, kind, horizon,
                              silence, 64);
  SharedPlanTable wrong_mobility(grid, areas, other_mobility, kind, horizon,
                                 silence, 64);
  SharedPlanTable wrong_horizon(grid, areas, mobility, kind, horizon + 1,
                                silence, 64);
  SilenceModel other_policy = silence;
  other_policy.policy = ReportPolicy::kOnCellCrossing;
  SharedPlanTable wrong_policy(grid, areas, mobility, kind, horizon,
                               other_policy, 64);
  SilenceModel other_threshold = silence;
  other_threshold.distance_threshold += 1;
  SharedPlanTable wrong_threshold(grid, areas, mobility, kind, horizon,
                                  other_threshold, 64);
  // No digest memo: a kLastSeen service would have nothing to sign from.
  SharedPlanTable no_memo(grid, areas, mobility, ProfileKind::kStationary,
                          horizon, silence, 64);
  for (SharedPlanTable* table :
       {&wrong_grid, &wrong_areas, &wrong_mobility, &wrong_horizon,
        &wrong_policy, &wrong_threshold, &no_memo}) {
    config.shared_plan_table = table;
    EXPECT_THROW(LocationService(grid, areas, mobility, config, cells),
                 std::invalid_argument);
  }

  // A memo-free kind checks only the row width: rows built for 1-cell
  // areas cannot hold a plan over this world's 4-cell areas.
  config.profile_kind = ProfileKind::kStationary;
  SharedPlanTable same_width(grid, areas, mobility, config.profile_kind,
                             horizon, silence, 64);
  SharedPlanTable narrow_rows(grid, LocationAreas::tiles(grid, 1, 1),
                              mobility, config.profile_kind, horizon, silence,
                              64);
  config.shared_plan_table = &same_width;
  EXPECT_NO_THROW(LocationService(grid, areas, mobility, config, cells));
  config.shared_plan_table = &narrow_rows;
  EXPECT_THROW(LocationService(grid, areas, mobility, config, cells),
               std::invalid_argument);
}

TEST(PlanCache, SharedTableFixesTheReportLossRate) {
  // A shared memo's rows assume one report-loss rate: a service adopts it
  // at construction, accepts a fault plan of that rate and refuses any
  // other. A private table's memo follows the attached plan instead.
  const GridTopology grid(4, 4, true, Neighborhood::kVonNeumann);
  const LocationAreas areas = LocationAreas::tiles(grid, 2, 2);
  const MarkovMobility mobility(grid, 0.4);
  const std::vector<CellId> cells = {0, 5, 10};
  LocationService::Config config;
  const SilenceModel lossy{config.report_policy, config.distance_threshold,
                           0.3};
  SharedPlanTable shared(grid, areas, mobility, config.profile_kind,
                         config.last_seen_horizon, lossy, 64);
  config.shared_plan_table = &shared;
  LocationService service(grid, areas, mobility, config, cells);
  FaultConfig matching;
  matching.report_loss_rate = 0.3;
  FaultConfig other;
  other.report_loss_rate = 0.1;
  FaultPlan matching_plan(matching, grid.num_cells());
  FaultPlan other_plan(other, grid.num_cells());
  EXPECT_THROW(service.attach_faults(&other_plan), std::invalid_argument);
  EXPECT_THROW(service.attach_faults(nullptr), std::invalid_argument);
  EXPECT_NO_THROW(service.attach_faults(&matching_plan));

  config.shared_plan_table = nullptr;
  LocationService alone(grid, areas, mobility, config, cells);
  prob::Rng rng(3);
  const UserId users[] = {0, 1, 2};
  const auto call_three_steps_later = [&] {
    for (int t = 0; t < 3; ++t) alone.tick();
    (void)alone.locate(users, cells, rng);
  };
  call_three_steps_later();
  call_three_steps_later();  // the same keys: every area hits
  const LocationService::PlanCacheStats before = alone.plan_cache_stats();
  EXPECT_EQ(before.hits, before.misses);
  alone.attach_faults(&other_plan);
  call_three_steps_later();  // rows of the new rate sign anew: misses
  EXPECT_EQ(alone.plan_cache_stats().misses, 2 * before.misses);
  for (int t = 0; t < 3; ++t) alone.tick();
  for (UserId user = 0; user < 3; ++user) {
    const CellId cell = cells[user];
    EXPECT_EQ(alone.profile_for(user, areas.area_of(cell)),
              last_seen_profile(mobility, cell, 3,
                                areas.cells_in(areas.area_of(cell)),
                                {config.report_policy,
                                 config.distance_threshold, 0.1}));
  }
}

TEST(SimBatch, BitIdenticalAcrossThreadCounts) {
  const SimConfig base = small_config();
  const SimBatchReport one = run_simulation_batch(base, 5, 1);
  const SimBatchReport two = run_simulation_batch(base, 5, 2);
  const SimBatchReport eight = run_simulation_batch(base, 5, 8);

  ASSERT_EQ(one.runs.size(), 5u);
  for (std::size_t r = 0; r < 5; ++r) {
    expect_same_observables(one.runs[r], two.runs[r]);
    expect_same_observables(one.runs[r], eight.runs[r]);
  }
  expect_same_observables(one.aggregate, two.aggregate);
  expect_same_observables(one.aggregate, eight.aggregate);
  EXPECT_EQ(one.aggregate.plan_cache_hits, eight.aggregate.plan_cache_hits);
}

TEST(SimBatch, ReplicationsAreIndependentButDeterministic) {
  const SimConfig base = small_config();
  const SimBatchReport batch = run_simulation_batch(base, 3, 2);
  EXPECT_EQ(batch.replications, 3u);
  // Substream reseeding: replications must not be copies of each other.
  EXPECT_FALSE(stats_equal(batch.runs[0].pages_per_call,
                           batch.runs[1].pages_per_call));
  // The aggregate is the in-order merge of the runs.
  SimReport manual;
  for (const SimReport& run : batch.runs) manual.merge(run);
  expect_same_observables(manual, batch.aggregate);
}

TEST(SimBatch, RejectsZeroReplications) {
  EXPECT_THROW(run_simulation_batch(small_config(), 0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace confcall::cellular
