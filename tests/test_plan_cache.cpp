// Tests for the plan cache (cellular/service.h) and the batched
// parallel simulator (cellular/simulator.h, run_simulation_batch).
//
// The cache's contract is transparency: because the key is a content
// signature of everything the planner reads, a hit returns exactly the
// strategy a fresh plan would produce, so observable results must be
// identical with the cache on or off — only planning cost differs. The
// batch runner's contract is thread-count invariance via RNG substreams.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cellular/faults.h"
#include "cellular/profile.h"
#include "cellular/profile_digest.h"
#include "cellular/service.h"
#include "cellular/simulator.h"
#include "cellular/workload.h"
#include "prob/rng.h"

namespace confcall::cellular {
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
  SharedPlanTable shared(grid, areas, mobility, config.profile_kind,
                         config.last_seen_horizon, /*capacity=*/64);
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
                            areas.cells_in(areas.area_of(cell)))))
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
  SharedPlanTable matching(grid, areas, mobility, kind, horizon, 64);
  config.shared_plan_table = &matching;
  EXPECT_NO_THROW(LocationService(grid, areas, mobility, config, cells));

  SharedPlanTable wrong_grid(other_grid, areas, other_mobility, kind,
                             horizon, 64);
  SharedPlanTable wrong_areas(grid, other_areas, mobility, kind, horizon, 64);
  SharedPlanTable wrong_mobility(grid, areas, other_mobility, kind, horizon,
                                 64);
  SharedPlanTable wrong_horizon(grid, areas, mobility, kind, horizon + 1, 64);
  // No digest memo: a kLastSeen service would have nothing to sign from.
  SharedPlanTable no_memo(grid, areas, mobility, ProfileKind::kStationary,
                          horizon, 64);
  for (SharedPlanTable* table : {&wrong_grid, &wrong_areas, &wrong_mobility,
                                 &wrong_horizon, &no_memo}) {
    config.shared_plan_table = table;
    EXPECT_THROW(LocationService(grid, areas, mobility, config, cells),
                 std::invalid_argument);
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
