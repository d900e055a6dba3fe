// ServiceFleet (cellular/service_fleet.h) and the fleet substrate
// (support/fleet.h): routing determinism across shard counts, per-shard
// task accounting, the bounded CLOCK signature table, and fleet-wide
// checkpointing. Every TEST name starts with "Fleet" so
// the sanitizer CI rows can select the concurrency storm with
// --gtest_filter=Fleet*.
#include "cellular/service_fleet.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cellular/service.h"
#include "cellular/topology.h"
#include "cellular/workload.h"
#include "core/planner.h"
#include "core/resilient_planner.h"
#include "prob/rng.h"
#include "support/fleet.h"
#include "support/metrics.h"
#include "support/state_io.h"
#include "support/trace.h"

namespace confcall::cellular {
namespace {

// ---- support::SignatureTable ------------------------------------------

/// A `bytes`-long row whose every byte derives from `signature` and
/// `salt`, so a reader can tell whose row it holds and whether it is
/// whole.
std::vector<std::byte> row_of(std::uint64_t signature, std::size_t bytes,
                              std::uint64_t salt = 0) {
  std::vector<std::byte> row(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    const std::uint64_t mixed = (signature + salt) * 0x9E3779B97F4A7C15ULL +
                                i * 0xBF58476D1CE4E5B9ULL;
    row[i] = static_cast<std::byte>(mixed >> 56);
  }
  return row;
}

TEST(FleetSignatureTable, InsertOnceFirstWriterWins) {
  support::SignatureTable table(/*capacity=*/16, /*row_bytes=*/5);
  EXPECT_EQ(table.capacity(), 16u);
  EXPECT_EQ(table.slab_bytes(), 16u * 5u);
  EXPECT_TRUE(table.insert(7, row_of(7, 5, 1)));
  EXPECT_FALSE(table.insert(7, row_of(7, 5, 2)));  // present: not replaced
  std::vector<std::byte> out(5);
  ASSERT_TRUE(table.lookup(7, out));
  EXPECT_EQ(out, row_of(7, 5, 1));
  EXPECT_FALSE(table.lookup(8, out));
  EXPECT_EQ(out, row_of(7, 5, 1));  // a miss leaves the caller's row be
  const auto stats = table.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(FleetSignatureTable, InsertsCountOnlyLandedInserts) {
  // stats() moves only when an insert lands, which inserts() counts: a
  // reader that saw it unchanged may skip the stripe sweep.
  support::SignatureTable table(/*capacity=*/8, /*row_bytes=*/3);
  EXPECT_EQ(table.inserts(), 0u);
  EXPECT_TRUE(table.insert(1, row_of(1, 3)));
  EXPECT_FALSE(table.insert(1, row_of(1, 3)));  // resident: not landed
  EXPECT_EQ(table.inserts(), 1u);
  std::vector<std::byte> out(3);
  EXPECT_TRUE(table.lookup(1, out));
  EXPECT_EQ(table.inserts(), 1u);
  for (std::uint64_t signature = 2; signature < 40; ++signature) {
    EXPECT_TRUE(table.insert(signature, row_of(signature, 3)));
  }
  const auto stats = table.stats();
  EXPECT_EQ(table.inserts(), stats.entries + stats.evictions);
}

TEST(FleetSignatureTable, RejectsRowsOfTheWrongWidth) {
  EXPECT_THROW(support::SignatureTable(8, 0), std::invalid_argument);
  support::SignatureTable table(/*capacity=*/8, /*row_bytes=*/4);
  std::vector<std::byte> short_row(3);
  EXPECT_THROW((void)table.insert(1, short_row), std::invalid_argument);
  EXPECT_THROW((void)table.lookup(1, short_row), std::invalid_argument);
}

TEST(FleetSignatureTable, ClockEvictsAnEntryNotHitSinceTheLastSweep) {
  // Capacity 16 is two 8-way sets; a signature picks set signature % 2,
  // so the even signatures 0, 2, ..., 14 fill set 0 and 16 must evict
  // from it while set 1 stays empty.
  constexpr std::size_t kRow = 3;
  support::SignatureTable table(/*capacity=*/16, kRow);
  ASSERT_EQ(table.capacity(), 2 * support::SignatureTable::kWays);
  for (std::uint64_t sig = 0; sig < 16; sig += 2) {
    ASSERT_TRUE(table.insert(sig, row_of(sig, kRow)));
  }
  std::vector<std::byte> out(kRow);
  // Referenced since the last sweep: ways 0 and 1 (signatures 0 and 2).
  ASSERT_TRUE(table.lookup(0, out));
  ASSERT_TRUE(table.lookup(2, out));
  ASSERT_TRUE(table.insert(16, row_of(16, kRow)));
  EXPECT_TRUE(table.lookup(0, out));
  EXPECT_TRUE(table.lookup(2, out));
  EXPECT_FALSE(table.lookup(4, out));  // the first unreferenced way went
  EXPECT_TRUE(table.lookup(16, out));
  EXPECT_EQ(out, row_of(16, kRow));
  // The hand rests past the victim, on way 3 (signature 6), which was
  // never looked up: the next insert takes it although ways 0-2 were.
  ASSERT_TRUE(table.insert(18, row_of(18, kRow)));
  EXPECT_FALSE(table.lookup(6, out));
  EXPECT_TRUE(table.lookup(8, out));
  const auto stats = table.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 8u);
  // The other set never filled, so nothing in it was evicted.
  ASSERT_TRUE(table.insert(1, row_of(1, kRow)));
  EXPECT_EQ(table.stats().evictions, 2u);
  EXPECT_EQ(table.stats().entries, 9u);
}

TEST(FleetSignatureTable, InsertStormNeverExceedsCapacity) {
  // 8 threads insert distinct signatures into every set at once. Each
  // set owns a fixed run of ways in the slab, so no interleaving of
  // inserts can push the table past its capacity.
  support::SignatureTable table(/*capacity=*/64, /*row_bytes=*/8);
  constexpr std::uint64_t kThreads = 8;
  constexpr std::uint64_t kInserts = 500;
  std::atomic<bool> overshoot{false};
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kInserts; ++i) {
        const std::uint64_t sig = t * kInserts + i;
        (void)table.insert(sig, row_of(sig, table.row_bytes()));
        if (table.stats().entries > table.capacity()) overshoot = true;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(overshoot.load());
  const auto stats = table.stats();
  EXPECT_EQ(stats.entries, table.capacity());
  EXPECT_EQ(stats.evictions, kThreads * kInserts - table.capacity());
}

TEST(FleetSignatureTable, ReadersNeverSeeATornRow) {
  // Writers publish rows whose every byte derives from the signature
  // while readers look the same signatures up; a small table keeps every
  // set evicting, so rows are overwritten under the readers all along.
  // Every hit must hold exactly its own signature's row.
  constexpr std::size_t kRow = 41;
  constexpr std::uint64_t kSignatures = 512;
  support::SignatureTable table(/*capacity=*/64, kRow);
  for (std::uint64_t sig = 0; sig < 64; ++sig) {
    (void)table.insert(sig, row_of(sig, kRow));
  }
  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {  // writers
      for (std::uint64_t i = 0; i < 2000; ++i) {
        const std::uint64_t sig = (i * 7 + t * 131) % kSignatures;
        (void)table.insert(sig, row_of(sig, kRow));
      }
    });
    threads.emplace_back([&, t] {  // readers
      std::vector<std::byte> out(kRow);
      for (std::uint64_t i = 0; i < 2000; ++i) {
        const std::uint64_t sig = (i * 13 + t * 71) % kSignatures;
        if (!table.lookup(sig, out)) continue;
        hits.fetch_add(1, std::memory_order_relaxed);
        if (out != row_of(sig, kRow)) torn = true;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(torn.load());
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GT(table.stats().evictions, 0u);
}

// ---- ServiceFleet -----------------------------------------------------

struct FleetWorld {
  GridTopology grid{12, 12, true, Neighborhood::kVonNeumann};
  LocationAreas areas = LocationAreas::tiles(grid, 3, 3);
  MarkovMobility mobility{grid, 0.9};
  std::vector<CellId> initial_cells;

  FleetWorld() {
    prob::Rng rng(99);
    initial_cells.resize(64);
    for (auto& cell : initial_cells) {
      cell = static_cast<CellId>(rng.next_below(grid.num_cells()));
    }
  }

  static LocationService::Config service_config() {
    LocationService::Config config;
    config.profile_kind = ProfileKind::kStationary;
    config.max_paging_rounds = 3;
    config.enable_plan_cache = true;
    return config;
  }

  [[nodiscard]] ServiceFleet make_fleet(std::size_t num_shards,
                                        std::size_t num_areas = 6,
                                        FaultConfig faults = {}) const {
    FleetConfig config;
    config.num_shards = num_shards;
    config.num_areas = num_areas;
    config.seed = 7;
    config.faults = faults;
    return ServiceFleet(grid, areas, mobility, service_config(),
                        initial_cells, config);
  }
};

/// One deterministic mixed drive: steps interleaved with locate batches
/// spread over every area. Returns every outcome in request order.
std::vector<LocationService::LocateOutcome> drive(ServiceFleet& fleet,
                                                  std::size_t n_batches) {
  prob::Rng fixture_rng(4242);
  std::vector<LocationService::LocateOutcome> all;
  for (std::size_t b = 0; b < n_batches; ++b) {
    fleet.step_all();
    std::vector<ServiceFleet::Request> batch(fleet.num_areas() * 2);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].area = i % fleet.num_areas();
      for (std::size_t k = 0; k < 3; ++k) {
        batch[i].users.push_back(static_cast<UserId>(
            k * 16 + fixture_rng.next_below(16)));
      }
    }
    const auto outcomes = fleet.locate_many(batch);
    all.insert(all.end(), outcomes.begin(), outcomes.end());
  }
  return all;
}

std::string save_bytes(const ServiceFleet& fleet) {
  support::StateBundle bundle;
  fleet.add_state_sections(bundle);
  return bundle.serialize();
}

TEST(Fleet, ResultsIdenticalAcrossShardCounts) {
  // Fault-free, and under degraded-urban's fault mix: each area's fault
  // plan draws from its own stream, so faults reshard as cleanly as
  // mobility does.
  const FleetWorld world;
  const FaultConfig faulted = degraded_urban_scenario().config.faults;
  for (const FaultConfig& faults : {FaultConfig{}, faulted}) {
    ServiceFleet reference = world.make_fleet(1, 6, faults);
    const auto reference_outcomes = drive(reference, 6);
    const std::string reference_state = save_bytes(reference);
    for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
      ServiceFleet fleet = world.make_fleet(shards, 6, faults);
      const auto outcomes = drive(fleet, 6);
      EXPECT_TRUE(reference_outcomes == outcomes)
          << "outcomes diverged at " << shards << " shards";
      EXPECT_EQ(save_bytes(fleet), reference_state)
          << "state diverged at " << shards << " shards";
    }
    if (faults.any_enabled()) {
      std::size_t retries = 0;
      for (const auto& outcome : reference_outcomes) {
        retries += outcome.retries;
      }
      EXPECT_GT(retries, 0u) << "the fault path never fired";
    }
  }
}

TEST(Fleet, AreaMajorStepsMatchStepMajor) {
  // step_all(n) runs each area's n steps back to back in one dispatch;
  // n calls of step_all() run them one step at a time across all areas.
  // An area draws only from its own step substreams and fault plan, so
  // both orders must leave the same cells, serve the same next batch and
  // save the same bytes, at every shard count, with faults off and on.
  const FleetWorld world;
  const FaultConfig faulted = degraded_urban_scenario().config.faults;
  constexpr std::size_t kAreas = 6;
  constexpr std::size_t kSteps = 40;
  for (const FaultConfig& faults : {FaultConfig{}, faulted}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(testing::Message()
                   << shards << " shards, faults "
                   << (faults.any_enabled() ? "on" : "off"));
      ServiceFleet step_major = world.make_fleet(shards, kAreas, faults);
      ServiceFleet area_major = world.make_fleet(shards, kAreas, faults);
      const std::string cold = save_bytes(area_major);
      area_major.step_all(0);
      EXPECT_EQ(save_bytes(area_major), cold) << "step_all(0) moved state";

      for (std::size_t t = 0; t < kSteps; ++t) step_major.step_all();
      area_major.step_all(kSteps);
      std::size_t moved = 0;
      for (std::size_t area = 0; area < kAreas; ++area) {
        for (UserId user = 0; user < world.initial_cells.size(); ++user) {
          ASSERT_EQ(area_major.user_cell(area, user),
                    step_major.user_cell(area, user))
              << "area " << area << ", user " << user;
          if (step_major.user_cell(area, user) != world.initial_cells[user]) {
            ++moved;
          }
        }
      }
      EXPECT_GT(moved, 0u) << "nobody moved";
      const std::string stepped = save_bytes(area_major);
      EXPECT_NE(stepped, cold);
      EXPECT_EQ(stepped, save_bytes(step_major));
      area_major.step_all(0);
      EXPECT_EQ(save_bytes(area_major), stepped) << "step_all(0) moved state";

      std::vector<ServiceFleet::Request> batch(kAreas * 2);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].area = i % kAreas;
        batch[i].users = {static_cast<UserId>(i), static_cast<UserId>(i + 20),
                          static_cast<UserId>(i + 40)};
      }
      EXPECT_TRUE(area_major.locate_many(batch) ==
                  step_major.locate_many(batch));
      EXPECT_EQ(save_bytes(area_major), save_bytes(step_major));
    }
  }
}

TEST(Fleet, DispatchNeverRepinsTheCallingThread) {
  // pin_threads places the pool's helper threads, never the caller: it
  // runs area-tasks inline, and pinning it would confine the
  // daemon's step loop and HTTP loop to one core for good.
  cpu_set_t before;
  CPU_ZERO(&before);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(before), &before), 0);
  if (CPU_COUNT(&before) < 2) GTEST_SKIP() << "the process has one CPU";
  const FleetWorld world;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    FleetConfig config;
    config.num_shards = shards;
    config.num_areas = 4;
    config.seed = 7;
    config.pin_threads = true;
    ServiceFleet fleet(world.grid, world.areas, world.mobility,
                       FleetWorld::service_config(), world.initial_cells,
                       config);
    (void)drive(fleet, 2);
    cpu_set_t after;
    CPU_ZERO(&after);
    ASSERT_EQ(::sched_getaffinity(0, sizeof(after), &after), 0);
    EXPECT_TRUE(CPU_EQUAL(&before, &after))
        << "locate_many re-pinned its caller at " << shards << " shards";
  }
}

/// Greedy planning that records which threads planned while armed.
class RecordingPlanner final : public core::Planner {
 public:
  [[nodiscard]] std::string name() const override { return "recording"; }
  [[nodiscard]] core::Strategy plan(const core::Instance& instance,
                                    std::size_t num_rounds) const override {
    if (armed.load()) {
      const std::lock_guard<std::mutex> lock(mutex_);
      threads_.insert(std::this_thread::get_id());
    }
    return greedy_.plan(instance, num_rounds);
  }
  [[nodiscard]] std::set<std::thread::id> threads() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }

  std::atomic<bool> armed{false};

 private:
  core::GreedyPlanner greedy_;
  mutable std::mutex mutex_;
  mutable std::set<std::thread::id> threads_;
};

TEST(Fleet, SingleAreaDispatchRunsOnTheCaller) {
  // A 1-request batch is one area-task. At every shard count it runs on
  // the calling thread and is charged to its owning shard alone. A wider
  // batch charges each shard the area-tasks it owns: the per-dispatch
  // delta of confcall_fleet_tasks_total{shard} is the fan-out.
  const FleetWorld world;
  constexpr std::size_t kAreas = 6;
  constexpr std::size_t kDispatches = 60;
  std::vector<LocationService::LocateOutcome> reference_outcomes;
  std::string reference_state;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    RecordingPlanner planner;
    support::MetricRegistry registry;
    LocationService::Config service_config = FleetWorld::service_config();
    service_config.planner = &planner;
    FleetConfig config;
    config.num_shards = shards;
    config.num_areas = kAreas;
    config.seed = 7;
    config.registry = &registry;
    ServiceFleet fleet(world.grid, world.areas, world.mobility,
                       service_config, world.initial_cells, config);
    const support::Counter dispatches =
        registry.counter("confcall_fleet_dispatches_total", "");
    std::vector<support::Counter> tasks;
    for (std::size_t s = 0; s < shards; ++s) {
      const support::MetricLabels labels{{"shard", std::to_string(s)}};
      tasks.push_back(registry.counter("confcall_fleet_tasks_total", "",
                                       labels));
    }
    std::uint64_t tasks_run = 0;

    prob::Rng fixture_rng(4242);
    std::vector<LocationService::LocateOutcome> outcomes;
    for (std::size_t d = 0; d < kDispatches; ++d) {
      if (d % 5 == 0) fleet.step_all();
      std::vector<ServiceFleet::Request> batch(1);
      batch[0].area = fixture_rng.next_below(kAreas);
      for (std::size_t k = 0; k < 3; ++k) {
        batch[0].users.push_back(static_cast<UserId>(
            k * 16 + fixture_rng.next_below(16)));
      }
      const std::size_t owner = fleet.shard_of(batch[0].area);
      std::vector<std::uint64_t> tasks_before;
      for (const support::Counter& shard : tasks) {
        tasks_before.push_back(shard.value());
      }
      const std::uint64_t dispatches_before = dispatches.value();
      planner.armed.store(true);
      const auto answered = fleet.locate_many(batch);
      planner.armed.store(false);
      outcomes.insert(outcomes.end(), answered.begin(), answered.end());
      EXPECT_EQ(dispatches.value(), dispatches_before + 1);
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(tasks[s].value() - tasks_before[s], s == owner ? 1u : 0u)
            << "shard " << s << " at " << shards << " shards";
        tasks_run += tasks[s].value() - tasks_before[s];
      }
    }
    EXPECT_EQ(tasks_run, kDispatches);
    EXPECT_EQ(planner.threads(),
              std::set<std::thread::id>{std::this_thread::get_id()})
        << "a 1-task dispatch planned off the caller at " << shards
        << " shards";

    if (shards == 1) {
      reference_outcomes = outcomes;
      reference_state = save_bytes(fleet);
    } else {
      EXPECT_TRUE(reference_outcomes == outcomes)
          << "outcomes diverged at " << shards << " shards";
      EXPECT_EQ(save_bytes(fleet), reference_state)
          << "state diverged at " << shards << " shards";
    }
  }

  // 8 touched areas over 3 shards: shard s owns areas s, s + 3, s + 6,
  // so the dispatch charges 3/3/2 tasks, each to its owner. A later
  // 2-area batch on shard 0 alone charges 2/0/0.
  support::MetricRegistry registry;
  FleetConfig config;
  config.num_shards = 3;
  config.num_areas = 8;
  config.seed = 7;
  config.registry = &registry;
  ServiceFleet fleet(world.grid, world.areas, world.mobility,
                     FleetWorld::service_config(), world.initial_cells,
                     config);
  const auto shard_tasks = [&registry](std::size_t s) {
    return registry
        .counter("confcall_fleet_tasks_total", "",
                 {{"shard", std::to_string(s)}})
        .value();
  };
  // Dispatches one batch over `areas` and checks each shard's task delta
  // against `fanout` and its running total against `totals`.
  const auto dispatch = [&](std::initializer_list<std::size_t> areas,
                            std::initializer_list<std::uint64_t> fanout,
                            std::initializer_list<std::uint64_t> totals) {
    std::vector<std::uint64_t> before;
    for (std::size_t s = 0; s < 3; ++s) before.push_back(shard_tasks(s));
    std::vector<ServiceFleet::Request> batch;
    for (const std::size_t area : areas) {
      for (UserId user = 0; user < 2; ++user) {
        batch.push_back({.area = area, .users = {user, user + 16}});
      }
    }
    (void)fleet.locate_many(batch);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(shard_tasks(s) - before[s], fanout.begin()[s])
          << "shard " << s;
      EXPECT_EQ(shard_tasks(s), totals.begin()[s]) << "shard " << s;
    }
  };
  dispatch({0, 1, 2, 3, 4, 5, 6, 7}, {3, 3, 2}, {3, 3, 2});
  dispatch({3, 6}, {2, 0, 0}, {5, 3, 2});
  const support::RegistrySnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.sum_by("confcall_fleet_tasks_total").value().counter_value,
            10u);
  EXPECT_EQ(snap.find("confcall_fleet_dispatches_total")->counter_value, 2u);
}

/// Greedy planning that throws on its next plan once armed.
class ThrowingPlanner final : public core::Planner {
 public:
  [[nodiscard]] std::string name() const override { return "throwing"; }
  [[nodiscard]] core::Strategy plan(const core::Instance& instance,
                                    std::size_t num_rounds) const override {
    if (armed.exchange(false)) throw std::runtime_error("planner down");
    return greedy_.plan(instance, num_rounds);
  }

  mutable std::atomic<bool> armed{false};

 private:
  core::GreedyPlanner greedy_;
};

TEST(Fleet, TaskThatThrowsLeavesNoRequestsForTheNextDispatch) {
  // A task that throws part-way (here the planner) must not leave its
  // area's request group behind: the next dispatch would serve those
  // stale indices against a batch that no longer holds them.
  const FleetWorld world;
  ThrowingPlanner planner;
  support::MetricRegistry registry;
  LocationService::Config service_config = FleetWorld::service_config();
  service_config.planner = &planner;
  FleetConfig config;
  config.num_areas = 2;
  config.seed = 7;
  config.registry = &registry;
  ServiceFleet fleet(world.grid, world.areas, world.mobility, service_config,
                     world.initial_cells, config);
  const support::Counter calls = registry.counter(
      "confcall_locate_calls_total", "", {{"shard", "0"}});
  std::vector<ServiceFleet::Request> batch(2);
  batch[0].users = {1, 2, 3};
  batch[1].users = {4, 5};
  planner.armed.store(true);
  EXPECT_THROW((void)fleet.locate_many(batch), std::runtime_error);
  const std::uint64_t calls_before = calls.value();
  std::vector<ServiceFleet::Request> next(1);
  next[0].users = {6};
  EXPECT_EQ(fleet.locate_many(next).size(), 1u);
  EXPECT_EQ(calls.value(), calls_before + 1);
}

TEST(Fleet, RoutingMapIsAreaModuloShards) {
  const FleetWorld world;
  const ServiceFleet fleet = world.make_fleet(3, /*num_areas=*/7);
  for (std::size_t area = 0; area < fleet.num_areas(); ++area) {
    EXPECT_EQ(fleet.shard_of(area), area % 3);
  }
}

TEST(Fleet, SharedPlanTableAnswersAcrossAreas) {
  const FleetWorld world;
  // One shard: the dispatch order is sequential, so the hit accounting
  // is deterministic — area 0 plans and publishes, area 1's first plan
  // is answered from the table.
  ServiceFleet fleet = world.make_fleet(1, /*num_areas=*/2);
  std::vector<ServiceFleet::Request> batch(2);
  batch[0].area = 0;
  batch[0].users = {1, 2, 3};
  batch[1].area = 1;
  batch[1].users = {1, 2, 3};
  (void)fleet.locate_many(batch);
  EXPECT_GE(fleet.service(1).plan_cache_stats().hits, 1u);
  EXPECT_GE(fleet.shared_table().plans.stats().entries, 1u);
}

TEST(Fleet, SaveRestoreRoundTrip) {
  const FleetWorld world;
  ServiceFleet original = world.make_fleet(2);
  (void)drive(original, 4);
  support::StateBundle bundle;
  original.add_state_sections(bundle);

  ServiceFleet restored = world.make_fleet(2);
  ASSERT_TRUE(restored.restore_state_sections(bundle));
  EXPECT_EQ(save_bytes(restored), save_bytes(original));
  // And the restored fleet serves the exact future the original would.
  EXPECT_TRUE(drive(original, 2) == drive(restored, 2));
}

TEST(Fleet, RestoreIntoDifferentShardCount) {
  // Shards are execution, not state: a 1-shard checkpoint restores into
  // an 8-shard fleet and the served future is unchanged.
  const FleetWorld world;
  ServiceFleet original = world.make_fleet(1);
  (void)drive(original, 4);
  support::StateBundle bundle;
  original.add_state_sections(bundle);
  ServiceFleet wide = world.make_fleet(8);
  ASSERT_TRUE(wide.restore_state_sections(bundle));
  EXPECT_TRUE(drive(original, 2) == drive(wide, 2));
}

TEST(Fleet, RestoreIsAllOrNothing) {
  const FleetWorld world;
  ServiceFleet original = world.make_fleet(2);
  (void)drive(original, 2);
  support::StateBundle bundle;
  original.add_state_sections(bundle);

  // Drop one area's section: the whole restore must fail and leave the
  // target fleet exactly as it was (cold state, still serving).
  support::StateBundle missing_area;
  for (const support::StateSection& section : bundle.sections()) {
    if (section.name == ServiceFleet::area_section_name(1)) continue;
    missing_area.add(section.name, section.version, section.payload);
  }
  ServiceFleet target = world.make_fleet(2);
  const std::string before = save_bytes(target);
  EXPECT_FALSE(target.restore_state_sections(missing_area));
  EXPECT_EQ(save_bytes(target), before);

  // Master-section version skew: same verdict.
  support::StateBundle skewed;
  for (const support::StateSection& section : bundle.sections()) {
    const bool master = section.name == ServiceFleet::kStateSection;
    skewed.add(section.name,
               master ? ServiceFleet::kStateVersion + 1 : section.version,
               section.payload);
  }
  EXPECT_FALSE(target.restore_state_sections(skewed));
  EXPECT_EQ(save_bytes(target), before);

  // A truncated master payload: rejected as a format error, not a crash.
  support::StateBundle truncated;
  for (const support::StateSection& section : bundle.sections()) {
    const bool master = section.name == ServiceFleet::kStateSection;
    truncated.add(section.name, section.version,
                  master ? section.payload.substr(0, 8) : section.payload);
  }
  EXPECT_FALSE(target.restore_state_sections(truncated));
  EXPECT_EQ(save_bytes(target), before);
}

TEST(Fleet, RejectsInvalidConfigAndRequests) {
  const FleetWorld world;
  FleetConfig zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_THROW(ServiceFleet(world.grid, world.areas, world.mobility,
                            FleetWorld::service_config(),
                            world.initial_cells, zero_shards),
               std::invalid_argument);
  FleetConfig zero_areas;
  zero_areas.num_areas = 0;
  EXPECT_THROW(ServiceFleet(world.grid, world.areas, world.mobility,
                            FleetWorld::service_config(),
                            world.initial_cells, zero_areas),
               std::invalid_argument);

  ServiceFleet fleet = world.make_fleet(2, /*num_areas=*/4);
  std::vector<ServiceFleet::Request> bad_area(1);
  bad_area[0].area = 4;  // num_areas = 4: out of range
  bad_area[0].users = {1};
  EXPECT_THROW((void)fleet.locate_many(bad_area), std::invalid_argument);
  std::vector<ServiceFleet::Request> bad_user(1);
  bad_user[0].users = {static_cast<UserId>(fleet.num_users())};
  EXPECT_THROW((void)fleet.locate_many(bad_user), std::invalid_argument);

  // The whole batch is checked before any of it is served: a valid call
  // ahead of an invalid one in the same area must not be served either,
  // so the area's call counter and the checkpoint stay where they were.
  const std::string before = save_bytes(fleet);
  std::vector<ServiceFleet::Request> valid_then_empty(2);
  valid_then_empty[0].area = 1;
  valid_then_empty[0].users = {1, 2};
  valid_then_empty[1].area = 1;  // no users
  EXPECT_THROW((void)fleet.locate_many(valid_then_empty),
               std::invalid_argument);
  EXPECT_EQ(save_bytes(fleet), before);
}

TEST(Fleet, ConcurrentLocateStormIsRaceFreeAndDeterministic) {
  // The TSan row: 8 pool threads over 16 areas and repeated wide
  // dispatches — maximal concurrent traffic through the pool, the shared
  // signature table and the per-area services. Results must still match
  // the 1-shard run.
  const FleetWorld world;
  support::MetricRegistry registry;
  FleetConfig config;
  config.num_shards = 8;
  config.num_areas = 16;
  config.seed = 7;
  config.registry = &registry;
  ServiceFleet wide(world.grid, world.areas, world.mobility,
                    FleetWorld::service_config(), world.initial_cells,
                    config);
  ServiceFleet narrow = world.make_fleet(1, /*num_areas=*/16);
  const auto wide_outcomes = drive(wide, 8);
  const auto narrow_outcomes = drive(narrow, 8);
  EXPECT_TRUE(wide_outcomes == narrow_outcomes);
  EXPECT_EQ(save_bytes(wide), save_bytes(narrow));
  // Every batch touches all 16 areas: one task each.
  EXPECT_EQ(registry.snapshot()
                .sum_by("confcall_fleet_tasks_total")
                .value()
                .counter_value,
            8u * 16u);
}

TEST(Fleet, ColdDigestAndPlanTableFillRaceIsDeterministic) {
  // The digest-memo TSan row: under kLastSeen every area signs its
  // callees from ONE fleet-wide last-seen digest array and publishes to
  // ONE shared plan table. 8 pool threads over 16 areas start cold, so
  // threads race to fill the same digest slots and table entries.
  // Outcomes, checkpoint bytes and the set of filled keys must match the
  // 1-shard run.
  const FleetWorld world;
  LocationService::Config last_seen = FleetWorld::service_config();
  last_seen.profile_kind = ProfileKind::kLastSeen;
  const auto make = [&](std::size_t shards) {
    FleetConfig config;
    config.num_shards = shards;
    config.num_areas = 16;
    config.seed = 7;
    return ServiceFleet(world.grid, world.areas, world.mobility, last_seen,
                        world.initial_cells, config);
  };
  ServiceFleet wide = make(8);
  ServiceFleet narrow = make(1);
  ASSERT_EQ(wide.shared_table().digests->filled(), 0u);
  const auto wide_outcomes = drive(wide, 8);
  const auto narrow_outcomes = drive(narrow, 8);
  EXPECT_TRUE(wide_outcomes == narrow_outcomes);
  EXPECT_EQ(save_bytes(wide), save_bytes(narrow));
  const SharedPlanTable& wide_table = wide.shared_table();
  const SharedPlanTable& narrow_table = narrow.shared_table();
  EXPECT_GT(wide_table.digests->filled(), 0u);
  EXPECT_EQ(wide_table.digests->filled(), narrow_table.digests->filled());
  EXPECT_EQ(wide_table.plans.stats().entries,
            narrow_table.plans.stats().entries);
  std::size_t narrow_hits = 0;
  for (std::size_t a = 0; a < narrow.num_areas(); ++a) {
    narrow_hits += narrow.service(a).plan_cache_stats().hits;
  }
  EXPECT_GT(narrow_hits, 0u);
}

TEST(Fleet, PlanTableEvictionStormMatchesOneShard) {
  // The eviction TSan row: 8 pool threads over 16 areas under kLastSeen,
  // in a world of ONE location area, so the fleet table holds
  // kPlansPerArea x 16 plans and the churning last-seen signatures
  // overflow it. Threads
  // race to look up, insert and evict in the same lock shards, and which
  // plans stay resident differs from the 1-shard run. Outcomes and
  // checkpoint bytes must not.
  const FleetWorld world;
  const LocationAreas one_area = LocationAreas::tiles(world.grid, 12, 12);
  LocationService::Config last_seen = FleetWorld::service_config();
  last_seen.profile_kind = ProfileKind::kLastSeen;
  const auto make = [&](std::size_t shards) {
    FleetConfig config;
    config.num_shards = shards;
    config.num_areas = 16;
    config.seed = 7;
    return ServiceFleet(world.grid, one_area, world.mobility, last_seen,
                        world.initial_cells, config);
  };
  ServiceFleet wide = make(8);
  ServiceFleet narrow = make(1);
  constexpr std::size_t kBatches = 24;
  const auto wide_outcomes = drive(wide, kBatches);
  const auto narrow_outcomes = drive(narrow, kBatches);
  EXPECT_TRUE(wide_outcomes == narrow_outcomes);
  EXPECT_EQ(save_bytes(wide), save_bytes(narrow));
  for (const ServiceFleet* fleet : {&wide, &narrow}) {
    const auto stats = fleet->shared_table().plans.stats();
    EXPECT_EQ(fleet->shared_table().plans.capacity(),
              SharedPlanTable::kPlansPerArea * 16u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.entries, fleet->shared_table().plans.capacity());
  }
}

TEST(Fleet, TracedConcurrentStormSamplesAndAnnotatesRaceFree) {
  // The tracing TSan row: ONE SamplingTracer shared by every thread while
  // 8 shards storm 16 areas — the sampling
  // counter, the span ring and histogram exemplar annotation all take
  // maximal concurrent traffic. Paging outcomes must still match the
  // untraced 1-shard run (tracing observes, never steers).
  const FleetWorld world;
  support::MetricRegistry registry;
  support::SamplingTracer tracer(2, 256);
  LocationService::Config traced = FleetWorld::service_config();
  traced.tracer = &tracer;
  FleetConfig config;
  config.num_shards = 8;
  config.num_areas = 16;
  config.seed = 7;
  config.registry = &registry;
  ServiceFleet wide(world.grid, world.areas, world.mobility, traced,
                    world.initial_cells, config);
  ServiceFleet narrow = world.make_fleet(1, /*num_areas=*/16);
  const auto wide_outcomes = drive(wide, 8);
  const auto narrow_outcomes = drive(narrow, 8);
  EXPECT_TRUE(wide_outcomes == narrow_outcomes);
  EXPECT_GT(tracer.roots_seen(), 0u);
  EXPECT_GT(tracer.roots_sampled(), 0u);
  EXPECT_LE(tracer.roots_sampled(), tracer.roots_seen());

  // Sampled tasks annotated the per-shard rounds family: the label-
  // summed view carries at least one live exemplar.
  const std::optional<support::MetricSnapshot> rounds =
      registry.snapshot().sum_by("confcall_locate_rounds");
  ASSERT_TRUE(rounds.has_value());
  bool any_exemplar = false;
  for (const support::Exemplar& exemplar : rounds->histogram.exemplars) {
    any_exemplar = any_exemplar || exemplar.valid();
  }
  EXPECT_TRUE(any_exemplar);
}

TEST(Fleet, SharedResilientPlannerAcrossLanesIsRaceFree) {
  // The daemon's wiring: ONE ResilientPlanner chain (exact -> greedy ->
  // blanket) serves every pool thread, so its breakers and tier counters
  // take concurrent traffic from 8 shards over 16 areas. Every planner
  // run must be counted by exactly one tier.
  const FleetWorld world;
  const std::unique_ptr<core::ResilientPlanner> planner =
      core::ResilientPlanner::standard();
  LocationService::Config service_config = FleetWorld::service_config();
  service_config.planner = planner.get();
  FleetConfig config;
  config.num_shards = 8;
  config.num_areas = 16;
  config.seed = 7;
  ServiceFleet fleet(world.grid, world.areas, world.mobility, service_config,
                     world.initial_cells, config);
  (void)drive(fleet, 8);
  std::uint64_t served = 0;
  for (const std::uint64_t count : planner->served_counts()) served += count;
  std::uint64_t planner_runs = 0;
  for (std::size_t area = 0; area < fleet.num_areas(); ++area) {
    planner_runs += fleet.service(area).plan_cache_stats().misses;
  }
  EXPECT_GT(planner_runs, 0u);
  EXPECT_EQ(served, planner_runs);
}

}  // namespace
}  // namespace confcall::cellular
