// Tests for the ResilientPlanner fallback chain.
#include "core/resilient_planner.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "test_util.h"

namespace confcall::core {
namespace {

/// A tier that always fails with a configurable exception class.
class ThrowingPlanner final : public Planner {
 public:
  explicit ThrowingPlanner(bool runtime = false) : runtime_(runtime) {}
  [[nodiscard]] std::string name() const override { return "throwing"; }
  [[nodiscard]] Strategy plan(const Instance&, std::size_t) const override {
    if (runtime_) throw std::runtime_error("tier exploded");
    throw std::invalid_argument("tier rejected the instance");
  }

 private:
  bool runtime_;
};

/// A tier that answers correctly but only after busy-waiting, to drive
/// the wall-clock budget path deterministically.
class SlowPlanner final : public Planner {
 public:
  explicit SlowPlanner(double seconds) : seconds_(seconds) {}
  [[nodiscard]] std::string name() const override { return "slow"; }
  [[nodiscard]] Strategy plan(const Instance& instance,
                              std::size_t) const override {
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < seconds_) {
      // spin
    }
    return Strategy::blanket(instance.num_cells());
  }

 private:
  double seconds_;
};

std::vector<std::unique_ptr<Planner>> chain_of(
    std::unique_ptr<Planner> a, std::unique_ptr<Planner> b) {
  std::vector<std::unique_ptr<Planner>> chain;
  chain.push_back(std::move(a));
  chain.push_back(std::move(b));
  return chain;
}

TEST(ResilientPlanner, ConstructorValidates) {
  EXPECT_THROW(ResilientPlanner(std::vector<std::unique_ptr<Planner>>{}),
               std::invalid_argument);
  std::vector<std::unique_ptr<Planner>> with_null;
  with_null.push_back(nullptr);
  EXPECT_THROW(ResilientPlanner(std::move(with_null)),
               std::invalid_argument);
  std::vector<std::unique_ptr<Planner>> ok;
  ok.push_back(std::make_unique<BlanketPlanner>());
  EXPECT_THROW(ResilientPlanner(std::move(ok), {-1.0}),
               std::invalid_argument);
}

TEST(ResilientPlanner, StandardChainShapeAndName) {
  const auto planner = ResilientPlanner::standard();
  ASSERT_EQ(planner->num_tiers(), 3u);
  EXPECT_EQ(planner->tier(0).name(), "exact-typed");
  EXPECT_EQ(planner->tier(1).name(), "greedy-fig1");
  EXPECT_EQ(planner->tier(2).name(), "blanket");
  EXPECT_EQ(planner->name(), "resilient(exact-typed>greedy-fig1>blanket)");
}

TEST(ResilientPlanner, HealthyChainServesFromPreferredTier) {
  const Instance instance = Instance::uniform(2, 8);
  const auto planner = ResilientPlanner::standard();
  const Strategy s = planner->plan(instance, 3);
  EXPECT_EQ(planner->last_tier(), 0u);
  EXPECT_EQ(planner->failovers(), 0u);
  ASSERT_EQ(planner->served_counts().size(), 3u);
  EXPECT_EQ(planner->served_counts()[0], 1u);
  EXPECT_EQ(planner->served_counts()[1], 0u);
  // And the answer is exactly what the preferred tier alone would give.
  EXPECT_NEAR(expected_paging(instance, s),
              expected_paging(instance, TypedExactPlanner().plan(instance, 3)),
              1e-12);
}

TEST(ResilientPlanner, InvalidArgumentDegradesToNextTier) {
  const Instance instance = testing::mixed_instance(2, 6, 3);
  const ResilientPlanner planner(chain_of(
      std::make_unique<ThrowingPlanner>(), std::make_unique<GreedyPlanner>()));
  const Strategy s = planner.plan(instance, 2);
  EXPECT_EQ(planner.last_tier(), 1u);
  EXPECT_EQ(planner.failovers(), 1u);
  EXPECT_EQ(planner.served_counts()[1], 1u);
  EXPECT_EQ(s, GreedyPlanner().plan(instance, 2));
}

TEST(ResilientPlanner, RuntimeErrorAlsoDegrades) {
  const Instance instance = Instance::uniform(1, 5);
  const ResilientPlanner planner(
      chain_of(std::make_unique<ThrowingPlanner>(/*runtime=*/true),
               std::make_unique<BlanketPlanner>()));
  const Strategy s = planner.plan(instance, 2);
  EXPECT_EQ(planner.last_tier(), 1u);
  EXPECT_EQ(s.num_rounds(), 1u);
  EXPECT_EQ(s.group(0).size(), 5u);
}

TEST(ResilientPlanner, NodeLimitOverrunDegradesRealExactTier) {
  // A starved typed-exact tier rejects any non-trivial instance; the
  // chain must absorb that and serve from the greedy tier.
  const Instance instance = testing::mixed_instance(3, 9, 4);
  const ResilientPlanner planner(
      chain_of(std::make_unique<TypedExactPlanner>(Objective::all_of(),
                                                   /*node_limit=*/1),
               std::make_unique<GreedyPlanner>()));
  const Strategy s = planner.plan(instance, 3);
  EXPECT_EQ(planner.last_tier(), 1u);
  EXPECT_GE(planner.failovers(), 1u);
  EXPECT_EQ(s, GreedyPlanner().plan(instance, 3));
}

TEST(ResilientPlanner, BlownBudgetSkipsToFinalTier) {
  // Tier 0 answers, but after the 1 ms budget: its (valid) result must
  // be discarded and the final safety-net tier serves instead.
  const Instance instance = Instance::uniform(2, 7);
  const ResilientPlanner planner(
      chain_of(std::make_unique<SlowPlanner>(/*seconds=*/0.05),
               std::make_unique<BlanketPlanner>()),
      {/*time_limit_seconds=*/0.001});
  const Strategy s = planner.plan(instance, 2);
  EXPECT_EQ(planner.last_tier(), 1u);
  EXPECT_EQ(planner.failovers(), 1u);
  EXPECT_EQ(s.group(0).size(), 7u);
}

TEST(ResilientPlanner, FinalTierRunsEvenWhenBudgetAlreadyBlown) {
  // Both tiers are slow, but the final tier is exempt from the budget:
  // the caller always gets an answer.
  const Instance instance = Instance::uniform(1, 4);
  const ResilientPlanner planner(
      chain_of(std::make_unique<SlowPlanner>(0.01),
               std::make_unique<SlowPlanner>(0.01)),
      {0.001});
  const Strategy s = planner.plan(instance, 2);
  EXPECT_EQ(planner.last_tier(), 1u);
  EXPECT_EQ(s.group(0).size(), 4u);
}

TEST(ResilientPlanner, AllTiersFailingRethrowsLastError) {
  const Instance instance = Instance::uniform(1, 3);
  const ResilientPlanner planner(
      chain_of(std::make_unique<ThrowingPlanner>(),
               std::make_unique<ThrowingPlanner>(/*runtime=*/true)));
  EXPECT_THROW(planner.plan(instance, 2), std::runtime_error);
  EXPECT_EQ(planner.failovers(), 2u);
}

TEST(ResilientPlanner, ServedCountsAccumulateAcrossCalls) {
  const Instance easy = Instance::uniform(2, 6);
  const auto planner = ResilientPlanner::standard();
  for (int call = 0; call < 5; ++call) {
    (void)planner->plan(easy, 2);
  }
  EXPECT_EQ(planner->served_counts()[0], 5u);
  EXPECT_EQ(planner->failovers(), 0u);
}

/// Fails its first `failures` calls, then serves blanket strategies —
/// the shape that exercises breaker trip + half-open recovery.
class FlakyPlanner final : public Planner {
 public:
  explicit FlakyPlanner(int failures) : failures_left_(failures) {}
  [[nodiscard]] std::string name() const override { return "flaky"; }
  [[nodiscard]] Strategy plan(const Instance& instance,
                              std::size_t) const override {
    if (failures_left_ > 0) {
      --failures_left_;
      throw std::invalid_argument("flaky tier still warming up");
    }
    return Strategy::blanket(instance.num_cells());
  }

 private:
  mutable int failures_left_;
};

support::CircuitBreakerOptions fast_breaker() {
  support::CircuitBreakerOptions options;
  options.cooldown_ns = 1'000;
  return options;
}

constexpr std::size_t kTripCalls = support::CircuitBreaker::kMinSamples;

TEST(ResilientPlanner, BreakerOpensAndSkipsRepeatedlyFailingTier) {
  const Instance instance = Instance::uniform(1, 4);
  const support::ManualClock clock;
  const ResilientPlanner planner(
      chain_of(std::make_unique<ThrowingPlanner>(),
               std::make_unique<BlanketPlanner>()),
      {0.0}, clock, fast_breaker());
  // kMinSamples failing calls fill the window enough to trip it...
  for (std::size_t i = 0; i < kTripCalls; ++i) (void)planner.plan(instance, 2);
  EXPECT_EQ(planner.breaker(0).state(),
            support::CircuitBreaker::State::kOpen);
  EXPECT_EQ(planner.breaker_trips(), 1u);
  EXPECT_EQ(planner.breaker_skips(), 0u);
  // ...so the next call skips tier 0 outright (no attempt, no trip).
  (void)planner.plan(instance, 2);
  EXPECT_EQ(planner.breaker_skips(), 1u);
  EXPECT_EQ(planner.breaker_trips(), 1u);
  EXPECT_EQ(planner.served_counts()[1], kTripCalls + 1);
}

TEST(ResilientPlanner, HalfOpenProbeRestoresRecoveredTier) {
  const Instance instance = Instance::uniform(1, 4);
  support::ManualClock clock;
  const ResilientPlanner planner(
      chain_of(std::make_unique<FlakyPlanner>(static_cast<int>(kTripCalls)),
               std::make_unique<BlanketPlanner>()),
      {0.0}, clock, fast_breaker());
  // The last of its failures trips the breaker.
  for (std::size_t i = 0; i < kTripCalls; ++i) (void)planner.plan(instance, 2);
  ASSERT_EQ(planner.breaker(0).state(),
            support::CircuitBreaker::State::kOpen);
  clock.advance(1'000);  // cooldown elapses on the virtual clock
  // The next call is the half-open probe; the tier has recovered, so the
  // probe succeeds, the breaker closes, and tier 0 serves again.
  (void)planner.plan(instance, 2);
  EXPECT_EQ(planner.breaker(0).state(),
            support::CircuitBreaker::State::kClosed);
  EXPECT_EQ(planner.last_tier(), 0u);
  (void)planner.plan(instance, 2);
  EXPECT_EQ(planner.served_counts()[0], 2u);
  EXPECT_EQ(planner.breaker_skips(), 0u);
}

TEST(ResilientPlanner, ExpiredDeadlineSkipsStraightToFinalTier) {
  const Instance instance = Instance::uniform(2, 6);
  support::ManualClock clock;
  const ResilientPlanner planner(
      chain_of(std::make_unique<TypedExactPlanner>(),
               std::make_unique<BlanketPlanner>()),
      {0.0}, clock, fast_breaker());
  const support::Deadline deadline = support::Deadline::after(10, clock);
  clock.advance(11);
  const Strategy s = planner.plan(instance, 2, deadline);
  EXPECT_EQ(planner.last_tier(), 1u);
  EXPECT_EQ(s.group(0).size(), 6u);
  // A deadline skip is not the tier's fault: its breaker saw nothing.
  EXPECT_EQ(planner.breaker(0).state(),
            support::CircuitBreaker::State::kClosed);
  EXPECT_EQ(planner.breaker_skips(), 0u);
  EXPECT_EQ(planner.failovers(), 1u);
  // With time on the clock, the same deadline value is honoured as live.
  const support::Deadline fresh = support::Deadline::after(1'000'000, clock);
  (void)planner.plan(instance, 2, fresh);
  EXPECT_EQ(planner.last_tier(), 0u);
}

TEST(ResilientPlanner, SharedAcrossThreadsCountsEveryCall) {
  // The header promises one planner may serve concurrent callers; the
  // atomic counters must not lose increments.
  const Instance instance = Instance::uniform(2, 6);
  const auto planner = ResilientPlanner::standard();
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int call = 0; call < kCallsPerThread; ++call) {
        (void)planner->plan(instance, 2);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  std::uint64_t total = 0;
  for (const std::uint64_t count : planner->served_counts()) total += count;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads * kCallsPerThread));
  EXPECT_EQ(planner->failovers(), 0u);
}

}  // namespace
}  // namespace confcall::core
