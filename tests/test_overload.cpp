// Unit tests for the overload-protection primitives (support/overload.h):
// Deadline propagation, CircuitBreaker state machine, AdmissionController
// token bucket + health hysteresis. Everything runs on a ManualClock, so
// every transition is deterministic.
#include "support/overload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/metrics.h"

namespace confcall::support {
namespace {

// ---------------------------------------------------------------- Deadline

TEST(Deadline, DefaultIsUnbounded) {
  const ManualClock clock(123);
  const Deadline deadline;
  EXPECT_TRUE(deadline.is_unbounded());
  EXPECT_FALSE(deadline.expired(clock));
  EXPECT_EQ(deadline.remaining_ns(clock), Deadline::kUnbounded);
  EXPECT_EQ(Deadline::unbounded().expiry_ns(), Deadline::kUnbounded);
}

TEST(Deadline, AfterExpiresExactlyOnTime) {
  ManualClock clock(1'000);
  const Deadline deadline = Deadline::after(500, clock);
  EXPECT_EQ(deadline.expiry_ns(), 1'500u);
  EXPECT_FALSE(deadline.expired(clock));
  EXPECT_EQ(deadline.remaining_ns(clock), 500u);
  clock.advance(499);
  EXPECT_FALSE(deadline.expired(clock));
  EXPECT_EQ(deadline.remaining_ns(clock), 1u);
  clock.advance(1);  // now == expiry: expired, nothing remains
  EXPECT_TRUE(deadline.expired(clock));
  EXPECT_EQ(deadline.remaining_ns(clock), 0u);
}

TEST(Deadline, AfterSaturatesInsteadOfWrapping) {
  const ManualClock clock(Deadline::kUnbounded - 10);
  const Deadline deadline = Deadline::after(100, clock);
  EXPECT_TRUE(deadline.is_unbounded());
}

TEST(Deadline, PropagatesByValueUnchanged) {
  // The point of absolute deadlines: every layer that copies the value
  // sees the SAME expiry, no matter how much time earlier layers burned.
  ManualClock clock(0);
  const Deadline arrival = Deadline::after(1'000, clock);
  clock.advance(600);             // upper layer burned 600ns
  const Deadline copied = arrival;  // passed down by value
  EXPECT_EQ(copied.remaining_ns(clock), 400u);
}

// ---------------------------------------------------------- CircuitBreaker

// The trip rule is fixed (CircuitBreaker::kWindow / kMinSamples /
// kFailureThreshold); only the cooldown is set, short for the tests.
CircuitBreakerOptions small_breaker() {
  CircuitBreakerOptions options;
  options.cooldown_ns = 1'000;
  return options;
}

// Records outcomes until the window holds kMinSamples of them, half
// failures: exactly the kFailureThreshold trip point.
void record_trip(CircuitBreaker& breaker) {
  for (std::size_t i = 0; i < CircuitBreaker::kMinSamples / 2; ++i) {
    breaker.record_success();
  }
  for (std::size_t i = 0; i < CircuitBreaker::kMinSamples / 2; ++i) {
    breaker.record_failure();
  }
}

TEST(CircuitBreaker, OptionsValidateRejectsNonsense) {
  CircuitBreakerOptions options;
  EXPECT_NO_THROW(options.validate());
  options.cooldown_ns = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST(CircuitBreaker, StaysClosedBelowMinSamples) {
  const ManualClock clock;
  CircuitBreaker breaker(small_breaker(), clock);
  // Every outcome failed, but the window holds one short of kMinSamples.
  for (std::size_t i = 0; i + 1 < CircuitBreaker::kMinSamples; ++i) {
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, TripsAtThresholdAndRejectsWhileOpen) {
  const ManualClock clock;
  CircuitBreaker breaker(small_breaker(), clock);
  breaker.record_success();
  breaker.record_success();
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kClosed);  // 1/3
  breaker.record_failure();  // 2/4 = 0.5 >= threshold, min_samples met
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow());
  EXPECT_FALSE(breaker.allow());
  EXPECT_EQ(breaker.rejections(), 2u);
}

TEST(CircuitBreaker, TripsCountOnceInTheRegistry) {
  // The registry series is the only count: trips() reads it back, and a
  // breaker without a registry counts into a private one.
  ManualClock clock;
  MetricRegistry registry;
  CircuitBreaker breaker(small_breaker(), clock, &registry, {{"tier", "0"}});
  record_trip(breaker);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  const RegistrySnapshot snapshot = registry.snapshot();
  const MetricSnapshot* trips =
      snapshot.find("confcall_planner_breaker_trips_total", {{"tier", "0"}});
  ASSERT_NE(trips, nullptr);
  EXPECT_EQ(trips->counter_value, 1u);
  EXPECT_EQ(breaker.trips(), 1u);
  clock.advance(small_breaker().cooldown_ns);
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();  // the probe fails: a second trip
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_EQ(registry.snapshot()
                .find("confcall_planner_breaker_trips_total", {{"tier", "0"}})
                ->counter_value,
            2u);
}

TEST(CircuitBreaker, SuccessesAloneNeverTrip) {
  const ManualClock clock;
  CircuitBreaker breaker(small_breaker(), clock);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(breaker.allow());
    breaker.record_success();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, HalfOpenProbeRecovers) {
  ManualClock clock;
  CircuitBreaker breaker(small_breaker(), clock);
  record_trip(breaker);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.advance(999);
  EXPECT_FALSE(breaker.allow());  // cooldown not elapsed
  clock.advance(1);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow());   // the probe slot
  EXPECT_FALSE(breaker.allow());  // only ONE probe until its outcome lands
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
  // The window was reset on close: one old failure must not re-trip.
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, FailedProbeReopensAndRestartsCooldown) {
  ManualClock clock;
  CircuitBreaker breaker(small_breaker(), clock);
  record_trip(breaker);
  clock.advance(1'000);
  ASSERT_TRUE(breaker.allow());  // probe
  breaker.record_failure();      // probe fails
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_FALSE(breaker.allow());
  clock.advance(1'000);  // full fresh cooldown required
  EXPECT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, SlidingWindowForgetsOldFailures) {
  const ManualClock clock;
  CircuitBreaker breaker(small_breaker(), clock);
  // One failure, then successes until it slides out of the full window.
  breaker.record_failure();
  for (std::size_t i = 0; i < CircuitBreaker::kWindow; ++i) {
    breaker.record_success();
  }
  // Half a window of fresh failures is the trip point; one short of it
  // would already trip if the ancient failure still counted.
  for (std::size_t i = 0; i + 1 < CircuitBreaker::kWindow / 2; ++i) {
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.record_failure();  // kWindow / 2 of kWindow = 0.5 -> trip
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

// ----------------------------------------------------- AdmissionController

AdmissionOptions small_bucket() {
  AdmissionOptions options;
  options.bucket_capacity = 10.0;
  options.refill_per_sec = 1.0;  // 1 token per virtual second
  options.degraded_below = 0.5;
  return options;
}

constexpr std::uint64_t kSecond = 1'000'000'000;

TEST(AdmissionController, OptionsValidateRejectsBrokenLadder) {
  AdmissionOptions options = small_bucket();
  options.bucket_capacity = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = small_bucket();
  options.refill_per_sec = -1.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = small_bucket();
  options.degraded_below = AdmissionController::kRecoverAbove - 0.01;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = small_bucket();
  options.degraded_below = AdmissionController::kHealthyAbove;
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST(AdmissionController, AdmitsWhileHealthyShedsWhenDrained) {
  const ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  EXPECT_EQ(admission.health(), Health::kHealthy);
  // Capacity 10, thresholds at fills 5 (degraded) and 1.5 (shed). The
  // health machine steps BEFORE the cost is consumed, so:
  //   fills seen: 10, 9, 8, 7, 6 -> healthy admits
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(admission.admit(1.0), AdmissionController::Decision::kAdmit);
  }
  //   fills seen: 5 (not < 5), 4, 3, 2 -> degraded admits
  EXPECT_EQ(admission.admit(1.0), AdmissionController::Decision::kAdmit);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(admission.admit(1.0),
              AdmissionController::Decision::kAdmitDegraded);
  }
  //   fill 1 < 1.5 -> shedding; sheds cost nothing, so it stays shedding
  EXPECT_EQ(admission.admit(1.0), AdmissionController::Decision::kShed);
  EXPECT_EQ(admission.admit(1.0), AdmissionController::Decision::kShed);
  EXPECT_EQ(admission.health(), Health::kShedding);
  EXPECT_EQ(admission.admitted(), 6u);
  EXPECT_EQ(admission.admitted_degraded(), 3u);
  EXPECT_EQ(admission.shed(), 2u);
}

TEST(AdmissionController, OversizedRequestIsShedEvenWhenHealthy) {
  const ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  EXPECT_EQ(admission.admit(11.0), AdmissionController::Decision::kShed);
  EXPECT_EQ(admission.health(), Health::kHealthy);  // bucket untouched
  EXPECT_DOUBLE_EQ(admission.tokens(), 10.0);
}

TEST(AdmissionController, RefillIsProportionalToElapsedTimeAndCapped) {
  ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  for (int i = 0; i < 8; ++i) (void)admission.admit(1.0);
  EXPECT_DOUBLE_EQ(admission.tokens(), 2.0);
  clock.advance(3 * kSecond);  // 1 token/sec
  EXPECT_DOUBLE_EQ(admission.tokens(), 5.0);
  clock.advance(1'000 * kSecond);
  EXPECT_DOUBLE_EQ(admission.tokens(), 10.0);  // capped at capacity
}

TEST(AdmissionController, RecoveryIsStepwiseNeverSheddingToHealthy) {
  ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  for (int i = 0; i < 10; ++i) (void)admission.admit(1.0);  // drains to 1
  ASSERT_EQ(admission.health(), Health::kShedding);
  // Refill past kRecoverAbove (3.5) but below kHealthyAbove (7.5): one
  // step up to degraded only.
  clock.advance(4 * kSecond);  // fill 1 -> 5
  EXPECT_EQ(admission.health(), Health::kDegraded);
  // Refill past kHealthyAbove: the second step completes recovery.
  clock.advance(5 * kSecond);  // fill -> 10
  EXPECT_EQ(admission.health(), Health::kHealthy);
}

TEST(AdmissionController, SheddingToHealthyFillStopsAtDegraded) {
  // Even a single refill that jumps the fill from empty to full must
  // pass through degraded — never shedding -> healthy in one admit().
  ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  for (int i = 0; i < 10; ++i) (void)admission.admit(1.0);
  ASSERT_EQ(admission.health(), Health::kShedding);
  clock.advance(100 * kSecond);  // fill -> capacity
  EXPECT_EQ(admission.health(), Health::kDegraded);
  EXPECT_EQ(admission.health(), Health::kHealthy);  // next observation
}

TEST(AdmissionController, HysteresisGapPreventsFlapping) {
  // Sit the fill between degraded_below (5) and kHealthyAbove (7.5):
  // a degraded controller must STAY degraded there, not flap.
  ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  for (int i = 0; i < 6; ++i) (void)admission.admit(1.0);  // fill 4
  ASSERT_EQ(admission.health(), Health::kDegraded);
  const std::uint64_t transitions = admission.health_transitions();
  clock.advance(2 * kSecond);  // fill 6: in the gap
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(admission.health(), Health::kDegraded);
  }
  EXPECT_EQ(admission.health_transitions(), transitions);
}

TEST(AdmissionController, TransitionsAreCounted) {
  ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  for (int i = 0; i < 10; ++i) (void)admission.admit(1.0);
  // healthy -> degraded -> shedding while draining.
  EXPECT_EQ(admission.health_transitions(), 2u);
  clock.advance(100 * kSecond);
  (void)admission.health();  // shedding -> degraded
  (void)admission.health();  // degraded -> healthy
  EXPECT_EQ(admission.health_transitions(), 4u);
}

TEST(AdmissionController, NonPositiveCostThrows) {
  const ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  EXPECT_THROW((void)admission.admit(0.0), std::invalid_argument);
  EXPECT_THROW((void)admission.admit(-1.0), std::invalid_argument);
}

// Edge case: every threshold comparison is STRICT, so a fill landing
// exactly on a boundary keeps the current state — the controller only
// moves when the fill is clearly past the line. This is what lets the
// SLO controller park degraded_below exactly at kRecoverAbove without
// perturbing a recovering bucket.
TEST(AdmissionController, ExactlyAtThresholdFillStaysPut) {
  ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  // Exactly at degraded_below (fill 5.0 of 10): still healthy.
  for (int i = 0; i < 5; ++i) (void)admission.admit(1.0);
  EXPECT_DOUBLE_EQ(admission.tokens(), 5.0);
  EXPECT_EQ(admission.health(), Health::kHealthy);
  // One token below the line: degraded.
  (void)admission.admit(1.0);
  EXPECT_EQ(admission.health(), Health::kDegraded);

  // Refill to exactly kHealthyAbove (7.5): still degraded (needs >).
  clock.advance(3'500'000'000);  // fill 4 -> 7.5 at 1 token/sec
  EXPECT_DOUBLE_EQ(admission.tokens(), 7.5);
  EXPECT_EQ(admission.health(), Health::kDegraded);
  clock.advance(500'000'000);  // 8.0 > 7.5: now healthy
  EXPECT_EQ(admission.health(), Health::kHealthy);

  // Drain to shedding, refill to exactly kRecoverAbove (3.5): still
  // shedding (needs >).
  for (int i = 0; i < 8; ++i) (void)admission.admit(1.0);
  ASSERT_EQ(admission.health(), Health::kShedding);
  EXPECT_DOUBLE_EQ(admission.tokens(), 1.0);
  clock.advance(2'500'000'000);  // fill 1.0 -> 3.5
  EXPECT_DOUBLE_EQ(admission.tokens(), 3.5);
  EXPECT_EQ(admission.health(), Health::kShedding);
  clock.advance(500'000'000);  // 4.0 > 3.5: one step up, to degraded
  EXPECT_EQ(admission.health(), Health::kDegraded);
}

// Edge case: after recovering to healthy, a fill that dips back into
// the hysteresis gap (degraded_below, kHealthyAbove] must NOT re-enter
// degraded — healthy only leaves below degraded_below. Together with
// HysteresisGapPreventsFlapping this pins both directions of the gap.
TEST(AdmissionController, ReentryIntoTheGapDoesNotFlapBack) {
  ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  for (int i = 0; i < 6; ++i) (void)admission.admit(1.0);  // fill 4
  ASSERT_EQ(admission.health(), Health::kDegraded);
  clock.advance(4'000'000'000);  // fill 8 > 7.5: recovered
  ASSERT_EQ(admission.health(), Health::kHealthy);
  const std::uint64_t transitions = admission.health_transitions();

  // Dip to fill 6 — inside the gap (5, 7.5]: stays healthy, no flap.
  (void)admission.admit(1.0);
  (void)admission.admit(1.0);
  EXPECT_DOUBLE_EQ(admission.tokens(), 6.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(admission.health(), Health::kHealthy);
  }
  EXPECT_EQ(admission.health_transitions(), transitions);
}

// Edge case: the tokens gauge must match tokens() on EVERY path that
// moves the bucket — admits, pure refills and the SLO controller's
// setters — across a full degraded -> healthy round trip. A gauge only
// updated on admit() would go stale the moment a setter refills.
TEST(AdmissionController, TokenGaugeConsistentAcrossDegradeRoundTrip) {
  ManualClock clock;
  MetricRegistry registry;
  AdmissionController admission(small_bucket(), clock, &registry);
  const auto gauge = [&registry] {
    return registry.snapshot().find("confcall_admission_tokens")
        ->gauge_value;
  };

  for (int i = 0; i < 6; ++i) (void)admission.admit(1.0);  // fill 4
  ASSERT_EQ(admission.health(), Health::kDegraded);
  EXPECT_DOUBLE_EQ(gauge(), admission.tokens());

  // A setter-driven refill (no admit in between) must refresh it too.
  clock.advance(1'000'000'000);
  admission.set_refill_per_sec(2.0);
  EXPECT_DOUBLE_EQ(gauge(), 5.0);
  EXPECT_DOUBLE_EQ(gauge(), admission.tokens());

  clock.advance(2'000'000'000);  // fill 5 -> 9 at the new rate
  ASSERT_EQ(admission.health(), Health::kHealthy);
  EXPECT_DOUBLE_EQ(gauge(), 9.0);
  EXPECT_DOUBLE_EQ(gauge(), admission.tokens());
}

TEST(AdmissionController, SetRefillSettlesElapsedTimeAtTheOldRate) {
  ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  for (int i = 0; i < 8; ++i) (void)admission.admit(1.0);  // fill 2
  // Two seconds pass at the OLD 1 token/sec, then the rate changes:
  // those two seconds must be worth 2 tokens, not 20.
  clock.advance(2'000'000'000);
  admission.set_refill_per_sec(10.0);
  EXPECT_DOUBLE_EQ(admission.tokens(), 4.0);
  EXPECT_DOUBLE_EQ(admission.options().refill_per_sec, 10.0);
  clock.advance(500'000'000);  // half a second at the new rate: +5
  EXPECT_DOUBLE_EQ(admission.tokens(), 9.0);
  EXPECT_THROW(admission.set_refill_per_sec(-1.0), std::invalid_argument);
}

TEST(AdmissionController, SetDegradedBelowRejudgesAndStaysInTheChain) {
  ManualClock clock;
  AdmissionController admission(small_bucket(), clock);
  // Outside kRecoverAbove <= v < kHealthyAbove: refused, so the
  // hysteresis ladder can never be broken by the actuator.
  EXPECT_THROW(admission.set_degraded_below(0.3), std::invalid_argument);
  EXPECT_THROW(admission.set_degraded_below(0.75), std::invalid_argument);

  // Raising the threshold past the current fill re-judges immediately:
  // fill 6 of 10 was healthy under degraded_below = 0.5, is degraded
  // under 0.7 — without any admit() in between.
  for (int i = 0; i < 4; ++i) (void)admission.admit(1.0);
  ASSERT_EQ(admission.health(), Health::kHealthy);
  admission.set_degraded_below(0.7);
  EXPECT_EQ(admission.health(), Health::kDegraded);
  EXPECT_DOUBLE_EQ(admission.options().degraded_below, 0.7);
}

// Storm: four threads admit against one ManualClock while a fifth
// advances it, reads the getters and takes snapshots. Each arrival is
// counted exactly once, and after the storm the getters read exactly
// what the registry holds.
TEST(AdmissionController, ConcurrentAdmitsCountEachArrivalOnce) {
  ManualClock clock;
  MetricRegistry registry;
  AdmissionController admission(small_bucket(), clock, &registry);
  constexpr int kAdmitters = 4;
  constexpr std::uint64_t kPerAdmitter = 5'000;
  std::atomic<int> running{kAdmitters};
  std::vector<std::thread> admitters;
  for (int t = 0; t < kAdmitters; ++t) {
    admitters.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerAdmitter; ++i) {
        (void)admission.admit(1.0);
      }
      running.fetch_sub(1);
    });
  }
  std::uint64_t decided = 0;
  while (running.load() > 0) {
    clock.advance(kSecond / 4);
    const std::uint64_t now_decided = admission.admitted() +
                                      admission.admitted_degraded() +
                                      admission.shed();
    EXPECT_GE(now_decided, decided);
    decided = now_decided;
    (void)admission.health_transitions();
    (void)registry.snapshot();
  }
  for (std::thread& admitter : admitters) admitter.join();

  const RegistrySnapshot snapshot = registry.snapshot();
  const auto total = [&snapshot](const char* name) {
    const std::optional<MetricSnapshot> family = snapshot.sum_by(name);
    return family ? family->counter_value : std::uint64_t{0};
  };
  EXPECT_EQ(admission.admitted() + admission.admitted_degraded() +
                admission.shed(),
            kAdmitters * kPerAdmitter);
  EXPECT_EQ(admission.admitted(), total("confcall_admission_admitted_total"));
  EXPECT_EQ(admission.admitted_degraded(),
            total("confcall_admission_degraded_total"));
  EXPECT_EQ(admission.shed(), total("confcall_admission_shed_total"));
  EXPECT_EQ(admission.health_transitions(),
            total("confcall_admission_health_transitions_total"));
  EXPECT_DOUBLE_EQ(snapshot.find("confcall_admission_tokens")->gauge_value,
                   admission.tokens());
}

TEST(CircuitBreaker, RecoveriesMeasureWholeEpisodes) {
  ManualClock clock;
  CircuitBreaker breaker(small_breaker(), clock);  // cooldown 1000 ns
  EXPECT_EQ(breaker.recoveries(), 0u);
  EXPECT_EQ(breaker.last_recovery_ns(), 0u);

  // First-probe recovery: the episode spans exactly the cooldown.
  record_trip(breaker);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.advance(1'000);
  ASSERT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.recoveries(), 1u);
  EXPECT_EQ(breaker.last_recovery_ns(), 1'000u);

  // A failed probe re-trips WITHOUT restarting the episode clock: the
  // next recovery measures from the episode's first trip.
  record_trip(breaker);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.advance(1'000);
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();  // probe fails, cooldown restarts
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.advance(1'000);
  ASSERT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.recoveries(), 2u);
  EXPECT_EQ(breaker.last_recovery_ns(), 2'000u);
}

TEST(CircuitBreaker, SetCooldownAppliesToFutureTrips) {
  ManualClock clock;
  CircuitBreaker breaker(small_breaker(), clock);  // cooldown 1000 ns
  EXPECT_THROW(breaker.set_cooldown_ns(0), std::invalid_argument);

  breaker.set_cooldown_ns(500);
  record_trip(breaker);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.advance(499);
  EXPECT_FALSE(breaker.allow());
  clock.advance(1);  // the shortened cooldown elapses
  EXPECT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

}  // namespace
}  // namespace confcall::support
