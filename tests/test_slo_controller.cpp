// Unit tests for the closed-loop SLO controller
// (support/slo_controller.h): option validation, the fixed control-
// period grid under a ManualClock, the AIMD law on both admission
// actuators (including every clamp), anti-windup on thin intervals, the
// pre-breach trend projection, the breaker-cooldown EWMA, the metric
// series, shed-fraction sensing, and bit-exact reproducibility of a
// whole control trajectory.
#include "support/slo_controller.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/metrics.h"
#include "support/overload.h"

namespace confcall::support {
namespace {

constexpr std::uint64_t kRoundNs = 1'000'000;  // 1 ms per paging round

/// One test stand: registry + rounds sensor + admission + controller on
/// a shared ManualClock.
struct Stand {
  explicit Stand(SloOptions options, AdmissionOptions admission_options = {})
      : rounds(registry.histogram("confcall_locate_rounds",
                                  HistogramSpec::integers(16), "rounds")),
        admission(admission_options, clock, &registry),
        slo(options, registry, admission, clock, kRoundNs) {}

  /// Feeds `calls` admitted calls of `rounds_used` rounds each and runs
  /// one control step.
  void interval(int calls, double rounds_used) {
    for (int i = 0; i < calls; ++i) rounds.observe(rounds_used);
    slo.step();
  }

  MetricRegistry registry;
  ManualClock clock;
  Histogram rounds;
  AdmissionController admission;
  SloController slo;
};

SloOptions test_options() {
  SloOptions options;
  options.target_p99_ns = 4'000'000;  // 4 ms
  options.control_period_ns = 100'000'000;
  options.min_interval_calls = 4;
  return options;
}

TEST(SloOptions, ValidatesEveryKnob) {
  EXPECT_NO_THROW(SloOptions{}.validate());
  SloOptions options;
  options.target_p99_ns = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.control_period_ns = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.additive_increase = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.multiplicative_decrease = 1.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.min_refill_per_sec = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.min_refill_per_sec = 10.0;
  options.max_refill_per_sec = 1.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.degrade_step = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.min_interval_calls = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.breach_horizon_periods = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.recovery_ewma_alpha = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.cooldown_recovery_multiplier = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.min_cooldown_ns = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.min_cooldown_ns = 10;
  options.max_cooldown_ns = 1;
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST(SloController, RejectsZeroRoundDuration) {
  MetricRegistry registry;
  ManualClock clock;
  AdmissionController admission(AdmissionOptions{}, clock, &registry);
  EXPECT_THROW(
      SloController(test_options(), registry, admission, clock, 0),
      std::invalid_argument);
}

// The shed-fraction sensor reads confcall_admission_* from the
// controller's registry, so an admission controller counting anywhere
// else would be sensed as never shedding: refused at construction.
TEST(SloController, RejectsAdmissionCountingIntoAnotherRegistry) {
  MetricRegistry registry;
  MetricRegistry other;
  ManualClock clock;
  AdmissionController elsewhere(AdmissionOptions{}, clock, &other);
  EXPECT_THROW(
      SloController(test_options(), registry, elsewhere, clock, kRoundNs),
      std::invalid_argument);
  AdmissionController private_registry(AdmissionOptions{}, clock);
  EXPECT_THROW(SloController(test_options(), registry, private_registry,
                             clock, kRoundNs),
               std::invalid_argument);
}

TEST(SloController, SensesTheIntervalShedFraction) {
  AdmissionOptions bucket;
  bucket.bucket_capacity = 10.0;
  bucket.refill_per_sec = 0.0;  // no refill: the bucket drains and sheds
  Stand stand(test_options(), bucket);
  const int arrivals = 20;
  int shed = 0;
  for (int i = 0; i < arrivals; ++i) {
    if (stand.admission.admit(1.0) == AdmissionController::Decision::kShed) {
      ++shed;
    }
  }
  ASSERT_GT(shed, 0);
  ASSERT_LT(shed, arrivals);
  stand.interval(8, 1.0);
  const double expected =
      static_cast<double>(shed) / static_cast<double>(arrivals);
  EXPECT_DOUBLE_EQ(stand.slo.shed_fraction(), expected);
  EXPECT_DOUBLE_EQ(stand.registry.snapshot()
                       .find("confcall_slo_window_shed_fraction")
                       ->gauge_value,
                   expected);
  // The next interval sees no arrivals: its shed fraction is 0.
  stand.interval(8, 1.0);
  EXPECT_DOUBLE_EQ(stand.slo.shed_fraction(), 0.0);
}

TEST(SloController, MaybeStepLandsOnThePeriodGrid) {
  Stand stand(test_options());
  // Not yet: the first boundary is one full period after construction.
  stand.clock.advance(99'000'000);
  EXPECT_FALSE(stand.slo.maybe_step());
  EXPECT_EQ(stand.slo.control_steps(), 0u);
  // Crossing the boundary runs exactly one step, however late the poll.
  stand.clock.advance(1'000'000);
  EXPECT_TRUE(stand.slo.maybe_step());
  EXPECT_EQ(stand.slo.control_steps(), 1u);
  EXPECT_FALSE(stand.slo.maybe_step());
  // A poll that skips several boundaries collapses them into ONE step
  // and re-anchors on the grid (multiples of the period), so the number
  // of steps depends on boundaries crossed, not poll cadence.
  stand.clock.advance(250'000'000);  // now at t=350ms, boundaries 200, 300
  EXPECT_TRUE(stand.slo.maybe_step());
  EXPECT_EQ(stand.slo.control_steps(), 2u);
  EXPECT_FALSE(stand.slo.maybe_step());
  stand.clock.advance(50'000'000);  // t=400ms: the next grid point
  EXPECT_TRUE(stand.slo.maybe_step());
  EXPECT_EQ(stand.slo.control_steps(), 3u);
}

TEST(SloController, AimdCutsOnBreachAndRecoversInSlo) {
  Stand stand(test_options());
  const AdmissionOptions start = stand.admission.options();
  ASSERT_DOUBLE_EQ(start.refill_per_sec, 64.0);
  ASSERT_DOUBLE_EQ(start.degraded_below, 0.5);

  // Breached interval (p99 = 8 ms > 4 ms): the token rate halves and
  // degradation starts one step earlier — and both land on the
  // admission controller, not just the controller's mirror.
  stand.interval(8, 8.0);
  EXPECT_EQ(stand.slo.slo_health(), SloHealth::kBreached);
  EXPECT_EQ(stand.slo.breaches(), 1u);
  EXPECT_EQ(stand.slo.observed_p99_ns(), 8 * kRoundNs);
  EXPECT_DOUBLE_EQ(stand.slo.refill_per_sec(), 32.0);
  EXPECT_DOUBLE_EQ(stand.slo.degrade_threshold(), 0.58);
  EXPECT_DOUBLE_EQ(stand.admission.options().refill_per_sec, 32.0);
  EXPECT_DOUBLE_EQ(stand.admission.options().degraded_below, 0.58);

  stand.interval(8, 8.0);
  EXPECT_DOUBLE_EQ(stand.slo.refill_per_sec(), 16.0);

  // In-SLO intervals recover additively (+8/s per period) and relax the
  // degrade threshold back down.
  stand.interval(8, 1.0);
  EXPECT_EQ(stand.slo.slo_health(), SloHealth::kOk);
  EXPECT_DOUBLE_EQ(stand.slo.refill_per_sec(), 24.0);
  EXPECT_DOUBLE_EQ(stand.admission.options().refill_per_sec, 24.0);
  EXPECT_NEAR(stand.slo.degrade_threshold(), 0.58, 1e-12);
}

TEST(SloController, ActuatorsClampToTheirRanges) {
  SloOptions options = test_options();
  options.min_refill_per_sec = 10.0;
  options.max_refill_per_sec = 80.0;
  Stand stand(options);
  const AdmissionOptions start = stand.admission.options();

  // Keep breaching: the rate floors at min_refill_per_sec and the
  // degrade threshold ceilings just under healthy_above, so the
  // admission hysteresis chain's validation keeps holding.
  for (int i = 0; i < 12; ++i) stand.interval(8, 8.0);
  EXPECT_DOUBLE_EQ(stand.slo.refill_per_sec(), 10.0);
  EXPECT_LT(stand.slo.degrade_threshold(), start.healthy_above);
  EXPECT_GT(stand.slo.degrade_threshold(), start.healthy_above - 0.01);

  // Keep meeting the SLO: the rate caps at max_refill_per_sec and the
  // threshold floors at recover_above.
  for (int i = 0; i < 20; ++i) stand.interval(8, 1.0);
  EXPECT_DOUBLE_EQ(stand.slo.refill_per_sec(), 80.0);
  EXPECT_DOUBLE_EQ(stand.slo.degrade_threshold(), start.recover_above);
  EXPECT_DOUBLE_EQ(stand.admission.options().degraded_below,
                   start.recover_above);
}

TEST(SloController, ThinIntervalsHoldEveryActuator) {
  Stand stand(test_options());
  stand.interval(8, 8.0);  // establish a breach first
  const double refill = stand.slo.refill_per_sec();
  const double degrade = stand.slo.degrade_threshold();

  // Three calls < min_interval_calls (4): too thin to estimate a p99.
  // The step counts but neither actuator nor the verdict moves — an
  // idle window must not ramp the rate back up (anti-windup) and the
  // standing breached signal must not be erased.
  stand.interval(3, 1.0);
  EXPECT_EQ(stand.slo.control_steps(), 2u);
  EXPECT_DOUBLE_EQ(stand.slo.refill_per_sec(), refill);
  EXPECT_DOUBLE_EQ(stand.slo.degrade_threshold(), degrade);
  EXPECT_EQ(stand.slo.slo_health(), SloHealth::kBreached);
  EXPECT_EQ(stand.slo.observed_p99_ns(), 8 * kRoundNs);
}

TEST(SloController, PreBreachProjectionFlagsDegrading) {
  Stand stand(test_options());  // horizon = 3 periods
  stand.interval(8, 1.0);
  EXPECT_EQ(stand.slo.slo_health(), SloHealth::kOk);

  // p99 2 ms, slope +1 ms/period, projected 2 + 3*1 = 5 ms > 4 ms:
  // degrading, while the measured p99 is still within SLO. The degrade
  // threshold leans on the brake; the token rate is NOT cut.
  const double refill_before = stand.slo.refill_per_sec();
  const double degrade_before = stand.slo.degrade_threshold();
  stand.interval(8, 2.0);
  EXPECT_EQ(stand.slo.slo_health(), SloHealth::kDegrading);
  EXPECT_EQ(stand.slo.pre_breach_signals(), 1u);
  EXPECT_EQ(stand.slo.breaches(), 0u);
  EXPECT_DOUBLE_EQ(stand.slo.refill_per_sec(), refill_before);
  EXPECT_NEAR(stand.slo.degrade_threshold(), degrade_before + 0.08, 1e-12);

  // A flat trend at the same safe level clears the signal.
  stand.interval(8, 2.0);
  EXPECT_EQ(stand.slo.slo_health(), SloHealth::kOk);
  EXPECT_EQ(stand.slo.pre_breach_signals(), 1u);
}

TEST(SloController, BreakerCooldownTracksRecoveryEwma) {
  SloOptions options = test_options();
  options.min_cooldown_ns = 1'000'000;
  Stand stand(options);
  CircuitBreakerOptions breaker_options;  // cooldown 100 ms, min_samples 4
  CircuitBreaker breaker(breaker_options, stand.clock);
  stand.slo.add_breaker(&breaker);
  EXPECT_EQ(stand.slo.breaker_cooldown_ns(), 0u);

  // Trip, wait out the cooldown, recover on the first probe: the
  // observed recovery is ~cooldown (100 ms), and the controller derives
  // the new cooldown = 0.5 * EWMA = 50 ms on every attached breaker.
  for (int i = 0; i < 4; ++i) breaker.record_failure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  stand.clock.advance(100'000'000);
  ASSERT_TRUE(breaker.allow());  // half-open probe
  breaker.record_success();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  ASSERT_EQ(breaker.recoveries(), 1u);
  stand.slo.step();
  EXPECT_EQ(stand.slo.breaker_cooldown_ns(), 50'000'000u);

  // Second episode under the shorter cooldown, again first-probe: the
  // sample is ~50 ms, EWMA = 0.3*50 + 0.7*100 = 85 ms, cooldown 42.5 ms
  // — the loop probes downward when recoveries complete immediately.
  for (int i = 0; i < 4; ++i) breaker.record_failure();
  stand.clock.advance(50'000'000);
  ASSERT_TRUE(breaker.allow());
  breaker.record_success();
  stand.slo.step();
  EXPECT_EQ(stand.slo.breaker_cooldown_ns(), 42'500'000u);
}

TEST(SloController, SeriesTrackSensorAndActuators) {
  Stand stand(test_options());
  const RegistrySnapshot initial = stand.registry.snapshot();
  const MetricSnapshot* target = initial.find("confcall_slo_target_p99_ns");
  ASSERT_NE(target, nullptr);
  EXPECT_DOUBLE_EQ(target->gauge_value, 4'000'000.0);

  stand.interval(8, 8.0);
  const RegistrySnapshot after = stand.registry.snapshot();
  EXPECT_DOUBLE_EQ(after.find("confcall_slo_observed_p99_ns")->gauge_value,
                   8'000'000.0);
  EXPECT_DOUBLE_EQ(after.find("confcall_slo_refill_per_sec")->gauge_value,
                   stand.slo.refill_per_sec());
  EXPECT_DOUBLE_EQ(
      after.find("confcall_slo_degrade_threshold")->gauge_value,
      stand.slo.degrade_threshold());
  EXPECT_DOUBLE_EQ(after.find("confcall_slo_health")->gauge_value, 2.0);
  EXPECT_EQ(after.find("confcall_slo_control_steps_total")->counter_value,
            1u);
  EXPECT_EQ(after.find("confcall_slo_breaches_total")->counter_value, 1u);
}

TEST(SloController, TrajectoryIsBitReproducible) {
  // The same driven sequence must leave two independent stands in
  // bit-identical states: the E17 determinism gate leans on this.
  const auto drive = [](Stand& stand) {
    const int loads[] = {8, 8, 12, 3, 8, 20, 8, 8, 5, 16};
    const double rounds[] = {1, 3, 8, 8, 2, 1, 6, 8, 1, 2};
    for (int i = 0; i < 10; ++i) {
      stand.clock.advance(100'000'000);
      for (int c = 0; c < loads[i]; ++c) stand.rounds.observe(rounds[i]);
      (void)stand.slo.maybe_step();
    }
  };
  Stand a(test_options());
  Stand b(test_options());
  drive(a);
  drive(b);
  EXPECT_EQ(a.slo.control_steps(), b.slo.control_steps());
  EXPECT_EQ(a.slo.breaches(), b.slo.breaches());
  EXPECT_EQ(a.slo.pre_breach_signals(), b.slo.pre_breach_signals());
  EXPECT_EQ(a.slo.observed_p99_ns(), b.slo.observed_p99_ns());
  EXPECT_EQ(a.slo.slo_health(), b.slo.slo_health());
  // Bit-identical doubles, not just approximately equal.
  EXPECT_EQ(a.slo.refill_per_sec(), b.slo.refill_per_sec());
  EXPECT_EQ(a.slo.degrade_threshold(), b.slo.degrade_threshold());
}

TEST(SloControllerState, SaveRestoreReappliesActuators) {
  // Converge one stand to a non-default operating point, carry its
  // save_state() into a fresh stand, and the fresh stand's actuators —
  // including the admission controller itself, not just the mirror —
  // must land on the same position without re-paying the transient.
  Stand warm(test_options());
  for (int i = 0; i < 3; ++i) warm.interval(8, 8.0);  // 64 -> 8 /s
  warm.interval(8, 1.0);                              // recover to 16 /s
  const std::string payload = warm.slo.save_state();

  Stand fresh(test_options());
  ASSERT_DOUBLE_EQ(fresh.slo.refill_per_sec(), 64.0);
  ASSERT_TRUE(fresh.slo.restore_state(payload, SloController::kStateVersion));
  EXPECT_EQ(fresh.slo.refill_per_sec(), warm.slo.refill_per_sec());
  EXPECT_EQ(fresh.slo.degrade_threshold(), warm.slo.degrade_threshold());
  EXPECT_EQ(fresh.slo.observed_p99_ns(), warm.slo.observed_p99_ns());
  EXPECT_DOUBLE_EQ(fresh.admission.options().refill_per_sec,
                   warm.slo.refill_per_sec());
  EXPECT_DOUBLE_EQ(fresh.admission.options().degraded_below,
                   warm.slo.degrade_threshold());

  // Round trip is exact: the restored controller re-saves identical
  // bytes (the E19 byte-identity gate leans on this).
  EXPECT_EQ(fresh.slo.save_state(), payload);
}

TEST(SloControllerState, RestoreClampsIntoThisBuildsRanges) {
  // A checkpoint converged under wide limits must not install an
  // out-of-range actuator into a build configured with narrow ones.
  Stand wide(test_options());
  for (int i = 0; i < 25; ++i) wide.interval(8, 1.0);  // ramp to the cap
  ASSERT_GT(wide.slo.refill_per_sec(), 100.0);
  const std::string payload = wide.slo.save_state();

  SloOptions narrow = test_options();
  narrow.min_refill_per_sec = 10.0;
  narrow.max_refill_per_sec = 80.0;
  Stand stand(narrow);
  ASSERT_TRUE(stand.slo.restore_state(payload, SloController::kStateVersion));
  EXPECT_DOUBLE_EQ(stand.slo.refill_per_sec(), 80.0);
  EXPECT_DOUBLE_EQ(stand.admission.options().refill_per_sec, 80.0);
}

TEST(SloControllerState, RestoreRejectsDamageWithoutSideEffects) {
  Stand donor(test_options());
  donor.interval(8, 8.0);
  const std::string good = donor.slo.save_state();

  Stand stand(test_options());
  const double refill_before = stand.slo.refill_per_sec();

  // Version skew.
  EXPECT_FALSE(
      stand.slo.restore_state(good, SloController::kStateVersion + 1));
  // Truncated at every prefix length.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(stand.slo.restore_state(
        std::string_view(good).substr(0, len), SloController::kStateVersion))
        << "prefix " << len;
  }
  // Trailing garbage.
  EXPECT_FALSE(stand.slo.restore_state(good + "x",
                                       SloController::kStateVersion));
  // Non-finite actuator positions (NaN refill).
  std::string nan_payload = good;
  StateWriter nan_writer;
  nan_writer.put_f64(std::numeric_limits<double>::quiet_NaN());
  nan_payload.replace(0, 8, nan_writer.bytes());
  EXPECT_FALSE(stand.slo.restore_state(nan_payload,
                                       SloController::kStateVersion));

  // Every rejection left the controller untouched.
  EXPECT_DOUBLE_EQ(stand.slo.refill_per_sec(), refill_before);
  EXPECT_EQ(stand.slo.control_steps(), 0u);

  // And the undamaged payload still restores.
  EXPECT_TRUE(stand.slo.restore_state(good, SloController::kStateVersion));
}

// Fleet-wide sensing: the controller reads the LABEL-SUMMED rounds
// family (RegistrySnapshot::sum_by), so a registry whose observations
// are split across {shard="..."} series must drive the exact same
// control trajectory as one unlabelled series holding the same
// observations. This is the unit-level half of the E21 sharding-
// invariance gate.
TEST(SloController, SensesLabelSummedFleetWindow) {
  Stand flat(test_options());

  MetricRegistry registry;
  ManualClock clock;
  std::vector<Histogram> shards;
  for (int s = 0; s < 3; ++s) {
    shards.push_back(registry.histogram(
        "confcall_locate_rounds", HistogramSpec::integers(16), "rounds",
        {{"shard", std::to_string(s)}}));
  }
  AdmissionController admission(AdmissionOptions{}, clock, &registry);
  SloController slo(test_options(), registry, admission, clock, kRoundNs);

  const auto drive = [&](int calls, double rounds_used) {
    flat.interval(calls, rounds_used);
    for (int i = 0; i < calls; ++i) shards[i % 3].observe(rounds_used);
    slo.step();
    EXPECT_DOUBLE_EQ(slo.refill_per_sec(), flat.slo.refill_per_sec());
    EXPECT_DOUBLE_EQ(slo.degrade_threshold(),
                     flat.slo.degrade_threshold());
    EXPECT_EQ(slo.breaches(), flat.slo.breaches());
    EXPECT_EQ(slo.pre_breach_signals(), flat.slo.pre_breach_signals());
  };
  drive(32, 8.0);  // 8 ms p99 against the 4 ms target: breach, cut
  drive(32, 8.0);  // still breaching: cut again
  drive(32, 1.0);  // back inside SLO: additive recovery
  drive(32, 1.0);
  EXPECT_GT(slo.breaches(), 0u);
  EXPECT_EQ(slo.control_steps(), flat.slo.control_steps());
}

}  // namespace
}  // namespace confcall::support
