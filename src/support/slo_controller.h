// Closed-loop SLO controller: feedback from observed latency to the
// overload actuators.
//
// The paper fixes a round budget D and optimizes paging cost under it;
// a serving deployment inverts that contract — a latency SLO must hold
// while burst levels and outage rates drift. Static AdmissionOptions
// thresholds are one operating point tuned against one workload (E14);
// residence-time variance alone can swing sequential-paging delay enough
// to invalidate it (Koukoutsidis et al.), and the Hajek–Mitzel–Yang
// iterative-adaptation viewpoint motivates driving the knobs from
// observed cost instead. This controller closes the loop:
//
//   sensor     the MetricRegistry's admitted-call rounds histogram,
//              read as WINDOWED deltas (RegistrySnapshot::delta) so each
//              control period sees interval percentiles, not lifetime
//              aggregates that average breaches away;
//   law        AIMD on two admission actuators — while the interval p99
//              is at or under the SLO, the token rate rises additively
//              and the degrade threshold relaxes toward full quality;
//              on a breach the token rate is cut multiplicatively and
//              the degrade threshold raised one step (degrade earlier:
//              the cheap one-round blanket tier replaces d-round plans
//              before latency, not after);
//   breakers   each guarded tier's cooldown tracks the observed
//              recovery-time EWMA — a dependency that recovers on the
//              first probe walks its cooldown down, one that keeps
//              failing probes backs it off;
//   health     a pre-breach "degrading" signal: when the linear p99
//              trend projects a breach within `breach_horizon_periods`
//              control periods, slo_health() flips BEFORE the SLO is
//              broken, so /healthz can shed a load balancer's traffic
//              proactively.
//
// Stability / anti-windup: actuators only move on intervals with at
// least `min_interval_calls` admitted calls (an idle window neither
// ramps the token rate nor relaxes degradation), every actuator is
// clamped to a configured range, and the degrade threshold stays inside
// the hysteresis chain (recover_above <= degraded_below < healthy_above)
// so the health machine's invariants survive the controller.
//
// All time flows through the injectable ClockSource: under a
// ManualClock every control step lands on a fixed period grid and the
// whole loop is bit-reproducible (the E17 grid and the SLO soak row
// depend on this). Internally locked; maybe_step() and the accessors
// may race with scrape handlers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/metrics.h"
#include "support/overload.h"
#include "support/state_io.h"

namespace confcall::support {

/// The controller's verdict on the SLO, exposed to /healthz.
enum class SloHealth {
  kOk,         ///< interval p99 within SLO, no projected breach
  kDegrading,  ///< still within SLO, but the trend projects a breach
  kBreached,   ///< the interval p99 exceeded the SLO
};

[[nodiscard]] const char* slo_health_name(SloHealth health) noexcept;

/// SloController tuning. The defaults suit the simulator's virtual
/// timescale (1 ms rounds, 10 ms steps); confcall_serve scales them to
/// wall time via --slo-p99-ms / --control-period-ms.
struct SloOptions {
  /// Master switch for config embedding (OverloadConfig::slo); the
  /// controller itself is always "on" once constructed.
  bool enabled = false;
  /// The SLO: admitted-call setup p99 (rounds * round duration) must
  /// stay at or under this.
  std::uint64_t target_p99_ns = 3'000'000;  // 3 ms
  /// Fixed control period; steps land on the period grid regardless of
  /// how irregularly maybe_step() is polled.
  std::uint64_t control_period_ns = 200'000'000;  // 200 ms
  /// AIMD: tokens/sec added per in-SLO period, and the factor the rate
  /// is multiplied by on a breached period.
  double additive_increase = 8.0;
  double multiplicative_decrease = 0.5;
  /// Token-rate actuator clamp (anti-windup: the additive ramp cannot
  /// run away during a long quiet spell).
  double min_refill_per_sec = 1.0;
  double max_refill_per_sec = 1'000'000.0;
  /// Degrade-threshold actuator: moved by this much per period, clamped
  /// to the admission options' hysteresis chain at attach time.
  double degrade_step = 0.08;
  /// Intervals with fewer admitted calls than this hold every actuator
  /// (too thin to estimate a p99 from).
  std::size_t min_interval_calls = 8;
  /// Pre-breach projection horizon k: degrading when
  /// p99 + slope * k > target while p99 itself is still within SLO.
  std::size_t breach_horizon_periods = 3;
  /// Breaker-cooldown actuator: EWMA weight of each newly observed
  /// recovery time, and the cooldown = multiplier * EWMA clamp range.
  /// A multiplier < 1 probes downward when recoveries complete on the
  /// first probe (observed recovery can never undershoot the cooldown
  /// itself) and still backs off when probes keep failing.
  double recovery_ewma_alpha = 0.3;
  double cooldown_recovery_multiplier = 0.5;
  std::uint64_t min_cooldown_ns = 1'000'000;          // 1 ms
  std::uint64_t max_cooldown_ns = 60'000'000'000;     // 60 s

  /// Throws std::invalid_argument with a specific message per violation.
  void validate() const;
};

/// The feedback controller. One instance drives one AdmissionController
/// (and optionally the breakers of a planner chain) from one registry,
/// and counts its own telemetry there: the confcall_slo_* family (the
/// target, every sensor reading and every actuator position; see
/// docs/OBSERVABILITY.md) is registered at construction.
class SloController {
 public:
  /// `registry`, `admission` and `clock` must outlive the controller.
  /// `round_duration_ns` converts the rounds histogram into latency
  /// (> 0); `rounds_histogram` names the registry FAMILY the sensor
  /// reads (admitted-call rounds, unit buckets). The sensor is
  /// label-summed (RegistrySnapshot::sum_by): every label set of the
  /// family folds into one fleet-wide interval histogram, so the same
  /// controller senses a single unlabelled service or a ServiceFleet's
  /// per-shard {shard="s"} series — and because the label-erased sum is
  /// invariant under resharding, the control trajectory is identical at
  /// any shard count. The shed-fraction sensor reads the
  /// confcall_admission_* family from the same registry, so `admission`
  /// must count into it. Throws std::invalid_argument on bad options, a
  /// zero round duration, or an admission controller on another
  /// registry.
  SloController(SloOptions options, MetricRegistry& registry,
                AdmissionController& admission, const ClockSource& clock,
                std::uint64_t round_duration_ns,
                std::string rounds_histogram = "confcall_locate_rounds");

  /// Adds a breaker to the cooldown actuator set (non-owning; must
  /// outlive the controller). Typically every non-final tier breaker of
  /// a ResilientPlanner.
  void add_breaker(CircuitBreaker* breaker);

  /// Runs control steps for every period boundary passed since the last
  /// call (at most one evaluation — intermediate empty periods collapse
  /// into it). Returns true when a step ran. Call it from the serve /
  /// simulation loop; cheap when no boundary passed (one clock read
  /// under the lock).
  bool maybe_step();

  /// Forces one control step right now (tests; maybe_step is the
  /// production path).
  void step();

  [[nodiscard]] SloHealth slo_health() const;
  /// Last measured interval p99 in ns (0 until the first thick-enough
  /// interval).
  [[nodiscard]] std::uint64_t observed_p99_ns() const;
  /// Shed fraction of the last control interval's arrivals (0 when the
  /// interval saw none).
  [[nodiscard]] double shed_fraction() const;
  [[nodiscard]] std::uint64_t target_p99_ns() const noexcept {
    return options_.target_p99_ns;
  }

  /// Actuator positions.
  [[nodiscard]] double refill_per_sec() const;
  [[nodiscard]] double degrade_threshold() const;
  /// 0 until the first recovery observation moves the cooldown.
  [[nodiscard]] std::uint64_t breaker_cooldown_ns() const;

  /// Telemetry: control steps run, breached periods, and pre-breach
  /// (degrading) periods signalled.
  [[nodiscard]] std::uint64_t control_steps() const noexcept {
    return steps_metric_.value();
  }
  [[nodiscard]] std::uint64_t breaches() const noexcept {
    return breaches_metric_.value();
  }
  [[nodiscard]] std::uint64_t pre_breach_signals() const noexcept {
    return pre_breach_metric_.value();
  }

  [[nodiscard]] const SloOptions& options() const noexcept {
    return options_;
  }

  /// Section name + version for checkpoint bundles (see state_io.h).
  static constexpr const char* kStateSection = "slo_controller";
  static constexpr std::uint32_t kStateVersion = 1;

  /// Serializes the actuator + sensor state (token refill rate, degrade
  /// threshold, recovery-time EWMA, breaker cooldown, p99 history) as a
  /// kStateSection payload. Pure function of the controller state —
  /// identical state yields identical bytes.
  [[nodiscard]] std::string save_state() const;

  /// Restores a kStateSection payload written by save_state: every
  /// actuator is clamped back into the configured ranges and re-applied
  /// to the attached admission controller and breakers, so the very next
  /// control step runs from the warm operating point. Returns false —
  /// leaving the controller in its cold-start state — on a version this
  /// build does not speak or a malformed payload; NEVER throws on bad
  /// input.
  [[nodiscard]] bool restore_state(std::string_view payload,
                                   std::uint32_t version);

 private:
  void step_locked();

  SloOptions options_;
  MetricRegistry* registry_;
  AdmissionController* admission_;
  const ClockSource* clock_;
  std::uint64_t round_duration_ns_;
  std::string rounds_histogram_;

  mutable std::mutex mutex_;
  std::vector<CircuitBreaker*> breakers_;
  std::vector<std::uint64_t> recoveries_consumed_;
  std::uint64_t next_control_ns_;
  RegistrySnapshot prev_;

  // Sensor state.
  std::uint64_t observed_p99_ns_ = 0;   ///< last measured interval
  std::uint64_t previous_p99_ns_ = 0;   ///< the measurement before that
  bool have_measurement_ = false;
  bool have_previous_ = false;
  double shed_fraction_ = 0.0;
  SloHealth slo_health_ = SloHealth::kOk;

  // Actuator state.
  double refill_per_sec_;
  double degrade_threshold_;
  double degrade_lo_;  ///< recover_above of the attached admission
  double degrade_hi_;  ///< just under healthy_above
  double recovery_ewma_ns_ = 0.0;
  std::uint64_t cooldown_ns_ = 0;

  // The confcall_slo_* series on registry_.
  Gauge target_metric_;
  Gauge observed_metric_;
  Gauge shed_fraction_metric_;
  Gauge health_metric_;
  Gauge refill_metric_;
  Gauge degrade_metric_;
  Gauge cooldown_metric_;
  Counter steps_metric_;
  Counter breaches_metric_;
  Counter pre_breach_metric_;
};

}  // namespace confcall::support
