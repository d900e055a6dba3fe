// Overload-protection primitives: deadlines, circuit breakers, admission
// control.
//
// The paper's delay constraint d is fundamentally a deadline: a
// conference call that cannot be established in time is worthless, so a
// production service should degrade plan QUALITY before it degrades
// LATENCY, and reject work it cannot finish rather than finish it late.
// This header holds the three generic building blocks of that policy:
//
//   * Deadline — an absolute monotonic expiry propagated by value through
//     call chains (arrival -> admission -> planning -> paging rounds).
//   * CircuitBreaker — closed -> open -> half-open over a sliding outcome
//     window, so a repeatedly-failing dependency (e.g. an exact planner
//     tier that keeps overrunning its node limit) is skipped BEFORE
//     burning budget on it, and probed again after a cooldown.
//   * AdmissionController — a token bucket feeding a three-state health
//     machine (healthy / degraded / shedding) with hysteresis, so load
//     shedding turns on early, recovers stepwise, and never flaps.
//
// All three read time through a ClockSource, never std::chrono directly:
// production code injects the steady clock, tests and the deterministic
// simulator inject a ManualClock, which makes every state transition
// reproducible bit-for-bit (the E14 overload grid and the soak harness
// depend on this). CircuitBreaker and AdmissionController are internally
// locked and safe to share across threads. Their telemetry is counted
// once, in registry series set up at construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "support/metrics.h"

namespace confcall::support {

/// A monotonic nanosecond clock, injectable for determinism.
class ClockSource {
 public:
  virtual ~ClockSource() = default;
  [[nodiscard]] virtual std::uint64_t now_ns() const = 0;
};

/// std::chrono::steady_clock behind the ClockSource interface.
class SteadyClockSource final : public ClockSource {
 public:
  [[nodiscard]] std::uint64_t now_ns() const override;
  /// A process-wide instance, for call sites that just want "real time".
  static const SteadyClockSource& shared();
};

/// A hand-advanced clock for tests and the discrete-time simulator
/// (where one paging round or simulation step costs a fixed number of
/// virtual nanoseconds). Never goes backwards: advance() only. One
/// thread may advance it while others read it (a test driving a serving
/// node whose HTTP loops admit calls against the same clock).
class ManualClock final : public ClockSource {
 public:
  explicit ManualClock(std::uint64_t start_ns = 0) noexcept
      : now_ns_(start_ns) {}
  [[nodiscard]] std::uint64_t now_ns() const override { return now_ns_; }
  void advance(std::uint64_t delta_ns) noexcept { now_ns_ += delta_ns; }

 private:
  std::atomic<std::uint64_t> now_ns_;
};

/// An absolute expiry on a ClockSource's timeline. Value type: propagate
/// it by copy through a call chain and every layer sees the same expiry
/// (the whole point — per-layer relative timeouts silently add up to more
/// than the caller offered). The default-constructed Deadline is
/// unbounded, so deadline-free callers pay nothing.
class Deadline {
 public:
  static constexpr std::uint64_t kUnbounded =
      std::numeric_limits<std::uint64_t>::max();

  constexpr Deadline() noexcept = default;  ///< unbounded

  static constexpr Deadline unbounded() noexcept { return Deadline{}; }

  /// Expires at the given absolute timestamp.
  static constexpr Deadline at(std::uint64_t expiry_ns) noexcept {
    Deadline deadline;
    deadline.expiry_ns_ = expiry_ns;
    return deadline;
  }

  /// Expires `budget_ns` from the clock's current now (saturating).
  static Deadline after(std::uint64_t budget_ns, const ClockSource& clock);

  [[nodiscard]] constexpr bool is_unbounded() const noexcept {
    return expiry_ns_ == kUnbounded;
  }
  [[nodiscard]] constexpr std::uint64_t expiry_ns() const noexcept {
    return expiry_ns_;
  }
  [[nodiscard]] bool expired(const ClockSource& clock) const {
    return clock.now_ns() >= expiry_ns_;
  }
  /// Nanoseconds left (0 when expired, kUnbounded when unbounded).
  [[nodiscard]] std::uint64_t remaining_ns(const ClockSource& clock) const;

 private:
  std::uint64_t expiry_ns_ = kUnbounded;
};

/// CircuitBreaker tuning. Defaults suit a per-call dependency probed a
/// few times per second.
struct CircuitBreakerOptions {
  /// Sliding window of recorded outcomes the failure rate is computed
  /// over (>= 1).
  std::size_t window = 8;
  /// Outcomes required in the window before the breaker may trip (>= 1,
  /// <= window) — a single early failure must not open a cold breaker.
  std::size_t min_samples = 4;
  /// Trip when failures / outcomes >= this fraction, in (0, 1].
  double failure_threshold = 0.5;
  /// How long an open breaker rejects before probing again (>= 1 ns).
  std::uint64_t cooldown_ns = 100'000'000;  // 100 ms

  /// Throws std::invalid_argument with a specific message per violation.
  void validate() const;
};

/// closed -> open -> half-open failure isolator.
///
/// Legal state transitions (the soak harness asserts exactly these):
///   closed    -> open       window full enough and failure rate tripped
///   open      -> half-open  cooldown elapsed (observed lazily)
///   half-open -> closed     the single probe call succeeded
///   half-open -> open       the probe failed (cooldown restarts)
///
/// Callers wrap a dependency as:
///   if (!breaker.allow()) { /* skip, use fallback */ }
///   else { ok = call(); ok ? breaker.record_success()
///                          : breaker.record_failure(); }
/// Internally locked; allow/record may be called from any thread.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  /// The clock must outlive the breaker. Trips are counted once, in
  /// `registry`'s confcall_planner_breaker_trips_total series with
  /// `labels` (typically the guarded tier; the registry must outlive the
  /// breaker), and trips() reads that series; pass nullptr and the
  /// breaker owns a private registry. Throws std::invalid_argument on
  /// bad options (see CircuitBreakerOptions::validate).
  explicit CircuitBreaker(
      CircuitBreakerOptions options = {},
      const ClockSource& clock = SteadyClockSource::shared(),
      MetricRegistry* registry = nullptr, const MetricLabels& labels = {});

  /// May the protected call proceed right now? While open this counts a
  /// rejection and returns false until the cooldown elapses; then the
  /// breaker turns half-open and exactly one caller gets a probe slot
  /// until its outcome is recorded.
  [[nodiscard]] bool allow();

  /// Report the outcome of an allowed call. Unpaired records (recording
  /// without a prior allow) are legal and treated as window samples.
  void record_success();
  void record_failure();

  /// The observable state (an elapsed cooldown reads as half-open even
  /// before the next allow() mutates toward the probe).
  [[nodiscard]] State state() const;

  [[nodiscard]] std::uint64_t trips() const;       ///< closed/half-open -> open
  [[nodiscard]] std::uint64_t rejections() const;  ///< allow() == false
  [[nodiscard]] const CircuitBreakerOptions& options() const noexcept {
    return options_;
  }

  /// Replaces the open-state cooldown for every FUTURE trip (an already
  /// running cooldown keeps its original expiry). The SLO controller's
  /// actuator: it derives the cooldown from the observed recovery-time
  /// EWMA instead of the static option. Throws std::invalid_argument on
  /// zero.
  void set_cooldown_ns(std::uint64_t cooldown_ns);

  /// Completed recoveries (open/half-open -> closed) and how long the
  /// most recent one took, measured from the FIRST trip of the episode
  /// to the probe success that closed the breaker (re-trips of failed
  /// probes extend the same episode). last_recovery_ns() is 0 until the
  /// first recovery completes.
  [[nodiscard]] std::uint64_t recoveries() const;
  [[nodiscard]] std::uint64_t last_recovery_ns() const;

  static const char* state_name(State state) noexcept;

 private:
  void trip_locked();
  [[nodiscard]] State state_locked() const;

  CircuitBreakerOptions options_;
  const ClockSource* clock_;
  mutable std::mutex mutex_;
  State state_ = State::kClosed;
  std::uint64_t open_until_ns_ = 0;
  bool probe_in_flight_ = false;
  std::vector<std::uint8_t> outcomes_;  // ring: 1 = failure
  std::size_t next_slot_ = 0;
  std::size_t samples_ = 0;
  std::size_t failures_in_window_ = 0;
  std::uint64_t rejections_ = 0;
  std::uint64_t tripped_at_ns_ = 0;  ///< first trip of the open episode
  std::uint64_t recoveries_ = 0;
  std::uint64_t last_recovery_ns_ = 0;
  std::unique_ptr<MetricRegistry> owned_registry_;  ///< when none injected
  Counter trips_metric_;
};

/// Service health as seen by admission control.
enum class Health { kHealthy, kDegraded, kShedding };

[[nodiscard]] const char* health_name(Health health) noexcept;

/// AdmissionController tuning. The bucket is measured in abstract tokens
/// (callers choose the cost of a request — e.g. one token per callee, so
/// large conferences weigh more). Health is driven by the bucket's fill
/// fraction with hysteresis:
///
///   fill < shed_below       ->  kShedding   (reject new work)
///   fill < degraded_below   ->  kDegraded   (admit, but plan cheap)
///   recovery is stepwise: shedding needs fill > recover_above to become
///   degraded, degraded needs fill > healthy_above to become healthy —
///   never shedding -> healthy in one move, and the gaps between the
///   down- and up-thresholds keep the state from flapping at a boundary.
struct AdmissionOptions {
  double bucket_capacity = 64.0;  ///< max tokens (burst allowance), > 0
  double refill_per_sec = 64.0;   ///< sustained token rate, >= 0
  double degraded_below = 0.5;
  double healthy_above = 0.75;
  double shed_below = 0.15;
  double recover_above = 0.35;

  /// Throws std::invalid_argument unless
  /// 0 < shed_below < recover_above <= degraded_below < healthy_above <= 1
  /// and capacity/refill are sane.
  void validate() const;
};

/// Token-bucket admission control with a three-state health machine.
/// Deterministic given the injected clock and the admit() sequence.
/// Internally locked; admit() may be called from any thread.
///
/// Every decision is counted once, in the controller's registry:
/// confcall_admission_admitted_total / _degraded_total / _shed_total,
/// health transitions labelled by the state entered
/// (confcall_admission_health_transitions_total{to=...}), and the bucket
/// fill as the confcall_admission_tokens gauge (set on every refill).
class AdmissionController {
 public:
  enum class Decision {
    kAdmit,          ///< healthy: full-quality service
    kAdmitDegraded,  ///< degraded: serve, but with the cheap plan tier
    kShed,           ///< shedding (or bucket empty): reject the request
  };

  /// The clock must outlive the controller; the bucket starts full.
  /// Pass `registry` to count into a shared registry (it must outlive
  /// the controller), or nullptr and the controller owns a private one;
  /// the getters below read the series either way. Throws
  /// std::invalid_argument on bad options.
  explicit AdmissionController(
      AdmissionOptions options = {},
      const ClockSource& clock = SteadyClockSource::shared(),
      MetricRegistry* registry = nullptr);

  /// Decide one arriving request costing `cost` tokens (> 0). Refills
  /// the bucket for the elapsed clock time, steps the health machine,
  /// and consumes the cost unless the request is shed. A request the
  /// bucket cannot cover is shed even before health reaches kShedding.
  [[nodiscard]] Decision admit(double cost = 1.0);

  /// Health after refilling for the time elapsed since the last call.
  [[nodiscard]] Health health();

  [[nodiscard]] double tokens();  ///< current fill, after refill

  [[nodiscard]] std::uint64_t admitted() const noexcept {
    return admitted_metric_.value();
  }
  [[nodiscard]] std::uint64_t admitted_degraded() const noexcept {
    return admitted_degraded_metric_.value();
  }
  [[nodiscard]] std::uint64_t shed() const noexcept {
    return shed_metric_.value();
  }
  /// Health-state changes since construction (flap metric).
  [[nodiscard]] std::uint64_t health_transitions() const;

  /// The registry the confcall_admission_* series live in (the private
  /// one when none was injected).
  [[nodiscard]] const MetricRegistry& registry() const noexcept {
    return *registry_;
  }

  /// A consistent copy of the current tuning (the SLO controller's
  /// actuators mutate it at runtime, so options are state, not config).
  [[nodiscard]] AdmissionOptions options() const;

  /// Replaces the sustained token rate (>= 0). The bucket is refilled at
  /// the OLD rate for the time already elapsed first, so a rate change
  /// never retroactively rewrites history. Throws std::invalid_argument
  /// on a negative rate.
  void set_refill_per_sec(double refill_per_sec);

  /// Moves the degrade threshold (the SLO controller's quality actuator:
  /// raise it to degrade earlier under load, lower it to restore full
  /// quality). Throws std::invalid_argument unless the hysteresis chain
  /// recover_above <= degraded_below < healthy_above stays intact; the
  /// health state is re-stepped against the new threshold immediately.
  void set_degraded_below(double degraded_below);

 private:
  void refill_locked();
  void step_health_locked();

  AdmissionOptions options_;
  const ClockSource* clock_;
  mutable std::mutex mutex_;
  double tokens_;
  std::uint64_t last_refill_ns_;
  Health health_ = Health::kHealthy;
  std::unique_ptr<MetricRegistry> owned_registry_;
  MetricRegistry* registry_;
  Counter admitted_metric_;
  Counter admitted_degraded_metric_;
  Counter shed_metric_;
  Counter transition_metric_[3];  // indexed by the Health entered
  Gauge tokens_metric_;
};

}  // namespace confcall::support
