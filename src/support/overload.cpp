#include "support/overload.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace confcall::support {

std::uint64_t SteadyClockSource::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const SteadyClockSource& SteadyClockSource::shared() {
  static const SteadyClockSource instance;
  return instance;
}

Deadline Deadline::after(std::uint64_t budget_ns, const ClockSource& clock) {
  if (budget_ns == kUnbounded) return unbounded();
  const std::uint64_t now = clock.now_ns();
  const std::uint64_t expiry =
      now > kUnbounded - budget_ns ? kUnbounded : now + budget_ns;
  return at(expiry);
}

std::uint64_t Deadline::remaining_ns(const ClockSource& clock) const {
  if (is_unbounded()) return kUnbounded;
  const std::uint64_t now = clock.now_ns();
  return now >= expiry_ns_ ? 0 : expiry_ns_ - now;
}

void CircuitBreakerOptions::validate() const {
  if (window == 0) {
    throw std::invalid_argument("CircuitBreaker: window must be >= 1");
  }
  if (min_samples == 0 || min_samples > window) {
    throw std::invalid_argument(
        "CircuitBreaker: need 1 <= min_samples <= window");
  }
  if (!(failure_threshold > 0.0 && failure_threshold <= 1.0)) {
    throw std::invalid_argument(
        "CircuitBreaker: failure_threshold must be in (0, 1]");
  }
  if (cooldown_ns == 0) {
    throw std::invalid_argument("CircuitBreaker: cooldown_ns must be >= 1");
  }
}

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options,
                               const ClockSource& clock,
                               MetricRegistry* registry,
                               const MetricLabels& labels)
    : options_(options), clock_(&clock), outcomes_(options.window, 0) {
  options_.validate();
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<MetricRegistry>();
    registry = owned_registry_.get();
  }
  trips_metric_ = registry->counter(
      "confcall_planner_breaker_trips_total",
      "Breaker trips per guarded (non-final) tier", labels);
}

const char* CircuitBreaker::state_name(State state) noexcept {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half-open";
  }
  return "?";
}

CircuitBreaker::State CircuitBreaker::state_locked() const {
  if (state_ == State::kOpen && clock_->now_ns() >= open_until_ns_) {
    return State::kHalfOpen;
  }
  return state_;
}

CircuitBreaker::State CircuitBreaker::state() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_locked();
}

bool CircuitBreaker::allow() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == State::kClosed) return true;
  if (state_ == State::kOpen) {
    if (clock_->now_ns() < open_until_ns_) {
      ++rejections_;
      return false;
    }
    state_ = State::kHalfOpen;
    probe_in_flight_ = false;
  }
  // Half-open: exactly one probe at a time; everyone else keeps being
  // rejected until the probe's outcome is recorded.
  if (probe_in_flight_) {
    ++rejections_;
    return false;
  }
  probe_in_flight_ = true;
  return true;
}

void CircuitBreaker::trip_locked() {
  // A re-trip (failed half-open probe) extends the SAME recovery
  // episode: the observed recovery time runs from the first trip.
  if (state_ == State::kClosed) tripped_at_ns_ = clock_->now_ns();
  state_ = State::kOpen;
  open_until_ns_ = clock_->now_ns() + options_.cooldown_ns;
  probe_in_flight_ = false;
  trips_metric_.inc();
  // A fresh cooldown deserves a fresh verdict: the window restarts so
  // stale pre-trip failures cannot instantly re-trip a recovering
  // dependency.
  outcomes_.assign(options_.window, 0);
  next_slot_ = 0;
  samples_ = 0;
  failures_in_window_ = 0;
}

void CircuitBreaker::record_success() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kClosed) {
    // Probe succeeded (or a late success from before the trip — equally
    // good news): close and start clean.
    ++recoveries_;
    last_recovery_ns_ = clock_->now_ns() - tripped_at_ns_;
    state_ = State::kClosed;
    probe_in_flight_ = false;
    outcomes_.assign(options_.window, 0);
    next_slot_ = 0;
    samples_ = 0;
    failures_in_window_ = 0;
    return;
  }
  failures_in_window_ -= outcomes_[next_slot_];
  outcomes_[next_slot_] = 0;
  next_slot_ = (next_slot_ + 1) % options_.window;
  if (samples_ < options_.window) ++samples_;
}

void CircuitBreaker::record_failure() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kClosed) {
    // The half-open probe failed (an open-state record means the probe
    // was handed out just before the cooldown stamp — same verdict):
    // back to open, cooldown restarts.
    trip_locked();
    return;
  }
  failures_in_window_ -= outcomes_[next_slot_];
  outcomes_[next_slot_] = 1;
  ++failures_in_window_;
  next_slot_ = (next_slot_ + 1) % options_.window;
  if (samples_ < options_.window) ++samples_;
  if (samples_ >= options_.min_samples &&
      static_cast<double>(failures_in_window_) >=
          options_.failure_threshold * static_cast<double>(samples_)) {
    trip_locked();
  }
}

std::uint64_t CircuitBreaker::trips() const { return trips_metric_.value(); }

std::uint64_t CircuitBreaker::rejections() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rejections_;
}

void CircuitBreaker::set_cooldown_ns(std::uint64_t cooldown_ns) {
  if (cooldown_ns == 0) {
    throw std::invalid_argument("CircuitBreaker: cooldown_ns must be >= 1");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  options_.cooldown_ns = cooldown_ns;
}

std::uint64_t CircuitBreaker::recoveries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recoveries_;
}

std::uint64_t CircuitBreaker::last_recovery_ns() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_recovery_ns_;
}

const char* health_name(Health health) noexcept {
  switch (health) {
    case Health::kHealthy:
      return "healthy";
    case Health::kDegraded:
      return "degraded";
    case Health::kShedding:
      return "shedding";
  }
  return "?";
}

void AdmissionOptions::validate() const {
  if (!(bucket_capacity > 0.0)) {
    throw std::invalid_argument(
        "AdmissionController: bucket_capacity must be > 0");
  }
  if (!(refill_per_sec >= 0.0)) {
    throw std::invalid_argument(
        "AdmissionController: refill_per_sec must be >= 0");
  }
  if (!(shed_below > 0.0 && shed_below < recover_above &&
        recover_above <= degraded_below &&
        degraded_below < healthy_above && healthy_above <= 1.0)) {
    throw std::invalid_argument(
        "AdmissionController: need 0 < shed_below < recover_above <= "
        "degraded_below < healthy_above <= 1");
  }
}

AdmissionController::AdmissionController(AdmissionOptions options,
                                         const ClockSource& clock,
                                         MetricRegistry* registry)
    : options_(options),
      clock_(&clock),
      tokens_(options.bucket_capacity),
      last_refill_ns_(clock.now_ns()) {
  options_.validate();
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<MetricRegistry>();
    registry = owned_registry_.get();
  }
  registry_ = registry;
  admitted_metric_ = registry_->counter(
      "confcall_admission_admitted_total",
      "Arrivals admitted at full quality by the token bucket");
  admitted_degraded_metric_ = registry_->counter(
      "confcall_admission_degraded_total",
      "Arrivals admitted under degraded health (cheap plan tier)");
  shed_metric_ = registry_->counter(
      "confcall_admission_shed_total",
      "Arrivals rejected by admission control (shedding or empty bucket)");
  for (const Health state :
       {Health::kHealthy, Health::kDegraded, Health::kShedding}) {
    transition_metric_[static_cast<std::size_t>(state)] = registry_->counter(
        "confcall_admission_health_transitions_total",
        "Health-machine transitions, labelled by the state entered",
        {{"to", health_name(state)}});
  }
  tokens_metric_ = registry_->gauge(
      "confcall_admission_tokens",
      "Token-bucket fill after the most recent admit()");
  tokens_metric_.set(tokens_);
}

void AdmissionController::refill_locked() {
  const std::uint64_t now = clock_->now_ns();
  if (now > last_refill_ns_) {
    const double elapsed_sec =
        static_cast<double>(now - last_refill_ns_) * 1e-9;
    tokens_ = std::min(options_.bucket_capacity,
                       tokens_ + elapsed_sec * options_.refill_per_sec);
  }
  last_refill_ns_ = now;
  // Keep the gauge honest on every refill path, not only admit():
  // the SLO controller's setters refill too, and a stale gauge would
  // desynchronize the scrape from tokens().
  tokens_metric_.set(tokens_);
}

void AdmissionController::step_health_locked() {
  const double fill = tokens_ / options_.bucket_capacity;
  Health next = health_;
  switch (health_) {
    case Health::kHealthy:
      if (fill < options_.shed_below) {
        next = Health::kShedding;
      } else if (fill < options_.degraded_below) {
        next = Health::kDegraded;
      }
      break;
    case Health::kDegraded:
      if (fill < options_.shed_below) {
        next = Health::kShedding;
      } else if (fill > options_.healthy_above) {
        next = Health::kHealthy;
      }
      break;
    case Health::kShedding:
      // Stepwise recovery only: shedding can never jump straight back to
      // healthy, no matter how full the bucket refilled.
      if (fill > options_.recover_above) {
        next = Health::kDegraded;
      }
      break;
  }
  if (next != health_) {
    health_ = next;
    transition_metric_[static_cast<std::size_t>(next)].inc();
  }
}

AdmissionController::Decision AdmissionController::admit(double cost) {
  if (!(cost > 0.0)) {
    throw std::invalid_argument("AdmissionController: cost must be > 0");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  refill_locked();
  step_health_locked();
  if (health_ == Health::kShedding || tokens_ < cost) {
    shed_metric_.inc();
    tokens_metric_.set(tokens_);
    return Decision::kShed;
  }
  tokens_ -= cost;
  tokens_metric_.set(tokens_);
  if (health_ == Health::kDegraded) {
    admitted_degraded_metric_.inc();
    return Decision::kAdmitDegraded;
  }
  admitted_metric_.inc();
  return Decision::kAdmit;
}

AdmissionOptions AdmissionController::options() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return options_;
}

void AdmissionController::set_refill_per_sec(double refill_per_sec) {
  if (!(refill_per_sec >= 0.0)) {
    throw std::invalid_argument(
        "AdmissionController: refill_per_sec must be >= 0");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  // Settle the elapsed time at the old rate before the new one applies.
  refill_locked();
  options_.refill_per_sec = refill_per_sec;
}

void AdmissionController::set_degraded_below(double degraded_below) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!(options_.recover_above <= degraded_below &&
        degraded_below < options_.healthy_above)) {
    throw std::invalid_argument(
        "AdmissionController: set_degraded_below needs recover_above <= "
        "degraded_below < healthy_above");
  }
  options_.degraded_below = degraded_below;
  // Re-judge the current fill against the moved threshold right away so
  // the next admit() already sees the controller's intent.
  refill_locked();
  step_health_locked();
}

Health AdmissionController::health() {
  const std::lock_guard<std::mutex> lock(mutex_);
  refill_locked();
  step_health_locked();
  return health_;
}

double AdmissionController::tokens() {
  const std::lock_guard<std::mutex> lock(mutex_);
  refill_locked();
  return tokens_;
}

std::uint64_t AdmissionController::health_transitions() const {
  std::uint64_t transitions = 0;
  for (const Counter& entered : transition_metric_) {
    transitions += entered.value();
  }
  return transitions;
}

}  // namespace confcall::support
