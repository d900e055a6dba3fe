#include "support/slo_controller.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

namespace confcall::support {

const char* slo_health_name(SloHealth health) noexcept {
  switch (health) {
    case SloHealth::kOk:
      return "ok";
    case SloHealth::kDegrading:
      return "degrading";
    case SloHealth::kBreached:
      return "breached";
  }
  return "?";
}

void SloOptions::validate() const {
  if (target_p99_ns == 0) {
    throw std::invalid_argument("SloController: target_p99_ns must be >= 1");
  }
  if (control_period_ns == 0) {
    throw std::invalid_argument(
        "SloController: control_period_ns must be >= 1");
  }
  if (!(additive_increase > 0.0)) {
    throw std::invalid_argument(
        "SloController: additive_increase must be > 0");
  }
  if (!(multiplicative_decrease > 0.0 && multiplicative_decrease < 1.0)) {
    throw std::invalid_argument(
        "SloController: multiplicative_decrease must be in (0, 1)");
  }
  if (!(min_refill_per_sec > 0.0 &&
        min_refill_per_sec <= max_refill_per_sec)) {
    throw std::invalid_argument(
        "SloController: need 0 < min_refill_per_sec <= max_refill_per_sec");
  }
  if (!(degrade_step > 0.0 && degrade_step < 1.0)) {
    throw std::invalid_argument(
        "SloController: degrade_step must be in (0, 1)");
  }
  if (min_interval_calls == 0) {
    throw std::invalid_argument(
        "SloController: min_interval_calls must be >= 1");
  }
  if (breach_horizon_periods == 0) {
    throw std::invalid_argument(
        "SloController: breach_horizon_periods must be >= 1");
  }
  if (!(recovery_ewma_alpha > 0.0 && recovery_ewma_alpha <= 1.0)) {
    throw std::invalid_argument(
        "SloController: recovery_ewma_alpha must be in (0, 1]");
  }
  if (!(cooldown_recovery_multiplier > 0.0)) {
    throw std::invalid_argument(
        "SloController: cooldown_recovery_multiplier must be > 0");
  }
  if (min_cooldown_ns == 0 || min_cooldown_ns > max_cooldown_ns) {
    throw std::invalid_argument(
        "SloController: need 1 <= min_cooldown_ns <= max_cooldown_ns");
  }
}

SloController::SloController(SloOptions options, MetricRegistry& registry,
                             AdmissionController& admission,
                             const ClockSource& clock,
                             std::uint64_t round_duration_ns,
                             std::string rounds_histogram)
    : options_(options),
      registry_(&registry),
      admission_(&admission),
      clock_(&clock),
      round_duration_ns_(round_duration_ns),
      rounds_histogram_(std::move(rounds_histogram)) {
  options_.validate();
  if (round_duration_ns_ == 0) {
    throw std::invalid_argument(
        "SloController: round_duration_ns must be >= 1");
  }
  if (&admission_->registry() != registry_) {
    throw std::invalid_argument(
        "SloController: the admission controller must count into the "
        "controller's registry (its shed fraction is sensed there)");
  }
  const AdmissionOptions admitted = admission_->options();
  refill_per_sec_ = std::clamp(admitted.refill_per_sec,
                               options_.min_refill_per_sec,
                               options_.max_refill_per_sec);
  degrade_threshold_ = admitted.degraded_below;
  degrade_lo_ = admitted.recover_above;
  // Strictly under healthy_above so the hysteresis chain's validation
  // keeps holding at the top of the actuator range.
  degrade_hi_ = admitted.healthy_above - 1e-9;
  target_metric_ = registry_->gauge("confcall_slo_target_p99_ns",
                                    "Configured admitted-latency p99 SLO");
  observed_metric_ = registry_->gauge(
      "confcall_slo_observed_p99_ns",
      "Admitted-call p99 of the last measured control interval");
  shed_fraction_metric_ = registry_->gauge(
      "confcall_slo_window_shed_fraction",
      "Shed fraction of the last control interval's arrivals");
  health_metric_ = registry_->gauge(
      "confcall_slo_health",
      "Controller verdict: 0 = ok, 1 = degrading (projected breach), "
      "2 = breached");
  refill_metric_ = registry_->gauge(
      "confcall_slo_refill_per_sec",
      "Token-rate actuator position on the admission controller");
  degrade_metric_ = registry_->gauge(
      "confcall_slo_degrade_threshold",
      "Degrade-threshold actuator position on the admission controller");
  cooldown_metric_ = registry_->gauge(
      "confcall_slo_breaker_cooldown_ns",
      "Breaker-cooldown actuator derived from the recovery-time EWMA "
      "(0 until the first observed recovery)");
  steps_metric_ = registry_->counter("confcall_slo_control_steps_total",
                                     "Control periods evaluated");
  breaches_metric_ = registry_->counter(
      "confcall_slo_breaches_total",
      "Control intervals whose admitted p99 exceeded the SLO");
  pre_breach_metric_ = registry_->counter(
      "confcall_slo_pre_breach_signals_total",
      "Control intervals flagged degrading before any breach");
  target_metric_.set(static_cast<double>(options_.target_p99_ns));
  refill_metric_.set(refill_per_sec_);
  degrade_metric_.set(degrade_threshold_);
  next_control_ns_ = clock_->now_ns() + options_.control_period_ns;
  prev_ = registry_->snapshot();
}

void SloController::add_breaker(CircuitBreaker* breaker) {
  if (breaker == nullptr) {
    throw std::invalid_argument("SloController: breaker must be non-null");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  breakers_.push_back(breaker);
  recoveries_consumed_.push_back(breaker->recoveries());
}

bool SloController::maybe_step() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t now = clock_->now_ns();
  if (now < next_control_ns_) return false;
  // Catch up onto the fixed period grid: however late the poll, the
  // next boundary stays a multiple of the period from construction, so
  // ManualClock runs land identical steps regardless of poll cadence.
  while (next_control_ns_ <= now) {
    next_control_ns_ += options_.control_period_ns;
  }
  step_locked();
  return true;
}

void SloController::step() {
  const std::lock_guard<std::mutex> lock(mutex_);
  step_locked();
}

void SloController::step_locked() {
  steps_metric_.inc();

  // Sensor: the interval view since the previous control step.
  RegistrySnapshot current = registry_->snapshot();
  const RegistrySnapshot interval = current.delta(prev_);
  prev_ = std::move(current);

  // Label-summed sensing: sum_by folds every series of the family into
  // one label-erased histogram, so the same controller reads the single
  // unlabelled series (one service) or the fleet-wide {shard="s"} union
  // identically. Because the label-erased sum is invariant under
  // resharding, the control trajectory — and with it every admission
  // decision — is bit-identical at shards 1/2/8 (the E21 gate).
  const std::optional<MetricSnapshot> rounds =
      interval.sum_by(rounds_histogram_);
  const std::uint64_t interval_calls = rounds ? rounds->histogram.count : 0;

  // Shed fraction of the interval's arrivals (admitted + degraded +
  // shed), for /healthz and the windowed gauge.
  const auto interval_counter = [&interval](const char* name) {
    const std::optional<MetricSnapshot> metric = interval.sum_by(name);
    return metric ? metric->counter_value : std::uint64_t{0};
  };
  const std::uint64_t shed =
      interval_counter("confcall_admission_shed_total");
  const std::uint64_t arrivals =
      shed + interval_counter("confcall_admission_admitted_total") +
      interval_counter("confcall_admission_degraded_total");
  shed_fraction_ = arrivals == 0 ? 0.0
                                 : static_cast<double>(shed) /
                                       static_cast<double>(arrivals);
  shed_fraction_metric_.set(shed_fraction_);

  // Breaker-cooldown actuator: fold newly completed recoveries into the
  // EWMA, then re-derive every guarded tier's cooldown from it.
  bool ewma_moved = false;
  for (std::size_t i = 0; i < breakers_.size(); ++i) {
    const std::uint64_t recovered = breakers_[i]->recoveries();
    if (recovered > recoveries_consumed_[i]) {
      recoveries_consumed_[i] = recovered;
      const auto sample =
          static_cast<double>(breakers_[i]->last_recovery_ns());
      recovery_ewma_ns_ =
          recovery_ewma_ns_ == 0.0
              ? sample
              : options_.recovery_ewma_alpha * sample +
                    (1.0 - options_.recovery_ewma_alpha) * recovery_ewma_ns_;
      ewma_moved = true;
    }
  }
  if (ewma_moved) {
    const double derived =
        options_.cooldown_recovery_multiplier * recovery_ewma_ns_;
    cooldown_ns_ = std::clamp(
        static_cast<std::uint64_t>(derived), options_.min_cooldown_ns,
        options_.max_cooldown_ns);
    for (CircuitBreaker* breaker : breakers_) {
      breaker->set_cooldown_ns(cooldown_ns_);
    }
    cooldown_metric_.set(static_cast<double>(cooldown_ns_));
  }

  // Thin interval: hold every latency-driven actuator and the health
  // verdict (anti-windup — an idle window must not ramp the token rate
  // or erase a standing degrading signal).
  if (interval_calls < options_.min_interval_calls) return;

  const double p99_rounds = rounds->histogram.quantile(0.99);
  const auto p99_ns = static_cast<std::uint64_t>(
      p99_rounds * static_cast<double>(round_duration_ns_));
  if (have_measurement_) {
    previous_p99_ns_ = observed_p99_ns_;
    have_previous_ = true;
  }
  observed_p99_ns_ = p99_ns;
  have_measurement_ = true;
  observed_metric_.set(static_cast<double>(p99_ns));

  // Health: breached on an over-target interval; degrading when the
  // linear trend projects crossing the target within the horizon.
  const bool breached = p99_ns > options_.target_p99_ns;
  bool degrading = false;
  if (!breached && have_previous_ && p99_ns > previous_p99_ns_) {
    const std::uint64_t slope = p99_ns - previous_p99_ns_;
    const std::uint64_t projected =
        p99_ns + slope * static_cast<std::uint64_t>(
                             options_.breach_horizon_periods);
    degrading = projected > options_.target_p99_ns;
  }
  slo_health_ = breached    ? SloHealth::kBreached
                : degrading ? SloHealth::kDegrading
                            : SloHealth::kOk;
  health_metric_.set(static_cast<double>(slo_health_));
  if (breached) {
    breaches_metric_.inc();
  } else if (degrading) {
    pre_breach_metric_.inc();
  }

  // AIMD actuators. On a breach the token rate is cut multiplicatively
  // and degradation starts earlier; while in-SLO both recover gently.
  // A degrading verdict already leans on the brake halfway (one degrade
  // step, rate held) so the pre-breach signal acts, not just reports.
  if (breached) {
    refill_per_sec_ = std::max(options_.min_refill_per_sec,
                               refill_per_sec_ *
                                   options_.multiplicative_decrease);
    degrade_threshold_ =
        std::min(degrade_hi_, degrade_threshold_ + options_.degrade_step);
  } else if (degrading) {
    degrade_threshold_ =
        std::min(degrade_hi_, degrade_threshold_ + options_.degrade_step);
  } else {
    refill_per_sec_ = std::min(options_.max_refill_per_sec,
                               refill_per_sec_ + options_.additive_increase);
    degrade_threshold_ =
        std::max(degrade_lo_, degrade_threshold_ - options_.degrade_step);
  }
  admission_->set_refill_per_sec(refill_per_sec_);
  admission_->set_degraded_below(degrade_threshold_);
  refill_metric_.set(refill_per_sec_);
  degrade_metric_.set(degrade_threshold_);
}

std::string SloController::save_state() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  StateWriter writer;
  writer.put_f64(refill_per_sec_);
  writer.put_f64(degrade_threshold_);
  writer.put_f64(recovery_ewma_ns_);
  writer.put_u64(cooldown_ns_);
  writer.put_u64(observed_p99_ns_);
  writer.put_u64(previous_p99_ns_);
  writer.put_u8(have_measurement_ ? 1 : 0);
  writer.put_u8(have_previous_ ? 1 : 0);
  return std::move(writer).take();
}

bool SloController::restore_state(std::string_view payload,
                                  std::uint32_t version) {
  if (version != kStateVersion) return false;
  try {
    StateReader reader(payload);
    const double refill = reader.get_f64();
    const double degrade = reader.get_f64();
    const double ewma = reader.get_f64();
    const std::uint64_t cooldown = reader.get_u64();
    const std::uint64_t observed = reader.get_u64();
    const std::uint64_t previous = reader.get_u64();
    const bool have_measurement = reader.get_u8() != 0;
    const bool have_previous = reader.get_u8() != 0;
    if (!reader.at_end()) return false;
    // Non-finite actuators would poison every subsequent AIMD step; a
    // checkpoint carrying them is corrupt in a way the checksum cannot
    // see (it was written that way), so reject here.
    if (!std::isfinite(refill) || !std::isfinite(degrade) ||
        !std::isfinite(ewma) || ewma < 0.0) {
      return false;
    }

    const std::lock_guard<std::mutex> lock(mutex_);
    // Clamp back into THIS build's configured ranges: a checkpoint from
    // a run with wider limits must not install an out-of-range actuator.
    refill_per_sec_ = std::clamp(refill, options_.min_refill_per_sec,
                                 options_.max_refill_per_sec);
    degrade_threshold_ = std::clamp(degrade, degrade_lo_, degrade_hi_);
    recovery_ewma_ns_ = ewma;
    cooldown_ns_ = cooldown == 0
                       ? 0
                       : std::clamp(cooldown, options_.min_cooldown_ns,
                                    options_.max_cooldown_ns);
    observed_p99_ns_ = observed;
    previous_p99_ns_ = previous;
    have_measurement_ = have_measurement;
    have_previous_ = have_previous;

    // Re-apply the warm operating point to the actuators themselves —
    // restoring only the controller's bookkeeping would leave the
    // admission controller cold until the first post-restart step.
    admission_->set_refill_per_sec(refill_per_sec_);
    admission_->set_degraded_below(degrade_threshold_);
    if (cooldown_ns_ > 0) {
      for (CircuitBreaker* breaker : breakers_) {
        breaker->set_cooldown_ns(cooldown_ns_);
      }
    }
    refill_metric_.set(refill_per_sec_);
    degrade_metric_.set(degrade_threshold_);
    observed_metric_.set(static_cast<double>(observed_p99_ns_));
    if (cooldown_ns_ > 0) {
      cooldown_metric_.set(static_cast<double>(cooldown_ns_));
    }
    return true;
  } catch (const StateFormatError&) {
    return false;
  }
}

SloHealth SloController::slo_health() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slo_health_;
}

std::uint64_t SloController::observed_p99_ns() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return observed_p99_ns_;
}

double SloController::shed_fraction() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shed_fraction_;
}

double SloController::refill_per_sec() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return refill_per_sec_;
}

double SloController::degrade_threshold() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return degrade_threshold_;
}

std::uint64_t SloController::breaker_cooldown_ns() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cooldown_ns_;
}

}  // namespace confcall::support
