// Degraded-mode planning: a fallback chain of planners.
//
// Planners fail in practice: the typed exact solver rejects instances
// whose node count exceeds its limit, a capped planner rejects infeasible
// budgets, and a deadline-bound deployment cannot wait for a slow tier.
// A ResilientPlanner wraps an ordered chain (preferred tier first,
// cheapest last) and guarantees an answer: each tier is tried in turn,
// std::invalid_argument / std::runtime_error failures and wall-clock
// budget overruns degrade to the next tier, and the tier that finally
// served each call is counted so deployments can watch their degradation
// rate. The last tier is the safety net — it runs even when the budget
// is already blown (a blanket plan is instant and always valid).
//
// Each non-final tier additionally sits behind a support::CircuitBreaker:
// a tier that keeps failing (or keeps answering too late) is skipped
// outright — BEFORE burning budget on it — until its cooldown elapses and
// a half-open probe lets it earn its place back. Breakers read time from
// the injected ClockSource, so breaker behaviour is deterministic under a
// ManualClock (the E14 bench and the soak harness rely on this).
//
// plan() is const like every Planner, but telemetry and breaker state
// mutate under it; all of that is atomic or internally locked, so one
// ResilientPlanner may be shared across threads (the plan cache shares
// planners across parallel simulation replications).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.h"
#include "support/metrics.h"
#include "support/overload.h"

namespace confcall::core {

/// A planner that degrades through a fallback chain instead of failing.
class ResilientPlanner final : public Planner {
 public:
  struct Budget {
    /// Wall-clock limit per plan() call, in seconds. When a tier leaves
    /// less than nothing on the clock, remaining non-final tiers are
    /// skipped (their result would arrive after the call-setup deadline)
    /// and the final tier serves. 0 = unlimited.
    double time_limit_seconds = 0.0;
  };

  /// Takes ownership of the chain (preferred first). Breakers guard
  /// every non-final tier and read `clock` (which must outlive the
  /// planner). Telemetry (per-tier served counts, failovers, breaker
  /// skips/trips, plan latency) lives in a support::MetricRegistry: pass
  /// one to share a registry with other components (it must outlive the
  /// planner), or pass nullptr and the planner owns a private registry —
  /// the telemetry getters below work either way. Throws
  /// std::invalid_argument on an empty chain, a null entry, a negative
  /// time limit, or bad breaker options.
  explicit ResilientPlanner(
      std::vector<std::unique_ptr<Planner>> chain, Budget budget = Budget{0.0},
      const support::ClockSource& clock = support::SteadyClockSource::shared(),
      support::CircuitBreakerOptions breaker_options = {},
      support::MetricRegistry* registry = nullptr);

  /// The standard production chain: typed-exact -> greedy Fig. 1 ->
  /// blanket. `registry` as in the constructor (nullptr = private).
  static std::unique_ptr<ResilientPlanner> standard(
      Budget budget = Budget{0.0},
      support::MetricRegistry* registry = nullptr);

  /// "resilient(exact-typed>greedy-fig1>blanket)".
  [[nodiscard]] std::string name() const override;

  /// Tries each tier in order; returns the first strategy produced in
  /// budget. Only if every tier fails (possible when even the last tier
  /// rejects the instance) does the last tier's error propagate.
  [[nodiscard]] Strategy plan(const Instance& instance,
                              std::size_t num_rounds) const override;

  /// Deadline-aware planning: like plan(), but non-final tiers are
  /// skipped once `deadline` (read against this planner's clock) has
  /// expired — the propagated call-setup deadline replaces the per-call
  /// seconds budget. The final tier still always runs.
  [[nodiscard]] Strategy plan(const Instance& instance,
                              std::size_t num_rounds,
                              support::Deadline deadline) const;

  /// How many plan() calls each tier served (index-aligned), read from
  /// the {tier} series. Reporting paths that print several series should
  /// read one registry snapshot instead of racing getters.
  [[nodiscard]] std::vector<std::uint64_t> served_counts() const;

  /// Tier index that served the most recent successful plan().
  [[nodiscard]] std::size_t last_tier() const noexcept {
    return last_tier_.load(std::memory_order_relaxed);
  }

  /// Total tier failures/skips across all plan() calls (a measure of how
  /// often the deployment is degraded).
  [[nodiscard]] std::uint64_t failovers() const noexcept {
    return failovers_metric_.value();
  }

  /// Tier attempts refused by an open breaker (a subset of failovers()).
  [[nodiscard]] std::uint64_t breaker_skips() const noexcept {
    return breaker_skips_metric_.value();
  }

  /// Breaker trips summed across all non-final tiers.
  [[nodiscard]] std::uint64_t breaker_trips() const;

  /// The breaker guarding non-final tier `index` (for telemetry).
  [[nodiscard]] const support::CircuitBreaker& breaker(
      std::size_t index) const {
    return *breakers_.at(index);
  }

  /// Mutable access to the same breaker, for an actuator that tunes it
  /// (the SLO controller's cooldown loop).
  [[nodiscard]] support::CircuitBreaker& mutable_breaker(std::size_t index) {
    return *breakers_.at(index);
  }

  [[nodiscard]] std::size_t num_tiers() const noexcept {
    return chain_.size();
  }

  /// The tier planners, for inspection (e.g. their names).
  [[nodiscard]] const Planner& tier(std::size_t index) const {
    return *chain_.at(index);
  }

 private:
  [[nodiscard]] Strategy plan_impl(const Instance& instance,
                                   std::size_t num_rounds,
                                   support::Deadline deadline) const;

  std::vector<std::unique_ptr<Planner>> chain_;
  Budget budget_;
  const support::ClockSource* clock_;
  /// One breaker per non-final tier (the safety-net tier is never
  /// broken: returning SOMETHING is its whole job).
  mutable std::vector<std::unique_ptr<support::CircuitBreaker>> breakers_;
  mutable std::atomic<std::size_t> last_tier_{0};
  /// Holds the confcall_planner_* series when no registry is injected.
  std::unique_ptr<support::MetricRegistry> owned_registry_;
  std::vector<support::Counter> served_metric_;  // per tier, {tier=i}
  support::Counter failovers_metric_;
  support::Counter breaker_skips_metric_;
  support::Histogram plan_latency_metric_;
};

}  // namespace confcall::core
