#include "core/resilient_planner.h"

#include <chrono>
#include <exception>
#include <stdexcept>

namespace confcall::core {

ResilientPlanner::ResilientPlanner(
    std::vector<std::unique_ptr<Planner>> chain, Budget budget,
    const support::ClockSource& clock,
    support::CircuitBreakerOptions breaker_options,
    support::MetricRegistry* registry)
    : chain_(std::move(chain)), budget_(budget), clock_(&clock) {
  if (chain_.empty()) {
    throw std::invalid_argument("ResilientPlanner: empty chain");
  }
  for (const auto& tier : chain_) {
    if (tier == nullptr) {
      throw std::invalid_argument("ResilientPlanner: null tier");
    }
  }
  if (budget_.time_limit_seconds < 0.0) {
    throw std::invalid_argument(
        "ResilientPlanner: negative time limit");
  }
  breaker_options.validate();
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<support::MetricRegistry>();
    registry = owned_registry_.get();
  }
  served_metric_.reserve(chain_.size());
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    served_metric_.push_back(registry->counter(
        "confcall_planner_tier_served_total",
        "plan() calls served per fallback-chain tier (0 = preferred)",
        {{"tier", std::to_string(i)}}));
  }
  failovers_metric_ = registry->counter(
      "confcall_planner_failovers_total",
      "Tier failures and skips across all plan() calls");
  breaker_skips_metric_ = registry->counter(
      "confcall_planner_breaker_skips_total",
      "Tier attempts refused by an open breaker (subset of failovers)");
  plan_latency_metric_ = registry->histogram(
      "confcall_planner_plan_latency_ns",
      support::HistogramSpec::exponential(256.0, 4.0, 16),
      "End-to-end plan() latency on the planner's injected clock "
      "(all-zero under a ManualClock)");
  breakers_.reserve(chain_.size() - 1);
  for (std::size_t i = 0; i + 1 < chain_.size(); ++i) {
    breakers_.push_back(std::make_unique<support::CircuitBreaker>(
        breaker_options, clock, registry,
        support::MetricLabels{{"tier", std::to_string(i)}}));
  }
}

std::unique_ptr<ResilientPlanner> ResilientPlanner::standard(
    Budget budget, support::MetricRegistry* registry) {
  std::vector<std::unique_ptr<Planner>> chain;
  chain.push_back(std::make_unique<TypedExactPlanner>());
  chain.push_back(std::make_unique<GreedyPlanner>());
  chain.push_back(std::make_unique<BlanketPlanner>());
  return std::make_unique<ResilientPlanner>(
      std::move(chain), budget, support::SteadyClockSource::shared(),
      support::CircuitBreakerOptions{}, registry);
}

std::string ResilientPlanner::name() const {
  std::string name = "resilient(";
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    if (i > 0) name += '>';
    name += chain_[i]->name();
  }
  name += ')';
  return name;
}

std::vector<std::uint64_t> ResilientPlanner::served_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(served_metric_.size());
  for (const support::Counter& counter : served_metric_) {
    counts.push_back(counter.value());
  }
  return counts;
}

std::uint64_t ResilientPlanner::breaker_trips() const {
  std::uint64_t trips = 0;
  for (const auto& breaker : breakers_) trips += breaker->trips();
  return trips;
}

Strategy ResilientPlanner::plan(const Instance& instance,
                                std::size_t num_rounds) const {
  return plan_impl(instance, num_rounds, support::Deadline::unbounded());
}

Strategy ResilientPlanner::plan(const Instance& instance,
                                std::size_t num_rounds,
                                support::Deadline deadline) const {
  return plan_impl(instance, num_rounds, deadline);
}

Strategy ResilientPlanner::plan_impl(const Instance& instance,
                                     std::size_t num_rounds,
                                     support::Deadline deadline) const {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  // Latency is observed on the INJECTED clock, not steady_clock: under a
  // ManualClock every call records 0 and the simulator's snapshots stay
  // bit-identical across thread counts and runs.
  const std::uint64_t start_ns = clock_->now_ns();
  const auto observe_latency = [&] {
    plan_latency_metric_.observe(
        static_cast<double>(clock_->now_ns() - start_ns));
  };
  const auto over_budget = [&] {
    if (!deadline.is_unbounded() && deadline.expired(*clock_)) return true;
    if (budget_.time_limit_seconds <= 0.0) return false;
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    return elapsed.count() > budget_.time_limit_seconds;
  };

  std::exception_ptr last_error;
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    const bool final_tier = i + 1 == chain_.size();
    // A non-final tier is not even attempted once the clock ran out:
    // its answer would arrive after the call-setup deadline. The final
    // tier always runs — returning SOMETHING is the whole point. A
    // budget/deadline skip is not the tier's fault, so its breaker sees
    // nothing.
    if (!final_tier && over_budget()) {
      failovers_metric_.inc();
      continue;
    }
    // An open breaker means this tier has been failing recently: skip it
    // before spending any work on it.
    if (!final_tier && !breakers_[i]->allow()) {
      failovers_metric_.inc();
      breaker_skips_metric_.inc();
      continue;
    }
    try {
      Strategy strategy = chain_[i]->plan(instance, num_rounds);
      if (!final_tier && over_budget()) {
        // The tier answered, but too late to use; that counts against
        // its breaker just like a failure — a chronically slow tier
        // must be skipped, not politely waited for.
        breakers_[i]->record_failure();
        failovers_metric_.inc();
        continue;
      }
      if (!final_tier) breakers_[i]->record_success();
      served_metric_[i].inc();
      last_tier_.store(i, std::memory_order_relaxed);
      observe_latency();
      return strategy;
    } catch (const std::invalid_argument&) {
      if (!final_tier) breakers_[i]->record_failure();
      failovers_metric_.inc();
      last_error = std::current_exception();
    } catch (const std::runtime_error&) {
      if (!final_tier) breakers_[i]->record_failure();
      failovers_metric_.inc();
      last_error = std::current_exception();
    }
  }
  observe_latency();
  std::rethrow_exception(last_error);
}

}  // namespace confcall::core
