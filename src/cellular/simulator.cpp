#include "cellular/simulator.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cellular/mobility.h"
#include "cellular/topology.h"
#include "core/planner.h"
#include "core/resilient_planner.h"
#include "prob/rng.h"
#include "support/thread_pool.h"

namespace confcall::cellular {

void OverloadConfig::validate() const {
  if (!enabled) return;
  admission.validate();
  breaker.validate();
  if (round_duration_ns == 0) {
    throw std::invalid_argument(
        "OverloadConfig: round_duration_ns must be >= 1");
  }
  if (step_duration_ns == 0) {
    throw std::invalid_argument(
        "OverloadConfig: step_duration_ns must be >= 1");
  }
  if (resilient_planner && planner_node_limit == 0) {
    throw std::invalid_argument(
        "OverloadConfig: planner_node_limit must be >= 1");
  }
  if (slo.enabled) slo.validate();
}

OverloadStack::OverloadStack(const OverloadConfig& config,
                             const support::ClockSource& clock,
                             support::MetricRegistry* registry)
    : config_(config), clock_(&clock) {
  config_.validate();
  if (!config_.enabled) return;
  if (config_.resilient_planner) {
    std::vector<std::unique_ptr<core::Planner>> chain;
    chain.push_back(std::make_unique<core::TypedExactPlanner>(
        core::Objective::all_of(), config_.planner_node_limit));
    chain.push_back(std::make_unique<core::GreedyPlanner>());
    chain.push_back(std::make_unique<core::BlanketPlanner>());
    resilient_ = std::make_unique<core::ResilientPlanner>(
        std::move(chain), core::ResilientPlanner::Budget{0.0}, clock,
        config_.breaker, registry);
  }
  admission_ = std::make_unique<support::AdmissionController>(
      config_.admission, clock, registry);
  if (!config_.slo.enabled) return;
  if (registry == nullptr) {
    throw std::invalid_argument(
        "OverloadStack: SLO control needs a metric registry");
  }
  slo_ = std::make_unique<support::SloController>(
      config_.slo, *registry, *admission_, clock, config_.round_duration_ns);
  if (resilient_) {
    for (std::size_t i = 0; i + 1 < resilient_->num_tiers(); ++i) {
      slo_->add_breaker(&resilient_->mutable_breaker(i));
    }
  }
}

void OverloadStack::configure(LocationService::Config& service) const {
  if (!admission_) return;
  if (resilient_) service.planner = resilient_.get();
  service.clock = clock_;
  service.round_duration_ns = config_.round_duration_ns;
}

support::AdmissionController::Decision OverloadStack::admit(
    std::size_t participants, LocationService::LocateContext& context) {
  using Decision = support::AdmissionController::Decision;
  if (!admission_) return Decision::kAdmit;
  const Decision decision =
      admission_->admit(static_cast<double>(participants));
  if (decision == Decision::kShed) return decision;
  if (decision == Decision::kAdmitDegraded) context.plan_cheap = true;
  if (config_.call_deadline_ns != 0) {
    context.deadline = support::Deadline::after(config_.call_deadline_ns,
                                                *clock_);
  }
  return decision;
}

void SimConfig::validate() const {
  if (grid_rows == 0 || grid_cols == 0) {
    throw std::invalid_argument("SimConfig: grid must be at least 1x1");
  }
  if (la_tile_rows == 0 || la_tile_cols == 0) {
    throw std::invalid_argument("SimConfig: LA tiles must be at least 1x1");
  }
  if (num_users == 0) {
    throw std::invalid_argument("SimConfig: num_users must be >= 1");
  }
  if (!(stay_probability >= 0.0 && stay_probability <= 1.0)) {
    throw std::invalid_argument(
        "SimConfig: stay_probability must be in [0, 1]");
  }
  if (!(call_rate >= 0.0 && call_rate <= 1.0)) {
    throw std::invalid_argument("SimConfig: call_rate must be in [0, 1]");
  }
  if (group_min == 0) {
    throw std::invalid_argument("SimConfig: group_min must be >= 1");
  }
  if (group_min > group_max) {
    throw std::invalid_argument("SimConfig: group_min exceeds group_max");
  }
  if (group_max > num_users) {
    throw std::invalid_argument("SimConfig: group_max exceeds num_users");
  }
  faults.validate();
  burst.validate();
  overload.validate();
  // Service-level rules (paging rounds, detection model, retry policy,
  // policy parameters) are checked once, in LocationService::Config.
  service_config().validate();
  if (faults.any_enabled() && paging_policy == PagingPolicy::kAdaptive) {
    throw std::invalid_argument(
        "SimConfig: the adaptive policy assumes a fault-free network");
  }
  if (overload.enabled && paging_policy == PagingPolicy::kAdaptive) {
    throw std::invalid_argument(
        "SimConfig: the adaptive policy assumes the full delay budget "
        "(no admission control)");
  }
}

LocationService::Config SimConfig::service_config() const {
  LocationService::Config service_config;
  service_config.report_policy = report_policy;
  service_config.timer_period = timer_period;
  service_config.distance_threshold = distance_threshold;
  service_config.paging_policy = paging_policy;
  service_config.profile_kind = profile_kind;
  service_config.max_paging_rounds = max_paging_rounds;
  service_config.laplace_alpha = laplace_alpha;
  service_config.last_seen_horizon = last_seen_horizon;
  service_config.detection_probability = detection_probability;
  service_config.collision_losses = collision_losses;
  service_config.retry = retry;
  service_config.enable_plan_cache = enable_plan_cache;
  return service_config;
}

std::size_t SimReport::rounds_percentile(double p) const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t count : rounds_histogram) total += count;
  if (total == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      p * static_cast<double>(total) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t r = 0; r < rounds_histogram.size(); ++r) {
    seen += rounds_histogram[r];
    if (seen >= target) return r;
  }
  return rounds_histogram.size() - 1;
}

void SimReport::merge(const SimReport& other) {
  steps += other.steps;
  calls_arrived += other.calls_arrived;
  calls_served += other.calls_served;
  calls_completed += other.calls_completed;
  calls_shed += other.calls_shed;
  calls_degraded_admit += other.calls_degraded_admit;
  calls_deadline_limited += other.calls_deadline_limited;
  breaker_trips += other.breaker_trips;
  breaker_skips += other.breaker_skips;
  planner_failovers += other.planner_failovers;
  health_transitions += other.health_transitions;
  bursts_entered += other.bursts_entered;
  slo_control_steps += other.slo_control_steps;
  slo_breaches += other.slo_breaches;
  slo_pre_breach_signals += other.slo_pre_breach_signals;
  if (rounds_histogram.size() < other.rounds_histogram.size()) {
    rounds_histogram.resize(other.rounds_histogram.size(), 0);
  }
  for (std::size_t r = 0; r < other.rounds_histogram.size(); ++r) {
    rounds_histogram[r] += other.rounds_histogram[r];
  }
  reports_sent += other.reports_sent;
  cells_paged_total += other.cells_paged_total;
  fallback_pages += other.fallback_pages;
  missed_detections += other.missed_detections;
  reports_lost += other.reports_lost;
  outage_pages += other.outage_pages;
  dropped_rounds += other.dropped_rounds;
  retries_total += other.retries_total;
  backoff_rounds += other.backoff_rounds;
  calls_degraded += other.calls_degraded;
  calls_abandoned += other.calls_abandoned;
  forced_registrations += other.forced_registrations;
  budget_exhaustions += other.budget_exhaustions;
  faults_injected.outages_started += other.faults_injected.outages_started;
  faults_injected.reports_dropped += other.faults_injected.reports_dropped;
  faults_injected.rounds_dropped += other.faults_injected.rounds_dropped;
  plan_cache_hits += other.plan_cache_hits;
  plan_cache_misses += other.plan_cache_misses;
  pages_per_call.merge(other.pages_per_call);
  rounds_per_call.merge(other.rounds_per_call);
  metrics.merge(other.metrics);
}

SimReport run_simulation(const SimConfig& config) {
  config.validate();
  const GridTopology grid(config.grid_rows, config.grid_cols,
                          config.toroidal, config.neighborhood);
  const LocationAreas areas =
      LocationAreas::tiles(grid, config.la_tile_rows, config.la_tile_cols);
  const MarkovMobility mobility(grid, config.stay_probability);
  prob::Rng rng(config.seed);

  // Scatter users uniformly; the service registers everyone on attach.
  std::vector<CellId> user_cells = scatter_users(grid, config.num_users, rng);

  // The virtual clock: everything time-driven (token refill, deadlines,
  // breaker cooldowns) reads it, so the run is deterministic regardless
  // of wall-clock speed or thread placement.
  support::ManualClock clock;
  const OverloadConfig& overload = config.overload;
  // The per-run registry (collect_metrics, or the SLO controller's
  // sensor). Declared before the stack and service so the handles they
  // hold never outlive it.
  std::unique_ptr<support::MetricRegistry> registry;
  if (config.collect_metrics || (overload.enabled && overload.slo.enabled)) {
    registry = std::make_unique<support::MetricRegistry>();
  }
  LocationService::Config service_cfg = config.service_config();
  if (registry) service_cfg.metrics = ServiceMetrics::create(*registry);
  OverloadStack stack(overload, clock, registry.get());
  stack.configure(service_cfg);

  LocationService service(grid, areas, mobility, service_cfg, user_cells);
  // The fault stream is separate from the simulation stream, so a plan
  // with all rates zero leaves the run byte-identical to a fault-free
  // build. The adaptive policy refuses any attached plan (validate()
  // already guarantees its rates are zero), so it runs bare.
  FaultPlan faults(config.faults, grid.num_cells());
  if (config.paging_policy != PagingPolicy::kAdaptive) {
    service.attach_faults(&faults);
  }

  // Arrival workload: the classic Bernoulli stream, or the Markov-
  // modulated on/off stream when bursts are enabled (burst rates then
  // replace call_rate).
  const CallGenerator calls(config.call_rate, config.num_users,
                            config.group_min, config.group_max);
  std::optional<BurstyCallGenerator> bursty;
  if (config.burst.enabled) {
    bursty.emplace(config.burst, config.num_users, config.group_min,
                   config.group_max);
  }
  SimReport report;

  const auto move_users = [&] {
    clock.advance(overload.step_duration_ns);
    faults.begin_step();
    for (CellId& cell : user_cells) cell = mobility.step(cell, rng);
    report.reports_sent += service.observe_step(user_cells);
    // Control steps land on the virtual clock's period grid, so the
    // loop is as deterministic as the rest of the run.
    if (stack.slo()) stack.slo()->maybe_step();
  };

  // One traffic step: draw an arrival, run it through admission and the
  // locate path. `record` gates every SimReport write so warmup traffic
  // (config.warmup_calls) exercises the full stack — draining buckets,
  // tripping breakers, feeding the SLO controller — without polluting
  // the measured window.
  const auto place_call = [&](bool record) {
    const CallEvent event =
        bursty ? bursty->maybe_call(rng) : calls.maybe_call(rng);
    if (event.participants.empty()) return;
    if (record) ++report.calls_arrived;

    LocationService::LocateContext context;
    if (stack.admit(event.participants.size(), context) ==
        support::AdmissionController::Decision::kShed) {
      if (record) ++report.calls_shed;
      return;
    }
    if (record && context.plan_cheap) ++report.calls_degraded_admit;

    std::vector<CellId> true_cells;
    true_cells.reserve(event.participants.size());
    for (const UserId user : event.participants) {
      true_cells.push_back(user_cells[user]);
    }
    // Served through the batch API (a batch of one arrival per step):
    // locate_many is outcome-identical to locate() by contract, so the
    // report is unchanged while every simulated call exercises the batch
    // entry point. The daemon does not: its POST /locate goes through
    // ServiceFleet::locate_many, which calls locate() once per request.
    const LocationService::LocateRequest request{event.participants,
                                                 true_cells, context};
    const LocationService::LocateOutcome outcome =
        service.locate_many({&request, 1}, rng).front();
    if (!record) return;

    ++report.calls_served;
    if (!outcome.abandoned) ++report.calls_completed;
    if (outcome.deadline_limited) ++report.calls_deadline_limited;
    if (report.rounds_histogram.size() <= outcome.rounds_used) {
      report.rounds_histogram.resize(outcome.rounds_used + 1, 0);
    }
    ++report.rounds_histogram[outcome.rounds_used];
    report.cells_paged_total += outcome.cells_paged;
    report.fallback_pages += outcome.fallback_pages;
    report.missed_detections += outcome.missed_detections;
    report.outage_pages += outcome.outage_pages;
    report.dropped_rounds += outcome.dropped_rounds;
    report.retries_total += outcome.retries;
    report.backoff_rounds += outcome.backoff_rounds;
    report.forced_registrations += outcome.forced_registrations;
    if (outcome.degraded) ++report.calls_degraded;
    if (outcome.abandoned) ++report.calls_abandoned;
    if (outcome.budget_exhausted) ++report.budget_exhaustions;
    report.pages_per_call.add(static_cast<double>(outcome.cells_paged));
    report.rounds_per_call.add(static_cast<double>(outcome.rounds_used));
  };

  for (std::size_t t = 0; t < config.warmup_steps; ++t) {
    move_users();
    if (config.warmup_calls) place_call(/*record=*/false);
  }
  for (std::size_t t = 0; t < config.steps; ++t) {
    move_users();
    place_call(/*record=*/true);
  }
  report.steps = config.warmup_steps + config.steps;
  if (const core::ResilientPlanner* resilient = stack.resilient()) {
    report.breaker_trips =
        static_cast<std::size_t>(resilient->breaker_trips());
    report.breaker_skips =
        static_cast<std::size_t>(resilient->breaker_skips());
    report.planner_failovers = static_cast<std::size_t>(
        resilient->failovers());
  }
  if (const support::AdmissionController* admission = stack.admission()) {
    report.health_transitions =
        static_cast<std::size_t>(admission->health_transitions());
  }
  if (const support::SloController* slo = stack.slo()) {
    report.slo_control_steps =
        static_cast<std::size_t>(slo->control_steps());
    report.slo_breaches = static_cast<std::size_t>(slo->breaches());
    report.slo_pre_breach_signals =
        static_cast<std::size_t>(slo->pre_breach_signals());
  }
  if (bursty) report.bursts_entered = bursty->bursts_entered();
  report.reports_lost = service.reports_lost();
  report.faults_injected = faults.stats();
  report.plan_cache_hits = service.plan_cache_stats().hits;
  report.plan_cache_misses = service.plan_cache_stats().misses;
  if (registry) report.metrics = registry->snapshot();
  return report;
}

SimBatchReport run_simulation_batch(const SimConfig& base,
                                    std::size_t replications,
                                    std::size_t num_threads) {
  if (replications == 0) {
    throw std::invalid_argument("run_simulation_batch: zero replications");
  }
  base.validate();  // fail fast on the calling thread, not inside a worker

  SimBatchReport batch;
  batch.replications = replications;
  batch.runs.resize(replications);
  const support::ThreadPool pool(num_threads);
  pool.parallel_for(replications, [&](std::size_t r) {
    SimConfig config = base;
    config.seed = prob::mix_seed(base.seed, r);
    config.faults.seed = prob::mix_seed(base.faults.seed, r);
    batch.runs[r] = run_simulation(config);
  });
  for (const SimReport& run : batch.runs) batch.aggregate.merge(run);
  return batch;
}

}  // namespace confcall::cellular
