#include "cellular/service_fleet.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace confcall::cellular {

namespace {

/// Substream tags separating the two randomness lanes every area owns.
/// locate call k of area a draws from substream(mix(area_seed, kLocate), k)
/// and mobility step t from substream(mix(area_seed, kStep), t) — both a
/// pure function of (fleet seed, area, ordinal), never of threads.
constexpr std::uint64_t kLocateStream = 0x10c47e;
constexpr std::uint64_t kStepStream = 0x57e9;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Pins a pool helper to core `shard` % cores the first time it runs an
/// area-task (a locate group or a step) and never again: helpers
/// persist, so steady-state dispatches and steps make no affinity call.
/// Each fleet owns its pool, so a helper only ever serves one fleet and
/// one memo per thread is enough.
void pin_helper_once(std::size_t shard) {
  thread_local bool pinned = false;
  if (pinned) return;
  pinned = true;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  (void)support::pin_current_thread_to_core(
      static_cast<unsigned>(shard % cores));
}

FleetConfig validated(FleetConfig config) {
  config.validate();
  return config;
}

}  // namespace

void FleetConfig::validate() const {
  if (num_shards == 0) {
    throw std::invalid_argument("FleetConfig: num_shards must be >= 1");
  }
  if (num_areas == 0) {
    throw std::invalid_argument("FleetConfig: num_areas must be >= 1");
  }
  faults.validate();
}

ServiceFleet::ServiceFleet(const GridTopology& grid, const LocationAreas& areas,
                           const MarkovMobility& mobility,
                           LocationService::Config base_config,
                           std::vector<CellId> initial_cells,
                           FleetConfig config)
    : grid_(&grid),
      la_(&areas),
      mobility_(&mobility),
      base_config_(std::move(base_config)),
      initial_cells_(std::move(initial_cells)),
      config_(validated(std::move(config))),
      shared_table_(grid, areas, mobility, base_config_.profile_kind,
                    base_config_.last_seen_horizon,
                    SilenceModel{base_config_.report_policy,
                                 base_config_.distance_threshold,
                                 config_.faults.report_loss_rate},
                    SharedPlanTable::kPlansPerArea * config_.num_areas *
                        areas.num_areas()),
      pool_(config_.num_shards) {
  base_config_.shared_plan_table = &shared_table_;
  if (config_.registry != nullptr) {
    support::MetricRegistry& registry = *config_.registry;
    shard_metrics_.resize(config_.num_shards);
    for (std::size_t s = 0; s < config_.num_shards; ++s) {
      const support::MetricLabels labels{{"shard", std::to_string(s)}};
      shard_metrics_[s].tasks =
          registry.counter("confcall_fleet_tasks_total",
                           "Area-tasks executed, by owning shard", labels);
      shard_metrics_[s].task_ns = registry.histogram(
          "confcall_fleet_task_ns",
          support::HistogramSpec::exponential(1000.0, 2.0, 22),
          "Wall time per area-task, by owning shard", labels);
    }
    dispatches_metric_ = registry.counter(
        "confcall_fleet_dispatches_total", "locate_many fleet dispatches");
    shared_entries_metric_ = registry.gauge(
        "confcall_fleet_shared_plan_entries",
        "Strategies resident in the fleet-wide plan table");
    shared_evictions_metric_ = registry.counter(
        "confcall_fleet_shared_plan_evictions_total",
        "Plans the fleet-wide plan table evicted (CLOCK) to make room");
  }
  areas_state_.reserve(config_.num_areas);
  for (std::size_t a = 0; a < config_.num_areas; ++a) {
    areas_state_.push_back(build_area(a));
  }
  area_groups_.resize(config_.num_areas);
}

std::uint64_t ServiceFleet::area_seed(std::size_t area) const noexcept {
  return prob::mix_seed(config_.seed, area);
}

std::unique_ptr<ServiceFleet::AreaState> ServiceFleet::build_area(
    std::size_t area) const {
  auto state = std::make_unique<AreaState>();
  // The copy carries base_config_.tracer into every area: one tracer is
  // shared by all shards. That is safe by the trace.h fleet-lane audit —
  // the root-sampling counter is atomic (exactly 1-in-N fleet-wide), the
  // parent/suppression stacks are thread_local and an area-task runs to
  // completion on one pool thread, and ring appends are mutex'd. The
  // Fleet tracing storm test pins this under TSan.
  LocationService::Config cfg = base_config_;
  if (config_.registry != nullptr) {
    // Per-SHARD label on the locate family: areas sharing a lane share a
    // series (registration is idempotent per (name, labels)).
    cfg.metrics = ServiceMetrics::create(
        *config_.registry,
        {{"shard", std::to_string(shard_of(area))}});
  }
  state->service = std::make_unique<LocationService>(
      *grid_, *la_, *mobility_, std::move(cfg), initial_cells_);
  if (config_.faults.any_enabled()) {
    FaultConfig faults = config_.faults;
    faults.seed = prob::mix_seed(config_.faults.seed, area);
    state->faults.emplace(faults, grid_->num_cells());
    state->service->attach_faults(&*state->faults);
  }
  state->user_cells = initial_cells_;
  return state;
}

void ServiceFleet::run_task(
    std::size_t area, std::span<const Request> requests,
    std::span<LocationService::LocateOutcome> outcomes) {
  const bool instrumented = !shard_metrics_.empty();
  const std::uint64_t start_ns = instrumented ? now_ns() : 0;
  AreaState& state = *areas_state_[area];
  const std::uint64_t locate_seed =
      prob::mix_seed(area_seed(area), kLocateStream);
  std::vector<CellId> true_cells;
  for (const std::size_t idx : area_groups_[area]) {
    const Request& request = requests[idx];
    true_cells.clear();
    true_cells.reserve(request.users.size());
    for (const UserId user : request.users) {
      true_cells.push_back(state.user_cells[user]);
    }
    prob::Rng call_rng =
        prob::Rng::substream(locate_seed, state.locate_counter++);
    outcomes[idx] = state.service->locate(request.users, true_cells, call_rng,
                                          request.context);
  }
  if (instrumented) {
    ShardMetrics& shard = shard_metrics_[shard_of(area)];
    shard.tasks.inc();
    shard.task_ns.observe(static_cast<double>(now_ns() - start_ns));
  }
}

std::vector<LocationService::LocateOutcome> ServiceFleet::locate_many(
    std::span<const Request> requests) {
  std::vector<LocationService::LocateOutcome> outcomes(requests.size());
  if (requests.empty()) return outcomes;

  // Validate before any state is touched: a bad element must not leave a
  // half-executed batch behind. Each request gets the checks its area's
  // locate() would make (the fleet supplies the true cells itself).
  for (const Request& request : requests) {
    if (request.area >= config_.num_areas) {
      throw std::invalid_argument("ServiceFleet: area out of range");
    }
    areas_state_[request.area]->service->check_call(request.users,
                                                    request.context);
  }

  // Group by area, preserving within-area request order (the scatter
  // half; index-addressed outcome slots are the gather half). Groups are
  // emptied here, not after the tasks ran, so a dispatch that threw
  // mid-task leaves nothing behind for the next one.
  for (const std::size_t area : active_areas_) area_groups_[area].clear();
  active_areas_.clear();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::vector<std::size_t>& group = area_groups_[requests[i].area];
    if (group.empty()) active_areas_.push_back(requests[i].area);
    group.push_back(i);
  }
  std::sort(active_areas_.begin(), active_areas_.end());

  // One pool task per touched area, the way step_all runs every area.
  // Areas are the unit of state, so which thread runs a task never
  // changes its outcome.
  const std::thread::id caller = std::this_thread::get_id();
  pool_.parallel_for(active_areas_.size(), [&](std::size_t task) {
    const std::size_t area = active_areas_[task];
    if (config_.pin_threads && std::this_thread::get_id() != caller) {
      pin_helper_once(shard_of(area));
    }
    run_task(area, requests, outcomes);
  });

  dispatches_metric_.inc();
  export_shared_table_metrics();
  return outcomes;
}

void ServiceFleet::step_all(std::size_t steps) {
  if (steps == 0) return;
  // Area-major: one task per area runs all `steps` back to back. Step t
  // of area a draws only from substream (a's step seed, t) and from a's
  // own fault plan, and no locate runs inside the call, so this equals
  // `steps` one-step calls bit for bit — at one pool dispatch.
  const std::thread::id caller = std::this_thread::get_id();
  pool_.parallel_for(config_.num_areas, [&](std::size_t area) {
    if (config_.pin_threads && std::this_thread::get_id() != caller) {
      pin_helper_once(shard_of(area));
    }
    AreaState& state = *areas_state_[area];
    const std::uint64_t step_seed =
        prob::mix_seed(area_seed(area), kStepStream);
    for (std::size_t t = 0; t < steps; ++t) {
      prob::Rng step_rng =
          prob::Rng::substream(step_seed, state.step_counter++);
      if (state.faults) state.faults->begin_step();
      for (CellId& cell : state.user_cells) {
        cell = mobility_->step(cell, step_rng);
      }
      (void)state.service->observe_step(state.user_cells);
    }
  });
}

void ServiceFleet::export_shared_table_metrics() {
  if (config_.registry == nullptr) return;
  // Entries and evictions move only when a plan lands in the table, which
  // only a plan-cache miss does: an all-hit dispatch skips the sweep over
  // every stripe.
  const std::uint64_t inserts = shared_table_.plans.inserts();
  if (inserts == exported_shared_inserts_) return;
  exported_shared_inserts_ = inserts;
  const auto stats = shared_table_.plans.stats();
  shared_evictions_metric_.inc(stats.evictions - exported_shared_evictions_);
  exported_shared_evictions_ = stats.evictions;
  shared_entries_metric_.set(static_cast<double>(stats.entries));
}

std::string ServiceFleet::area_section_name(std::size_t area) {
  return "service_fleet_area_" + std::to_string(area);
}

void ServiceFleet::add_state_sections(support::StateBundle& bundle) const {
  support::StateWriter writer;
  writer.put_u64(config_.num_areas);
  writer.put_u64(initial_cells_.size());
  writer.put_u64(config_.seed);
  writer.put_u64(grid_->num_cells());
  for (const auto& area : areas_state_) {
    writer.put_u64(area->locate_counter);
    writer.put_u64(area->step_counter);
    for (const CellId cell : area->user_cells) writer.put_u32(cell);
  }
  bundle.add(kStateSection, kStateVersion, std::move(writer).take());
  for (std::size_t a = 0; a < config_.num_areas; ++a) {
    bundle.add(area_section_name(a), LocationService::kStateVersion,
               areas_state_[a]->service->save_state());
  }
}

bool ServiceFleet::restore_state_sections(const support::StateBundle& bundle) {
  areas_restored_.store(0, std::memory_order_relaxed);
  const support::StateSection* master = bundle.find(kStateSection);
  if (master == nullptr || master->version != kStateVersion) return false;
  std::vector<std::unique_ptr<AreaState>> fresh;
  try {
    support::StateReader reader(master->payload);
    if (reader.get_u64() != config_.num_areas) return false;
    if (reader.get_u64() != initial_cells_.size()) return false;
    if (reader.get_u64() != config_.seed) return false;
    if (reader.get_u64() != grid_->num_cells()) return false;
    fresh.reserve(config_.num_areas);
    for (std::size_t a = 0; a < config_.num_areas; ++a) {
      auto state = build_area(a);
      state->locate_counter = reader.get_u64();
      state->step_counter = reader.get_u64();
      for (CellId& cell : state->user_cells) {
        cell = reader.get_u32();
        if (cell >= grid_->num_cells()) return false;
      }
      const support::StateSection* section =
          bundle.find(area_section_name(a));
      if (section == nullptr ||
          !state->service->restore_state(section->payload,
                                         section->version)) {
        return false;
      }
      fresh.push_back(std::move(state));
      areas_restored_.store(fresh.size(), std::memory_order_relaxed);
    }
    if (!reader.at_end()) return false;
  } catch (const support::StateFormatError&) {
    return false;
  }
  // Every area parsed, validated and restored — swap the whole fleet at
  // once (the all-or-nothing contract, fleet-wide).
  areas_state_ = std::move(fresh);
  return true;
}

}  // namespace confcall::cellular
