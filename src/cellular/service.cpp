#include "cellular/service.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "cellular/profile.h"
#include "core/adaptive.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/planner.h"
#include "support/state_io.h"

namespace confcall::cellular {

ServiceMetrics ServiceMetrics::create(support::MetricRegistry& registry,
                                      const support::MetricLabels& labels) {
  ServiceMetrics metrics;
  metrics.calls = registry.counter("confcall_locate_calls_total",
                                   "locate() calls served", labels);
  metrics.cache_hits =
      registry.counter("confcall_locate_plan_cache_hits_total",
                       "Planned searches answered from the plan cache",
                       labels);
  metrics.cache_misses =
      registry.counter("confcall_locate_plan_cache_misses_total",
                       "Planned searches that ran the planner", labels);
  metrics.retries = registry.counter(
      "confcall_locate_retries_total",
      "Recovery sweeps run across all locate() calls", labels);
  metrics.abandoned = registry.counter(
      "confcall_locate_abandoned_total",
      "locate() calls that force-registered at least one callee unfound",
      labels);
  metrics.deadline_limited = registry.counter(
      "confcall_locate_deadline_limited_total",
      "locate() calls truncated by their propagated deadline", labels);
  // Pages and EP share one bucket layout so the realized paging cost and
  // the paper's Lemma 2.1 prediction compare bucket-for-bucket.
  const support::HistogramSpec paging_spec =
      support::HistogramSpec::exponential(1.0, 2.0, 12);
  metrics.pages = registry.histogram("confcall_locate_pages", paging_spec,
                                     "Cells paged per locate() call", labels);
  metrics.ep_predicted = registry.histogram(
      "confcall_locate_ep_predicted", paging_spec,
      "Lemma 2.1 expected paging of each planned per-area strategy", labels);
  metrics.rounds = registry.histogram(
      "confcall_locate_rounds", support::HistogramSpec::integers(128),
      "Paging rounds used per locate() call (unit buckets; quantile() "
      "agrees exactly with SimReport::rounds_percentile)",
      labels);
  metrics.batch_size = registry.histogram(
      "confcall_locate_batch_size",
      support::HistogramSpec::exponential(1.0, 2.0, 8),
      "locate_many() batch sizes (one observation per batch)", labels);
  return metrics;
}

namespace {

/// Validated before LocationDatabase construction (which would otherwise
/// surface out-of-range cells as std::out_of_range from area lookups).
std::vector<CellId> checked_initial_cells(const GridTopology& grid,
                                          std::vector<CellId> cells) {
  if (cells.empty()) {
    throw std::invalid_argument("LocationService: no users");
  }
  for (const CellId cell : cells) {
    if (cell >= grid.num_cells()) {
      throw std::invalid_argument("LocationService: initial cell range");
    }
  }
  return cells;
}

std::size_t largest_area(const LocationAreas& areas) {
  std::size_t largest = 0;
  for (std::size_t area = 0; area < areas.num_areas(); ++area) {
    largest = std::max(largest, areas.cells_in(area).size());
  }
  return largest;
}

}  // namespace

void PlanRow::pack(const core::Strategy& strategy, double expected_paging) {
  if (strategy.num_rounds() > 255 ||
      stride_for(strategy.num_cells()) > bytes_.size()) {
    throw std::invalid_argument(
        "PlanRow: a plan needs at most 255 rounds and a cell per row byte");
  }
  set_expected_paging(expected_paging);
  bytes_[8] = static_cast<std::byte>(strategy.num_rounds());
  for (std::size_t r = 0; r < strategy.num_rounds(); ++r) {
    for (const core::CellId cell : strategy.group(r)) {
      bytes_[kHeaderBytes + cell] = static_cast<std::byte>(r);
    }
  }
  std::fill(bytes_.begin() + static_cast<std::ptrdiff_t>(
                                 stride_for(strategy.num_cells())),
            bytes_.end(), std::byte{0});
}

void PlanRow::pack_blanket() {
  set_expected_paging(-1.0);
  bytes_[8] = std::byte{1};
  std::fill(bytes_.begin() + kHeaderBytes, bytes_.end(), std::byte{0});
}

double PlanRow::expected_paging() const noexcept {
  double ep = 0.0;
  std::memcpy(&ep, bytes_.data(), sizeof ep);
  return ep;
}

void PlanRow::set_expected_paging(double expected_paging) noexcept {
  std::memcpy(bytes_.data(), &expected_paging, sizeof expected_paging);
}

core::Strategy PlanRow::to_strategy(std::size_t num_cells) const {
  std::vector<std::vector<core::CellId>> groups(num_rounds());
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    groups[round_of(cell)].push_back(static_cast<core::CellId>(cell));
  }
  return core::Strategy::from_groups(std::move(groups), num_cells);
}

SharedPlanTable::SharedPlanTable(const GridTopology& grid,
                                 const LocationAreas& areas,
                                 const MarkovMobility& mobility,
                                 ProfileKind profile_kind,
                                 std::size_t last_seen_horizon,
                                 const SilenceModel& silence,
                                 std::size_t capacity)
    : plans(capacity, PlanRow::stride_for(largest_area(areas))) {
  if (profile_kind == ProfileKind::kLastSeen) {
    digests.emplace(grid, areas, mobility, last_seen_horizon, silence);
  }
}

void RetryPolicy::validate() const {
  if (backoff_base != 0 && backoff_base > backoff_cap) {
    throw std::invalid_argument(
        "RetryPolicy: backoff_base exceeds backoff_cap");
  }
}

void LocationService::Config::validate() const {
  if (max_paging_rounds == 0) {
    throw std::invalid_argument(
        "LocationService: max_paging_rounds must be >= 1");
  }
  if (max_paging_rounds > 255) {
    throw std::invalid_argument(
        "LocationService: max_paging_rounds must be <= 255 (a plan row "
        "stores each cell's round in one byte)");
  }
  if (timer_period == 0) {
    throw std::invalid_argument("LocationService: timer_period must be >= 1");
  }
  if (distance_threshold == 0) {
    throw std::invalid_argument(
        "LocationService: distance_threshold must be >= 1");
  }
  if (!(laplace_alpha >= 0.0)) {
    throw std::invalid_argument(
        "LocationService: laplace_alpha must be >= 0");
  }
  if (!(detection_probability > 0.0 && detection_probability <= 1.0)) {
    throw std::invalid_argument(
        "LocationService: detection_probability must be in (0, 1]");
  }
  if (detection_probability < 1.0 &&
      paging_policy == PagingPolicy::kAdaptive) {
    throw std::invalid_argument(
        "LocationService: the adaptive policy assumes perfect detection");
  }
  if (planner != nullptr && paging_policy == PagingPolicy::kAdaptive) {
    throw std::invalid_argument(
        "LocationService: planner override is incompatible with the "
        "adaptive policy");
  }
  retry.validate();
}

LocationService::LocationService(const GridTopology& grid,
                                 const LocationAreas& areas,
                                 const MarkovMobility& mobility,
                                 Config config,
                                 std::vector<CellId> initial_cells)
    : grid_(&grid),
      areas_(&areas),
      mobility_(&mobility),
      config_(config),
      db_(checked_initial_cells(grid, initial_cells).size(), areas,
          checked_initial_cells(grid, initial_cells)),
      silence_{config_.report_policy, config_.distance_threshold, 0.0},
      stepped_(db_.num_users(), 0) {
  config_.validate();
  if (config_.profile_kind == ProfileKind::kEmpirical) {
    visit_counts_.assign(num_users() * grid_->num_cells(), 0.0);
  }
  if (config_.profile_kind == ProfileKind::kStationary) {
    stationary_ = mobility_->stationary_distribution();
    // The stationary profile is user-independent, so its per-area
    // restriction can be computed once here instead of per callee per
    // call (profile_for returns a copy of these rows).
    stationary_area_.reserve(areas_->num_areas());
    for (std::size_t area = 0; area < areas_->num_areas(); ++area) {
      stationary_area_.push_back(
          restrict_to_area(stationary_, areas_->cells_in(area)));
    }
  }
  const bool last_seen = config_.profile_kind == ProfileKind::kLastSeen;
  const std::size_t stride = PlanRow::stride_for(largest_area(areas));
  table_ = config_.shared_plan_table;
  // A shared memo fixes the report-loss rate its rows assume, before any
  // fault plan is attached (attach_faults holds the plan to it).
  if (table_ != nullptr && table_->digests) {
    silence_.report_loss = table_->digests->silence().report_loss;
  }
  if (table_ != nullptr &&
      ((table_->digests
            ? !table_->digests->built_for(grid, areas, mobility,
                                          config_.last_seen_horizon, silence_)
            : last_seen) ||
       table_->plans.row_bytes() < stride)) {
    throw std::invalid_argument(
        "LocationService: shared_plan_table was built for another grid, "
        "area layout, mobility model, last_seen_horizon, report policy, "
        "distance threshold or profile kind");
  }
  if (!config_.enable_plan_cache) {
    table_ = nullptr;
  } else if (table_ == nullptr) {
    own_table_ = std::make_unique<SharedPlanTable>(
        grid, areas, mobility, config_.profile_kind,
        config_.last_seen_horizon, silence_,
        SharedPlanTable::kPlansPerArea * areas.num_areas());
    table_ = own_table_.get();
  }
  scratch_.planned =
      PlanRow(table_ != nullptr ? table_->plans.row_bytes() : stride);
}

void LocationService::attach_faults(FaultPlan* faults) {
  if (faults != nullptr &&
      config_.paging_policy == PagingPolicy::kAdaptive) {
    throw std::invalid_argument(
        "LocationService: the adaptive policy assumes a fault-free "
        "network");
  }
  SilenceModel silence = silence_;
  silence.report_loss =
      faults != nullptr ? faults->config().report_loss_rate : 0.0;
  if (silence != silence_ && table_ != nullptr && table_->digests) {
    if (own_table_ == nullptr) {
      throw std::invalid_argument(
          "LocationService: shared_plan_table was built for another "
          "report-loss rate");
    }
    // The memo's digests name rows of the old rate. Resident plans stay
    // valid: each is keyed by the digests of the rows it was planned
    // from.
    own_table_->digests.emplace(*grid_, *areas_, *mobility_,
                                config_.last_seen_horizon, silence);
  }
  silence_ = silence;
  faults_ = faults;
}

template <ReportPolicy P>
bool LocationService::observe_user(UserId user, CellId new_cell) {
  if (!visit_counts_.empty()) {
    visit_counts_[user * grid_->num_cells() + new_cell] += 1.0;
  }
  bool wants_report = false;
  if constexpr (P == ReportPolicy::kOnAreaCrossing) {
    wants_report = areas_->area_of(new_cell) != db_.reported_area(user);
  } else if constexpr (P == ReportPolicy::kOnCellCrossing) {
    wants_report = new_cell != db_.reported_cell(user);
  } else if constexpr (P == ReportPolicy::kEveryTSteps) {
    // The clock advanced before this observation, so it counts the steps
    // since the last report, this one included; reporting at clock == T
    // gives an exact period of T steps.
    wants_report = db_.steps_since_report(user) >= config_.timer_period;
  } else if constexpr (P == ReportPolicy::kDistanceThreshold) {
    wants_report = grid_->distance(db_.reported_cell(user), new_cell) >=
                   config_.distance_threshold;
  }
  if (!wants_report) return false;
  if (faults_ != nullptr && faults_->drop_report()) {
    // The device paid the uplink cost but the network never heard it:
    // the record stays stale, and the device will keep re-triggering on
    // later movement because the stale record still violates the policy.
    ++reports_lost_;
    return true;
  }
  db_.record_report(user, new_cell);
  return true;
}

template <typename F>
decltype(auto) LocationService::with_report_policy(F&& f) {
  using P = ReportPolicy;
  switch (config_.report_policy) {
    case P::kNever:
      return f(std::integral_constant<P, P::kNever>{});
    case P::kOnAreaCrossing:
      return f(std::integral_constant<P, P::kOnAreaCrossing>{});
    case P::kOnCellCrossing:
      return f(std::integral_constant<P, P::kOnCellCrossing>{});
    case P::kEveryTSteps:
      return f(std::integral_constant<P, P::kEveryTSteps>{});
    case P::kDistanceThreshold:
      return f(std::integral_constant<P, P::kDistanceThreshold>{});
  }
  throw std::logic_error("LocationService: unknown report policy");
}

bool LocationService::observe_move(UserId user, CellId new_cell) {
  if (user >= num_users() || new_cell >= grid_->num_cells()) {
    throw std::invalid_argument("observe_move: out of range");
  }
  if (stepped_[user] == 0) {
    db_.tick(user);
    stepped_[user] = 1;
  }
  return with_report_policy([&](auto policy) {
    return observe_user<decltype(policy)::value>(user, new_cell);
  });
}

std::size_t LocationService::observe_step(std::span<const CellId> cells) {
  if (cells.size() != num_users()) {
    throw std::invalid_argument("observe_step: need one cell per user");
  }
  const std::size_t num_cells = grid_->num_cells();
  for (const CellId cell : cells) {
    if (cell >= num_cells) {
      throw std::invalid_argument("observe_step: cell out of range");
    }
  }
  return with_report_policy([&](auto policy) {
    std::size_t reports = 0;
    for (std::size_t u = 0; u < cells.size(); ++u) {
      const auto user = static_cast<UserId>(u);
      // Advance the clock first, as observe_move does; user u's clock is
      // read and reset only by its own observation, so this equals
      // observe_move for every user, then tick().
      close_step(user);
      reports += observe_user<decltype(policy)::value>(user, cells[u]);
    }
    return reports;
  });
}

void LocationService::close_step(UserId user) {
  if (stepped_[user] == 0) {
    db_.tick(user);
  } else {
    stepped_[user] = 0;
  }
}

void LocationService::tick() {
  for (UserId user = 0; user < num_users(); ++user) close_step(user);
}

prob::ProbabilityVector LocationService::profile_for(
    UserId user, std::size_t area) const {
  const auto& cells = areas_->cells_in(area);
  switch (config_.profile_kind) {
    case ProfileKind::kEmpirical: {
      if (user >= num_users()) {
        throw std::out_of_range("profile_for: unknown user");
      }
      const std::size_t stride = grid_->num_cells();
      return profile_from_counts(
          std::span<const double>(visit_counts_).subspan(user * stride, stride),
          cells, config_.laplace_alpha);
    }
    case ProfileKind::kStationary:
      return stationary_area_.at(area);
    case ProfileKind::kLastSeen:
      return last_seen_profile(*mobility_, db_.reported_cell(user),
                               last_seen_steps(user), cells, silence_);
  }
  throw std::logic_error("profile_for: unknown profile kind");
}

std::size_t LocationService::last_seen_steps(UserId user) const {
  return std::min(db_.steps_since_report(user), config_.last_seen_horizon);
}

bool LocationService::page_answered(std::size_t cohabitants,
                                    prob::Rng& rng) const {
  double q = config_.detection_probability;
  if (q >= 1.0) return true;
  if (config_.collision_losses && cohabitants > 1) {
    q /= static_cast<double>(cohabitants);
  }
  return rng.next_double() < q;
}

void LocationService::stage_rows(std::span<const UserId> group_users,
                                 std::size_t area) const {
  // Under the stationary profile every callee shares the area's cached
  // row; other profile kinds materialize into the reused scratch rows.
  auto& rows = scratch_.rows;
  auto& row_ptrs = scratch_.row_ptrs;
  rows.clear();
  row_ptrs.clear();
  if (config_.profile_kind == ProfileKind::kStationary) {
    row_ptrs.assign(group_users.size(), &stationary_area_[area]);
    return;
  }
  rows.reserve(group_users.size());
  for (const UserId user : group_users) {
    rows.push_back(profile_for(user, area));
  }
  for (const auto& row : rows) row_ptrs.push_back(&row);
}

std::uint64_t LocationService::plan_signature(
    std::span<const UserId> group_users, std::size_t num_cells,
    std::size_t area, std::size_t d) const {
  SignatureHasher hasher;
  hasher.add(static_cast<std::uint64_t>(d));
  hasher.add(static_cast<std::uint64_t>(num_cells));
  hasher.add(static_cast<std::uint64_t>(group_users.size()));
  // One digest per callee row. A last-seen row is a pure function of
  // (reported cell, capped steps) — the reported cell fixes the area, and
  // the group's area is every callee's reported one — so its digest comes
  // from the memo without building the row. Rows are built only when some
  // key is new (always, for the other profile kinds); a miss plans from
  // those same staged rows.
  const bool last_seen = config_.profile_kind == ProfileKind::kLastSeen;
  auto& digests = scratch_.digests;
  digests.assign(group_users.size(), 0);
  if (last_seen) {
    for (std::size_t k = 0; k < group_users.size(); ++k) {
      digests[k] = table_->digests->find(db_.reported_cell(group_users[k]),
                                         last_seen_steps(group_users[k]));
    }
  }
  if (std::find(digests.begin(), digests.end(), 0) != digests.end()) {
    stage_rows(group_users, area);
    for (std::size_t k = 0; k < group_users.size(); ++k) {
      digests[k] = profile_digest(*scratch_.row_ptrs[k]);
      if (last_seen) {
        table_->digests->store(db_.reported_cell(group_users[k]),
                               last_seen_steps(group_users[k]), digests[k]);
      }
    }
  }
  for (const std::uint64_t digest : digests) hasher.add(digest);
  // Fold in the area's outage state so a fault taking cells down (or
  // bringing them back) forces a replan. Only hashed while some cell of
  // THIS area is dark: the all-up state signs identically whether or not
  // a fault plan is attached, keeping a zero-rate plan perfectly inert.
  if (faults_ != nullptr) {
    const auto& cells = areas_->cells_in(area);
    bool any_out = false;
    for (const CellId cell : cells) any_out |= faults_->cell_out(cell);
    if (any_out) {
      hasher.add(std::uint64_t{0x07a6efa17ULL});  // outage-state marker
      for (const CellId cell : cells) {
        hasher.add(static_cast<std::uint64_t>(faults_->cell_out(cell)));
      }
    }
  }
  return hasher.value();
}

namespace {

/// Materializes the Instance a row-pointer set describes (rows may alias,
/// e.g. every callee sharing one cached stationary profile). Equivalent to
/// Instance::from_rows on the copied rows.
core::Instance instance_from_row_ptrs(
    std::span<const prob::ProbabilityVector* const> rows) {
  const std::size_t cells = rows.front()->size();
  std::vector<double> flat;
  flat.reserve(rows.size() * cells);
  for (const prob::ProbabilityVector* row : rows) {
    if (row->size() != cells) {
      throw std::invalid_argument("Instance: ragged rows");
    }
    flat.insert(flat.end(), row->begin(), row->end());
  }
  return core::Instance(rows.size(), cells, std::move(flat));
}

}  // namespace

const PlanRow& LocationService::plan_area(std::span<const UserId> group_users,
                                         std::size_t area,
                                         std::size_t num_cells, std::size_t d,
                                         bool plan_cheap,
                                         double* ep_out) const {
  PlanRow& planned = scratch_.planned;
  if (config_.paging_policy == PagingPolicy::kBlanketArea || plan_cheap) {
    // Degraded health plans with the cheap tier directly: a blanket area
    // page costs zero planning work and one round, which is exactly what
    // an overloaded control plane can still afford.
    planned.pack_blanket();
    return planned;
  }
  // Rows are staged at most once per call, and only when something reads
  // them: signing a new key, a planner run, or an EP the publisher left
  // out.
  scratch_.row_ptrs.clear();
  const auto instance = [&] {
    if (scratch_.row_ptrs.empty()) stage_rows(group_users, area);
    return instance_from_row_ptrs(scratch_.row_ptrs);
  };
  const auto plan = [&] {
    const core::Instance planned_instance = instance();
    const core::Strategy strategy =
        config_.planner != nullptr
            ? config_.planner->plan(planned_instance, d)
            : core::plan_greedy(planned_instance, d).strategy;
    planned.pack(strategy,
                 ep_out != nullptr
                     ? core::expected_paging(planned_instance, strategy)
                     : -1.0);
  };

  if (table_ == nullptr) {
    plan();
  } else {
    // One path: sign, look up, or plan and publish. Another area (on any
    // shard) may have published these exact inputs; its row carries its
    // EP, so a hit on known keys builds no rows.
    const std::uint64_t signature =
        plan_signature(group_users, num_cells, area, d);
    if (table_->plans.lookup(signature, planned.bytes())) {
      ++plan_cache_stats_.hits;
      config_.metrics.cache_hits.inc();
      // Published without an EP: compute it for this call only.
      if (ep_out != nullptr && planned.expected_paging() < 0.0) {
        planned.set_expected_paging(core::expected_paging(
            instance(), planned.to_strategy(num_cells)));
      }
    } else {
      plan();
      (void)table_->plans.insert(signature, planned.bytes());
      ++plan_cache_stats_.misses;
      config_.metrics.cache_misses.inc();
    }
  }
  if (ep_out != nullptr) *ep_out = planned.expected_paging();
  return planned;
}

LocationService::AreaOutcome LocationService::execute_area_plan(
    const PlanRow& plan, std::size_t num_cells, std::span<const UserId> users,
    std::span<const CellId> true_cells,
    const std::vector<std::size_t>& local_of, std::vector<bool>& found,
    LocateOutcome& outcome, prob::Rng& rng) {
  const auto cohabitant_count = [&](CellId cell) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < users.size(); ++i) {
      if (!found[i] && true_cells[i] == cell) ++count;
    }
    return count;
  };

  const std::size_t rounds = plan.num_rounds();
  auto& round_pages = scratch_.round_pages;
  round_pages.assign(rounds, 0);
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    ++round_pages[plan.round_of(cell)];
  }

  AreaOutcome area;
  for (std::size_t r = 0; r < rounds; ++r) {
    area.pages += round_pages[r];
    area.rounds = r + 1;
    if (faults_ != nullptr && faults_->drop_round()) {
      // Channel overload: the round's pages are spent, nobody hears them.
      ++outcome.dropped_rounds;
    } else {
      for (std::size_t i = 0; i < users.size(); ++i) {
        if (found[i] || local_of[i] == kUnknownLocal) continue;
        if (plan.round_of(local_of[i]) != r) continue;
        if (faults_ != nullptr && faults_->cell_out(true_cells[i])) {
          // The device's base station is dark: the page is spent but can
          // never be answered. No detection draw happens.
          ++outcome.outage_pages;
          continue;
        }
        if (page_answered(cohabitant_count(true_cells[i]), rng)) {
          found[i] = true;
        } else {
          ++outcome.missed_detections;
        }
      }
    }
    bool everyone_found = true;
    for (std::size_t i = 0; i < users.size(); ++i) {
      everyone_found &= found[i];
    }
    if (everyone_found) {
      area.ran_all_rounds = r + 1 == rounds;
      return area;
    }
  }
  area.ran_all_rounds = true;
  return area;
}

void LocationService::run_recovery(std::span<const UserId> users,
                                   std::span<const CellId> true_cells,
                                   std::vector<std::size_t> missing,
                                   std::size_t first_sweep_pages,
                                   std::size_t round_cap,
                                   LocateOutcome& outcome, prob::Rng& rng) {
  const RetryPolicy& retry = config_.retry;
  std::size_t attempt = 0;
  while (!missing.empty() && attempt < retry.max_retries) {
    const std::size_t sweep_pages =
        attempt == 0 ? first_sweep_pages : grid_->num_cells();
    if (retry.page_budget != 0 &&
        outcome.cells_paged + sweep_pages > retry.page_budget) {
      outcome.budget_exhausted = true;
      break;
    }
    std::size_t backoff = 0;
    if (retry.backoff_base != 0) {
      backoff = retry.backoff_cap;
      if (attempt < 63 && (retry.backoff_base << attempt) < backoff) {
        backoff = retry.backoff_base << attempt;
      }
    }
    if (retry.round_deadline != 0 &&
        outcome.rounds_used + backoff + 1 > retry.round_deadline) {
      outcome.budget_exhausted = true;
      break;
    }
    // The propagated deadline is a hard wall: a sweep that cannot finish
    // before it is not started, so an admitted call never runs past its
    // deadline — it abandons instead.
    if (outcome.rounds_used + backoff + 1 > round_cap) {
      outcome.deadline_limited = true;
      break;
    }
    outcome.rounds_used += backoff;
    outcome.backoff_rounds += backoff;

    outcome.cells_paged += sweep_pages;
    outcome.fallback_pages += sweep_pages;
    outcome.rounds_used += 1;
    ++outcome.retries;

    if (faults_ != nullptr && faults_->drop_round()) {
      ++outcome.dropped_rounds;
    } else {
      std::vector<std::size_t> still_missing;
      for (const std::size_t i : missing) {
        if (faults_ != nullptr && faults_->cell_out(true_cells[i])) {
          // Sweeping pages the dark cell too; the device cannot answer.
          ++outcome.outage_pages;
          still_missing.push_back(i);
          continue;
        }
        std::size_t cohabitants = 0;
        for (const std::size_t other : missing) {
          if (true_cells[other] == true_cells[i]) ++cohabitants;
        }
        if (page_answered(cohabitants, rng)) {
          db_.record_report(users[i], true_cells[i]);
        } else {
          ++outcome.missed_detections;
          still_missing.push_back(i);
        }
      }
      missing = std::move(still_missing);
    }
    ++attempt;
  }
  // Whatever recovery could not find is force-registered: the network
  // commits the caller-supplied truth (modelling the device eventually
  // answering a persistent page out-of-band) but the call is accounted
  // as abandoned — it never heard those callees within its budget.
  if (!missing.empty()) {
    outcome.abandoned = true;
    outcome.forced_registrations += missing.size();
    for (const std::size_t i : missing) {
      db_.record_report(users[i], true_cells[i]);
    }
  }
  outcome.degraded = outcome.retries > 0 || outcome.abandoned;
}

void LocationService::check_call(std::span<const UserId> users,
                                 const LocateContext& context) const {
  if (users.empty()) {
    throw std::invalid_argument("locate: need at least one user");
  }
  for (const UserId user : users) {
    if (user >= num_users()) {
      throw std::invalid_argument("locate: out of range");
    }
  }
  if (config_.paging_policy == PagingPolicy::kAdaptive &&
      (!context.deadline.is_unbounded() || context.plan_cheap)) {
    throw std::invalid_argument(
        "locate: the adaptive policy assumes the full delay budget");
  }
  if (!context.deadline.is_unbounded() &&
      (config_.clock == nullptr || config_.round_duration_ns == 0)) {
    throw std::invalid_argument(
        "locate: a bounded deadline needs Config::clock and a nonzero "
        "round_duration_ns");
  }
}

LocationService::LocateOutcome LocationService::locate(
    std::span<const UserId> users, std::span<const CellId> true_cells,
    prob::Rng& rng, const LocateContext& context) {
  if (users.size() != true_cells.size()) {
    throw std::invalid_argument("locate: need one true cell per user");
  }
  check_call(users, context);
  for (const CellId cell : true_cells) {
    if (cell >= grid_->num_cells()) {
      throw std::invalid_argument("locate: out of range");
    }
  }
  const support::Span locate_span(config_.tracer, "locate");
  config_.metrics.calls.inc();
  // Convert the propagated deadline into this call's round budget.
  // kUnknownLocal doubles as "no cap" (it is SIZE_MAX).
  std::size_t round_cap = kUnknownLocal;
  if (!context.deadline.is_unbounded()) {
    round_cap = static_cast<std::size_t>(
        context.deadline.remaining_ns(*config_.clock) /
        config_.round_duration_ns);
  }

  LocateOutcome outcome;

  // Group callees by their last-reported location area — each group is
  // one Conference Call instance over that area's cells. A stable sort of
  // (area, index) pairs visits areas in ascending order with callees in
  // request order inside each, exactly the iteration the old std::map
  // grouping produced, without a node allocation per area.
  auto& by_area = scratch_.area_of_index;
  by_area.clear();
  for (std::size_t i = 0; i < users.size(); ++i) {
    by_area.emplace_back(db_.reported_area(users[i]), i);
  }
  std::stable_sort(by_area.begin(), by_area.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  auto& area_paged_fully = scratch_.area_paged_fully;
  area_paged_fully.assign(areas_->num_areas(), false);
  std::vector<std::size_t> missing;  // indices into users
  bool any_missed_detection = false;
  for (std::size_t begin = 0; begin < by_area.size();) {
    const std::size_t area = by_area[begin].first;
    std::size_t end = begin + 1;
    while (end < by_area.size() && by_area[end].first == area) ++end;
    const std::span<const std::pair<std::size_t, std::size_t>> group(
        by_area.data() + begin, end - begin);
    begin = end;

    const auto& cells = areas_->cells_in(area);
    auto& group_users = scratch_.group_users;
    auto& group_cells = scratch_.group_cells;
    group_users.clear();
    group_cells.clear();
    for (const auto& pair : group) {
      group_users.push_back(users[pair.second]);
      group_cells.push_back(true_cells[pair.second]);
    }

    // Local (within-area) cell index per callee; kUnknownLocal = stale.
    auto& local_of = scratch_.local_of;
    local_of.assign(group.size(), kUnknownLocal);
    bool all_present = true;
    for (std::size_t k = 0; k < group.size(); ++k) {
      const auto it =
          std::find(cells.begin(), cells.end(), group_cells[k]);
      if (it == cells.end()) {
        all_present = false;
      } else {
        local_of[k] = static_cast<std::size_t>(it - cells.begin());
      }
    }

    std::size_t d = std::min(config_.max_paging_rounds, cells.size());
    if (round_cap < d) {
      // Not enough time for the configured delay budget: plan for the
      // rounds the deadline still affords (a tighter d pages more
      // aggressively — quality degrades before latency). With no rounds
      // left at all the planned phase is skipped outright and the
      // callees fall through to abandonment accounting below.
      d = round_cap;
      outcome.deadline_limited = true;
    }
    auto& found = scratch_.found;
    found.assign(group.size(), false);
    AreaOutcome area_outcome;
    if (d == 0) {
      area_outcome.ran_all_rounds = false;
    } else if (config_.paging_policy == PagingPolicy::kAdaptive &&
               all_present) {
      std::vector<core::CellId> local_true(group.size());
      for (std::size_t k = 0; k < group.size(); ++k) {
        local_true[k] = static_cast<core::CellId>(local_of[k]);
      }
      std::vector<prob::ProbabilityVector> rows;
      rows.reserve(group.size());
      for (const UserId user : group_users) {
        rows.push_back(profile_for(user, area));
      }
      const core::AdaptiveOutcome adaptive = core::run_adaptive(
          core::Instance::from_rows(rows), d, local_true);
      area_outcome.pages = adaptive.cells_paged;
      area_outcome.rounds = adaptive.rounds_used;
      area_outcome.ran_all_rounds = adaptive.cells_paged == cells.size();
      found.assign(group.size(), true);
    } else {
      double ep = -1.0;
      const PlanRow& plan = [&]() -> const PlanRow& {
        const support::Span plan_span(config_.tracer, "plan");
        return plan_area(group_users, area, cells.size(), d,
                         context.plan_cheap,
                         config_.metrics.ep_predicted.bound() ? &ep : nullptr);
      }();
      if (ep >= 0.0) config_.metrics.ep_predicted.observe(ep);
      const support::Span page_span(config_.tracer, "page_rounds");
      area_outcome = execute_area_plan(plan, cells.size(), group_users,
                                       group_cells, local_of, found, outcome,
                                       rng);
    }
    outcome.cells_paged += area_outcome.pages;
    outcome.rounds_used =
        std::max(outcome.rounds_used, area_outcome.rounds);
    area_paged_fully[area] = area_outcome.ran_all_rounds;

    for (std::size_t k = 0; k < group.size(); ++k) {
      if (found[k]) {
        // A found callee answered a base station: implicit location
        // report, free of uplink-report cost (rides on the response).
        db_.record_report(group_users[k], group_cells[k]);
      } else {
        missing.push_back(group[k].second);
        if (local_of[k] != kUnknownLocal) any_missed_detection = true;
      }
    }
  }

  // Recovery sweeps: blanket-page until every callee answers or the
  // retry policy cuts the call off. The first sweep may skip areas
  // already paged in full — but only when nothing was MISSED inside them
  // (a missed device needs its cell re-paged).
  std::size_t not_fully_paged = 0;
  for (std::size_t area = 0; area < areas_->num_areas(); ++area) {
    if (!area_paged_fully[area]) {
      not_fully_paged += areas_->cells_in(area).size();
    }
  }
  const std::size_t first_sweep_pages =
      any_missed_detection ? grid_->num_cells() : not_fully_paged;
  {
    const support::Span recovery_span(config_.tracer, "recovery");
    run_recovery(users, true_cells, std::move(missing), first_sweep_pages,
                 round_cap, outcome, rng);
  }
  config_.metrics.pages.observe(static_cast<double>(outcome.cells_paged));
  config_.metrics.rounds.observe(static_cast<double>(outcome.rounds_used));
  // Exemplar: when this call's trace was sampled (nonzero span id), pin
  // its trace id on the rounds bucket it landed in — the metric→trace
  // bridge a high-p99 investigation follows. Unsampled calls pass a
  // zero id, which annotate() ignores without taking the exemplar lock.
  config_.metrics.rounds.annotate(static_cast<double>(outcome.rounds_used),
                                  locate_span.id());
  if (outcome.retries > 0) config_.metrics.retries.inc(outcome.retries);
  if (outcome.abandoned) config_.metrics.abandoned.inc();
  if (outcome.deadline_limited) config_.metrics.deadline_limited.inc();
  return outcome;
}

std::vector<LocationService::LocateOutcome> LocationService::locate_many(
    std::span<const LocateRequest> requests, prob::Rng& rng) {
  std::vector<LocateOutcome> outcomes;
  if (requests.empty()) return outcomes;
  // One span roots the whole batch; the per-call locate spans nest under
  // it, so a sampled trace shows the batch boundary. The requests run
  // sequentially against the shared rng, which is what makes the
  // outcomes bit-identical to issuing the same locate() calls one by
  // one — batching amortizes scratch, cache and wire-layer cost, never
  // reorders randomness.
  const support::Span batch_span(config_.tracer, "locate_batch");
  config_.metrics.batch_size.observe(static_cast<double>(requests.size()));
  outcomes.reserve(requests.size());
  for (const LocateRequest& request : requests) {
    outcomes.push_back(
        locate(request.users, request.true_cells, rng, request.context));
  }
  return outcomes;
}

std::string LocationService::save_state() const {
  support::StateWriter writer;
  // Shape guard: everything the payload's interpretation depends on. A
  // restore against a different topology or policy set must reject
  // before touching a single record.
  writer.put_u64(num_users());
  writer.put_u64(grid_->num_cells());
  writer.put_u64(areas_->num_areas());
  writer.put_u8(static_cast<std::uint8_t>(config_.report_policy));
  writer.put_u8(static_cast<std::uint8_t>(config_.paging_policy));
  writer.put_u8(static_cast<std::uint8_t>(config_.profile_kind));
  writer.put_u64(config_.max_paging_rounds);

  // Location database: the reported area re-derives from the cell.
  for (UserId user = 0; user < num_users(); ++user) {
    writer.put_u32(db_.reported_cell(user));
    writer.put_u64(db_.steps_since_report(user));
  }

  // Visit counts — the learned empirical distribution — exist only under
  // kEmpirical; the shape guard's profile kind says whether they follow.
  for (const double count : visit_counts_) writer.put_f64(count);
  return std::move(writer).take();
}

bool LocationService::restore_state(std::string_view payload,
                                    std::uint32_t version) {
  if (version != kStateVersion) return false;
  try {
    support::StateReader reader(payload);

    // Shape guard first: any mismatch is a clean cold start.
    if (reader.get_u64() != num_users()) return false;
    if (reader.get_u64() != grid_->num_cells()) return false;
    if (reader.get_u64() != areas_->num_areas()) return false;
    if (reader.get_u8() != static_cast<std::uint8_t>(config_.report_policy)) {
      return false;
    }
    if (reader.get_u8() != static_cast<std::uint8_t>(config_.paging_policy)) {
      return false;
    }
    if (reader.get_u8() != static_cast<std::uint8_t>(config_.profile_kind)) {
      return false;
    }
    if (reader.get_u64() != config_.max_paging_rounds) return false;

    // Parse everything into temporaries and validate before committing:
    // a payload rejected halfway must not leave the service half-warm.
    const std::size_t users = num_users();
    std::vector<std::pair<CellId, std::size_t>> records;
    records.reserve(users);
    for (std::size_t user = 0; user < users; ++user) {
      const CellId cell = reader.get_u32();
      if (cell >= grid_->num_cells()) return false;
      const std::uint64_t steps = reader.get_u64();
      records.emplace_back(cell, static_cast<std::size_t>(steps));
    }

    std::vector<double> visits(visit_counts_.size());
    for (double& count : visits) {
      count = reader.get_f64();
      if (!std::isfinite(count) || count < 0.0) return false;
    }

    if (!reader.at_end()) return false;

    // Commit.
    for (std::size_t user = 0; user < users; ++user) {
      db_.restore_record(static_cast<UserId>(user), records[user].first,
                         records[user].second);
    }
    visit_counts_ = std::move(visits);
    std::fill(stepped_.begin(), stepped_.end(), std::uint8_t{0});
    return true;
  } catch (const support::StateFormatError&) {
    return false;
  }
}

}  // namespace confcall::cellular
