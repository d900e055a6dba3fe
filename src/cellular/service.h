// The location management service (paper Section 1.1) as a reusable
// component.
//
// "One of the main components of a wireless system is a location
// management service [2,20]. Its goal is to track the locations of devices
// that are needed in order to establish calls." This class is that
// component: it ingests device movement events (applying the configured
// reporting policy, and keeping visit statistics under the empirical
// profile, the one estimator that reads them), and serves locate()
// requests by planning and executing a paging search per location area —
// the GSM blanket, the paper's Fig. 1 planner, or the Section 5 adaptive
// variant — including the imperfect-detection recovery path.
//
// Degraded modes: an attached FaultPlan (faults.h) injects cell outages,
// uplink-report loss and per-round channel drops; recovery is governed by
// a RetryPolicy (bounded retries with exponential backoff, a per-call
// page budget and a hard round deadline) instead of an unbounded sweep
// loop, and every degradation is accounted in LocateOutcome.
//
// Overload: locate() accepts a LocateContext carrying the call's
// propagated support::Deadline (converted to a round budget through the
// configured round duration — plan quality degrades before latency does)
// and a plan_cheap flag set by admission control under degraded health,
// which bypasses the planner tiers entirely and blanket-pages the area.
//
// The service never reads ground truth on its own: callers (a simulator,
// a test harness, in principle a real radio layer) supply the devices'
// actual cells at locate() time, standing in for the base stations that
// would hear the page responses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cellular/faults.h"
#include "cellular/location_db.h"
#include "cellular/mobility.h"
#include "cellular/profile_digest.h"
#include "cellular/topology.h"
#include "core/strategy.h"
#include "prob/distribution.h"
#include "prob/rng.h"
#include "support/fleet.h"
#include "support/metrics.h"
#include "support/overload.h"
#include "support/trace.h"

namespace confcall::core {
class Planner;
}  // namespace confcall::core

namespace confcall::cellular {

/// How the network pages the cells of a location area during call setup.
enum class PagingPolicy {
  kBlanketArea,  ///< page the whole LA at once (GSM MAP / IS-41 baseline)
  kGreedy,       ///< the paper's Fig. 1 d-round strategy
  kAdaptive,     ///< Section 5 adaptive re-planning
};

/// Which location-profile estimator feeds the planner.
enum class ProfileKind {
  kEmpirical,   ///< smoothed visit counts observed so far
  kStationary,  ///< mobility chain's stationary distribution
  kLastSeen,    ///< law given the last reported cell and the silence since
};

/// Governs the recovery path of locate(): how many whole-grid sweeps a
/// missing callee earns, how long the network waits between them, and
/// when the call is cut off. The defaults reproduce the historical
/// behaviour (8 immediate sweeps, no budget, no deadline).
struct RetryPolicy {
  /// Recovery sweeps before the remaining callees are force-registered.
  /// 0 = no recovery: a missing callee is abandoned immediately (and the
  /// call counted as such).
  std::size_t max_retries = 8;
  /// Idle paging rounds before retry k: backoff_base << k, capped at
  /// backoff_cap. 0 = retry immediately (the historical behaviour).
  /// Waiting costs delay (rounds_used) but no pages — it models letting
  /// an overloaded channel or a transient outage clear.
  std::size_t backoff_base = 0;
  /// Upper bound on a single backoff wait, in rounds.
  std::size_t backoff_cap = 8;
  /// Per-call page budget gating recovery: a sweep that would push
  /// cells_paged past this is not started (budget_exhausted). 0 = none.
  /// The planned per-area phase is never gated — only recovery is
  /// optional work.
  std::size_t page_budget = 0;
  /// Hard deadline in total rounds (search + backoff + sweeps); a retry
  /// that cannot finish by the deadline is not started. 0 = none.
  std::size_t round_deadline = 0;

  /// Throws std::invalid_argument with a specific message on nonsense
  /// (backoff_base > backoff_cap with backoff enabled).
  void validate() const;
};

/// The locate-path metric handles, registered on a caller-owned
/// MetricRegistry by create() and passed into LocationService::Config by
/// value. A default-constructed ServiceMetrics is fully unbound: every
/// operation no-ops, so an uninstrumented service pays only null checks
/// (bench_e15_observability gates the bound handles at <= 250 ns per
/// call).
struct ServiceMetrics {
  support::Counter calls;             ///< confcall_locate_calls_total
  support::Counter cache_hits;        ///< confcall_locate_plan_cache_hits_total
  support::Counter cache_misses;      ///< confcall_locate_plan_cache_misses_total
  support::Counter retries;           ///< confcall_locate_retries_total
  support::Counter abandoned;         ///< confcall_locate_abandoned_total
  support::Counter deadline_limited;  ///< confcall_locate_deadline_limited_total
  support::Histogram pages;           ///< confcall_locate_pages per call
  support::Histogram rounds;          ///< confcall_locate_rounds per call
  /// Lemma 2.1 expected paging of each planned per-area strategy — the
  /// paper's EP objective tracked live, on the same bucket layout as the
  /// observed `pages` histogram so predicted and realized paging cost
  /// compare directly.
  support::Histogram ep_predicted;    ///< confcall_locate_ep_predicted
  /// Distribution of locate_many() batch sizes (single locate() calls do
  /// not observe it, so the histogram counts batches, not calls).
  support::Histogram batch_size;      ///< confcall_locate_batch_size

  /// Registers the confcall_locate_* family on `registry` (idempotent)
  /// and returns bound handles. `labels` attach to every series —
  /// ServiceFleet passes {{"shard", "<s>"}} so each lane exports its own
  /// locate family; the default keeps the historical unlabelled series
  /// (which the SLO controller senses). The registry must outlive every
  /// service holding the handles.
  [[nodiscard]] static ServiceMetrics create(
      support::MetricRegistry& registry, const support::MetricLabels& labels = {});
};

/// One Fig. 1 plan for one location area, packed the way a
/// SharedPlanTable row stores it. Fixed width, byte-addressed:
///
///   bytes [0, 8)  the Lemma 2.1 expected paging, an f64 (-1 when the
///                 publisher had no EP histogram attached; a reader that
///                 needs it rebuilds the strategy and computes it for
///                 that call only),
///   byte 8        the round count d, a u8 (Config::validate caps d at
///                 255),
///   byte 9 + j    the round of the area's local cell j, for j < c.
///
/// The width is stride_for(the largest location area's cell count);
/// bytes past an area's c cells are zero, so a row is a pure function of
/// its plan. A row is all a search pages by — the round of each callee's
/// cell and the pages each round spends — so a table hit is one copy of
/// this many bytes.
class PlanRow {
 public:
  static constexpr std::size_t kHeaderBytes = 9;

  /// Row width for location areas of at most `max_cells` cells.
  [[nodiscard]] static constexpr std::size_t stride_for(
      std::size_t max_cells) noexcept {
    return kHeaderBytes + max_cells;
  }

  /// A zeroed row of `stride` bytes (>= kHeaderBytes).
  explicit PlanRow(std::size_t stride = kHeaderBytes) : bytes_(stride) {}

  /// Packs `strategy` and its EP. Throws std::invalid_argument when the
  /// strategy has more than 255 rounds or more cells than the row holds.
  void pack(const core::Strategy& strategy, double expected_paging);
  /// The blanket page: one round, every cell in it.
  void pack_blanket();

  [[nodiscard]] double expected_paging() const noexcept;
  void set_expected_paging(double expected_paging) noexcept;
  [[nodiscard]] std::size_t num_rounds() const noexcept {
    return std::to_integer<std::size_t>(bytes_[8]);
  }
  /// The round (0-based) that pages local cell `cell`.
  [[nodiscard]] std::size_t round_of(std::size_t cell) const noexcept {
    return std::to_integer<std::size_t>(bytes_[kHeaderBytes + cell]);
  }
  /// Rebuilds the strategy over the first `num_cells` cells: the same
  /// round of every cell, each round's cells in ascending order.
  [[nodiscard]] core::Strategy to_strategy(std::size_t num_cells) const;

  /// The raw row, for table lookups and inserts.
  [[nodiscard]] std::span<std::byte> bytes() noexcept { return bytes_; }

 private:
  std::vector<std::byte> bytes_;
};

/// The plan table every planned search goes through: a bounded
/// signature -> PlanRow table (support::SignatureTable: one slab,
/// set-associative CLOCK eviction), so identical planning inputs plan
/// once per table, and the last-seen digest memo, so each (reported
/// cell, steps) profile is evolved once per table instead of once per
/// call. ServiceFleet wires every area to one; a service given none
/// builds a private one. The topology objects must outlive it; a service
/// over a different grid, area layout, mobility model, horizon, report
/// policy or distance threshold refuses to attach it, and the memo's
/// report-loss rate is the one its services' rows assume.
struct SharedPlanTable {
  /// Table rows per (serving area, in-grid location area) — the sizing
  /// rule both the fleet and a private table apply.
  static constexpr std::size_t kPlansPerArea = 128;

  /// Holds up to `capacity` plans, each a PlanRow as wide as the largest
  /// of `areas`. The digest memo is built only under
  /// ProfileKind::kLastSeen, the one profile kind that signs from it, for
  /// rows of that horizon and silence model.
  SharedPlanTable(const GridTopology& grid, const LocationAreas& areas,
                  const MarkovMobility& mobility, ProfileKind profile_kind,
                  std::size_t last_seen_horizon, const SilenceModel& silence,
                  std::size_t capacity);

  support::SignatureTable plans;
  std::optional<LastSeenDigests> digests;
};

/// A network-side location management service over one cell grid.
class LocationService {
 public:
  struct Config {
    ReportPolicy report_policy = ReportPolicy::kOnAreaCrossing;
    /// Period T for ReportPolicy::kEveryTSteps (>= 1).
    std::size_t timer_period = 16;
    /// Hop threshold D for ReportPolicy::kDistanceThreshold (>= 1).
    std::size_t distance_threshold = 2;
    PagingPolicy paging_policy = PagingPolicy::kGreedy;
    ProfileKind profile_kind = ProfileKind::kLastSeen;
    /// The delay constraint d, in [1, 255]: a plan row stores each
    /// cell's round in one byte.
    std::size_t max_paging_rounds = 3;
    double laplace_alpha = 1.0;          ///< empirical-profile smoothing
    std::size_t last_seen_horizon = 100;  ///< cap on prediction steps
    /// Section 5 imperfect detection: P[a paged device answers].
    double detection_probability = 1.0;
    /// Section 5 response collisions: detection probability divides by
    /// the number of sought devices sharing the paged cell.
    bool collision_losses = false;
    /// Recovery behaviour (replaces the old max_recovery_sweeps knob).
    RetryPolicy retry;
    /// Optional planner override: when set (non-owning, must outlive the
    /// service) and paging_policy == kGreedy, per-area strategies come
    /// from this planner instead of the built-in Fig. 1 call — pass a
    /// core::ResilientPlanner to keep serving locate() through planner
    /// failures. Ignored under kBlanketArea and kAdaptive.
    const core::Planner* planner = nullptr;
    /// Reuse a planned strategy while its planning inputs are unchanged.
    /// The cache key is a content signature of everything the planner
    /// reads (callee profiles, delay budget, area size, and the area's
    /// injected-outage state), so a hit returns exactly the strategy a
    /// fresh plan would produce: locate() results are identical with the
    /// cache on or off, only the Fig. 1 DP cost is skipped. Profile
    /// refreshes and fault transitions change the signature and force a
    /// replan.
    bool enable_plan_cache = true;
    /// Virtual duration of one paging round, used to convert a
    /// propagated Deadline into a per-call round budget. 0 (the default)
    /// rejects bounded deadlines — a service that enforces deadlines
    /// must say what a round costs.
    std::uint64_t round_duration_ns = 0;
    /// Time source the deadlines are read against (non-owning; must
    /// outlive the service). The simulator injects a ManualClock so
    /// deadline behaviour is deterministic; a real deployment passes
    /// &support::SteadyClockSource::shared(). Required (with a nonzero
    /// round_duration_ns) before locate() accepts a bounded deadline.
    const support::ClockSource* clock = nullptr;
    /// Locate-path metric handles (see ServiceMetrics). Default = all
    /// unbound = the byte-inert uninstrumented service.
    ServiceMetrics metrics{};
    /// Span sink for per-call locate / plan / page_rounds / recovery
    /// spans (non-owning; must outlive the service). nullptr = no
    /// tracing, zero cost. For always-on deployments pass a
    /// support::SamplingTracer: 1-in-N sampling decided at the locate
    /// root costs <= 100 ns per call (gated by E16) and never tears a
    /// trace.
    support::Tracer* tracer = nullptr;
    /// Optional plan table shared across services (non-owning; must
    /// outlive the service). Without one, a service with the plan cache
    /// on builds a private table of kPlansPerArea entries per location
    /// area. Every planned search signs its inputs, looks the signature
    /// up in the table and, on a miss, plans and publishes the plan's
    /// PlanRow with its EP — identically distributed areas then plan once
    /// per table (see cellular/service_fleet.h). Results are unchanged
    /// with or without the table: a hit returns exactly the plan the
    /// deterministic planner would produce for the same signed inputs.
    /// The constructor throws std::invalid_argument when the table was
    /// built for a different grid, area layout, mobility model,
    /// last_seen_horizon, report_policy or distance_threshold, lacks the
    /// digest memo a kLastSeen service signs from, or has rows narrower
    /// than this service's largest area. Its memo's report-loss rate is
    /// the one this service's last-seen rows assume (attach_faults).
    SharedPlanTable* shared_plan_table = nullptr;

    /// Consolidated validation with one specific message per rejection.
    /// Called by the constructor; exposed so SimConfig and tests can
    /// check a configuration without building a service.
    void validate() const;
  };

  /// Registers `initial_cells.size()` devices at their starting cells (a
  /// power-on attach). Throws std::invalid_argument on an invalid config
  /// (see Config::validate), an empty user set, or a shared_plan_table
  /// built for another world. The topology objects must outlive the
  /// service.
  LocationService(const GridTopology& grid, const LocationAreas& areas,
                  const MarkovMobility& mobility, Config config,
                  std::vector<CellId> initial_cells);

  /// Attaches a fault injector (non-owning; must outlive the service,
  /// nullptr detaches). The caller advances the plan's outage clocks via
  /// FaultPlan::begin_step. Last-seen rows then assume the plan's
  /// report-loss rate (0 when detached); a private plan table's digest
  /// memo is rebuilt for it. Throws std::invalid_argument under the
  /// adaptive paging policy, whose conditioning assumes a fault-free
  /// network, and under kLastSeen when a shared plan table's memo was
  /// built for another report-loss rate.
  void attach_faults(FaultPlan* faults);

  [[nodiscard]] std::size_t num_users() const noexcept {
    return db_.num_users();
  }

  /// Ingests one movement event; returns true when the reporting policy
  /// sent an uplink report (which the caller accounts — a report lost to
  /// an injected fault still returns true: the uplink cost was paid,
  /// only the database missed it, and reports_lost() counts it). The
  /// move opens the user's step: its "steps since last report" clock
  /// advances (once per step) before the policy reads it, so a report
  /// leaves the clock at 0 at the end of its step.
  bool observe_move(UserId user, CellId new_cell);

  /// Closes a global time step: advances the clock of every device that
  /// observe_move has not already advanced this step. Call once per step
  /// after the observe_move batch.
  void tick();

  /// One global time step in one pass: cells[u] is user u's new cell.
  /// Equivalent to observe_move(u, cells[u]) for every u in order, then
  /// tick() — the same reports, fault draws and database state — but the
  /// span is validated once and the report policy dispatched once, not
  /// per user. Returns the number of reports the policy sent (lost ones
  /// included, as observe_move counts them). Throws
  /// std::invalid_argument, before changing any state, unless there is
  /// exactly one in-range cell per user.
  std::size_t observe_step(std::span<const CellId> cells);

  /// Uplink reports swallowed by the fault plan since construction
  /// (observation-side twin of FaultStats::reports_dropped).
  [[nodiscard]] std::size_t reports_lost() const noexcept {
    return reports_lost_;
  }

  /// Result of one locate() request.
  struct LocateOutcome {
    std::size_t cells_paged = 0;
    std::size_t rounds_used = 0;
    /// Pages spent on whole-grid recovery sweeps (stale database entries
    /// or unanswered pages).
    std::size_t fallback_pages = 0;
    /// Pages that hit a sought device's cell but went unanswered.
    std::size_t missed_detections = 0;
    /// Pages spent on a sought callee's cell while that cell was dark
    /// (in injected outage): the page could never be answered.
    std::size_t outage_pages = 0;
    /// Paging rounds (planned or recovery) lost to injected channel
    /// drops: their pages are spent, nobody hears them.
    std::size_t dropped_rounds = 0;
    /// Recovery sweeps actually run for this call.
    std::size_t retries = 0;
    /// Idle rounds spent backing off between retries.
    std::size_t backoff_rounds = 0;
    /// Callees force-registered without ever answering (recovery
    /// exhausted, budget hit, or retries disabled).
    std::size_t forced_registrations = 0;
    /// The page budget or round deadline cut recovery short.
    bool budget_exhausted = false;
    /// The call needed the degraded path (any retry, or abandonment).
    bool degraded = false;
    /// At least one callee was abandoned (force-registered unfound).
    bool abandoned = false;
    /// The propagated deadline capped this call — either the planning
    /// delay budget was reduced below the configured d, or recovery was
    /// cut off so the admitted call never overruns its deadline.
    bool deadline_limited = false;

    bool operator==(const LocateOutcome&) const = default;
  };

  /// Per-call overload context threaded into locate() by the admission
  /// layer. The default (unbounded deadline, full-quality planning) is
  /// exactly the historical behaviour.
  struct LocateContext {
    /// Absolute call-setup deadline, read against Config::clock. An
    /// admitted call never uses more rounds than
    /// remaining_ns / round_duration_ns; when that leaves fewer rounds
    /// than the configured d, the call is planned for the smaller delay
    /// budget (more aggressive paging — quality degrades, not latency).
    support::Deadline deadline{};
    /// Degraded health: skip the planner tiers and blanket-page each
    /// area directly (the cheap tier — zero planning cost).
    bool plan_cheap = false;
  };

  /// Locates `users` (their actual cells supplied positionally in
  /// `true_cells` by the caller's radio layer). Plans per reported
  /// location area, executes the search under the detection and fault
  /// models using `rng`, updates the database with every answer, and
  /// runs recovery sweeps under the RetryPolicy. Callees still missing
  /// when recovery ends are force-registered and accounted as abandoned.
  /// Throws std::invalid_argument on size mismatches or out-of-range
  /// cells.
  LocateOutcome locate(std::span<const UserId> users,
                       std::span<const CellId> true_cells, prob::Rng& rng) {
    return locate(users, true_cells, rng, LocateContext{});
  }

  /// locate() under an overload context: the call's propagated deadline
  /// bounds total rounds (planned search + backoff + recovery sweeps),
  /// and plan_cheap swaps planned searches for blanket area pages.
  /// Throws std::invalid_argument on a bounded deadline without a
  /// configured clock/round duration, or any context under the adaptive
  /// policy (whose re-planning assumes the full delay budget).
  LocateOutcome locate(std::span<const UserId> users,
                       std::span<const CellId> true_cells, prob::Rng& rng,
                       const LocateContext& context);

  /// Every check locate() makes before it touches state, the true cells
  /// aside: at least one callee, each user id in range, a clock and
  /// round duration behind a bounded deadline, and the default context
  /// under the adaptive policy. Throws std::invalid_argument on the first
  /// that fails. ServiceFleet::locate_many runs it over a whole batch
  /// before serving any of it.
  void check_call(std::span<const UserId> users,
                  const LocateContext& context) const;

  /// One call of a locate_many() batch. The spans are views: the caller
  /// keeps the user/cell arrays alive for the duration of the call.
  struct LocateRequest {
    std::span<const UserId> users;
    std::span<const CellId> true_cells;
    LocateContext context{};
  };

  /// Serves a batch of locate requests in order on one warm footing: one
  /// `locate_batch` span instead of per-call trace roots, one batch-size
  /// histogram observation, and every per-call scratch structure (plan
  /// rows, grouping buffers, the evaluator arena) stays hot across the
  /// whole batch. Outcomes are bit-identical to calling locate() once per
  /// request in the same order with the same rng — batching changes the
  /// cost, never the result. An empty batch returns an empty vector.
  std::vector<LocateOutcome> locate_many(std::span<const LocateRequest> requests,
                                         prob::Rng& rng);

  /// The location profile the service would use for `user` over the cells
  /// of `area` right now (exposed for inspection and tests). Under
  /// kLastSeen with kOnAreaCrossing, `area` must be the user's reported
  /// one (a silent user has not left it): another area throws
  /// std::invalid_argument.
  [[nodiscard]] prob::ProbabilityVector profile_for(UserId user,
                                                    std::size_t area) const;

  /// Plan-table hit/miss counters of this service's lookups since
  /// construction. Only planned searches count: the blanket policy never
  /// plans and the adaptive policy re-plans by design, so neither touches
  /// the table.
  struct PlanCacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
  };
  [[nodiscard]] const PlanCacheStats& plan_cache_stats() const noexcept {
    return plan_cache_stats_;
  }

  /// The database record, for inspection.
  [[nodiscard]] const LocationDatabase& database() const { return db_; }

  /// Section name + version for checkpoint bundles (see
  /// support/state_io.h).
  static constexpr const char* kStateSection = "location_service";
  /// Version 2 dropped the plan-cache entries version 1 carried: which
  /// plans a shared evicting table holds depends on lane interleaving.
  /// Version 3 carries visit counts only under ProfileKind::kEmpirical;
  /// version 2 carried them for every profile kind. Version 4's clocks
  /// read 0 at the end of a report's step; version 3's read 1.
  static constexpr std::uint32_t kStateVersion = 4;

  /// Serializes the service's learned state — the location database
  /// records and, under ProfileKind::kEmpirical, the per-user visit
  /// counts — prefixed with a shape guard
  /// (user/cell/area counts and the policy knobs the bytes depend on).
  /// Pure function of the logical state: identical state yields
  /// identical bytes regardless of thread count. Plans are not state: a
  /// warm restart refills the table from its first lookups.
  [[nodiscard]] std::string save_state() const;

  /// Restores a kStateSection payload written by save_state against a
  /// freshly constructed service over the SAME topology and config.
  /// All-or-nothing: the payload is fully parsed and validated (shape
  /// guard, cell ranges, counts) before any field is touched, so a
  /// rejected payload leaves the service in its cold-start state.
  /// Returns false on any mismatch (an older version included) or
  /// malformed payload; NEVER throws on bad input.
  [[nodiscard]] bool restore_state(std::string_view payload,
                                   std::uint32_t version);

 private:
  bool page_answered(std::size_t cohabitants, prob::Rng& rng) const;

  struct AreaOutcome {
    std::size_t pages = 0;
    std::size_t rounds = 0;
    bool ran_all_rounds = false;
  };
  static constexpr std::size_t kUnknownLocal = static_cast<std::size_t>(-1);
  /// Pages one area of `num_cells` cells round by round by `plan` until
  /// every callee in `users` answers or the plan runs out of rounds.
  AreaOutcome execute_area_plan(const PlanRow& plan, std::size_t num_cells,
                                std::span<const UserId> users,
                                std::span<const CellId> true_cells,
                                const std::vector<std::size_t>& local_of,
                                std::vector<bool>& found,
                                LocateOutcome& outcome, prob::Rng& rng);
  /// `ep_out`, when non-null, receives the Lemma 2.1 expected paging of
  /// the returned plan (or stays untouched on the blanket/cheap path,
  /// which never builds an instance). The value is published with the
  /// plan, so attaching the EP histogram does not re-run the evaluator on
  /// table hits. Profile rows are built only for a new last-seen key, a
  /// planner run or an EP the publisher left out; a table hit on known
  /// keys signs from digests alone.
  /// Returns scratch_.planned, valid until the next plan_area call on
  /// this service.
  const PlanRow& plan_area(std::span<const UserId> group_users,
                           std::size_t area, std::size_t num_cells,
                           std::size_t d, bool plan_cheap,
                           double* ep_out = nullptr) const;
  /// Stages one profile-row pointer per callee in scratch_.row_ptrs
  /// (rows may alias, e.g. the shared per-area stationary profile).
  void stage_rows(std::span<const UserId> group_users, std::size_t area) const;
  /// Signs the planning inputs from one profile digest per callee: the
  /// memo's under kLastSeen when every key is known, else the staged
  /// rows' (filling the memo).
  [[nodiscard]] std::uint64_t plan_signature(
      std::span<const UserId> group_users, std::size_t num_cells,
      std::size_t area, std::size_t d) const;
  /// The per-user half of observe_move and observe_step under report
  /// policy P, on validated arguments: counts the visit, asks the policy
  /// and records the report, or loses it to the fault plan.
  template <ReportPolicy P>
  bool observe_user(UserId user, CellId new_cell);
  /// Calls f(std::integral_constant<ReportPolicy, P>{}) for the
  /// configured policy P: the one switch over report policies.
  template <typename F>
  decltype(auto) with_report_policy(F&& f);
  /// Advances `user`'s clock for the open step unless observe_move
  /// already did, and closes the step for it.
  void close_step(UserId user);
  /// Steps since `user`'s last report, capped at last_seen_horizon: with
  /// the reported cell, the key of its last-seen profile.
  [[nodiscard]] std::size_t last_seen_steps(UserId user) const;
  void run_recovery(std::span<const UserId> users,
                    std::span<const CellId> true_cells,
                    std::vector<std::size_t> missing,
                    std::size_t first_sweep_pages, std::size_t round_cap,
                    LocateOutcome& outcome, prob::Rng& rng);

  const GridTopology* grid_;
  const LocationAreas* areas_;
  const MarkovMobility* mobility_;
  Config config_;
  LocationDatabase db_;
  FaultPlan* faults_ = nullptr;
  std::size_t reports_lost_ = 0;
  /// What a silent callee's last-seen row conditions on: the report
  /// policy, its distance threshold, and the report-loss rate of the
  /// attached fault plan (of a shared table's memo, from construction).
  SilenceModel silence_;
  /// 1 for each user whose clock observe_move advanced in the open step;
  /// tick() advances the rest and clears it.
  std::vector<std::uint8_t> stepped_;
  /// Visit counts, users x cells row-major. Allocated only under
  /// ProfileKind::kEmpirical, the one profile kind that reads them;
  /// empty otherwise, so observe_move, save_state and restore_state
  /// touch them under that kind alone.
  std::vector<double> visit_counts_;
  std::vector<double> stationary_;  // cached when profile kind needs it
  /// Stationary profile restricted to each area, computed once at
  /// construction under ProfileKind::kStationary: the row is identical
  /// for every user, so the planning path shares one cached vector per
  /// area instead of rebuilding it per callee per call.
  std::vector<prob::ProbabilityVector> stationary_area_;
  /// The table planned searches go through: config_.shared_plan_table,
  /// else own_table_. nullptr with the plan cache off.
  SharedPlanTable* table_ = nullptr;
  std::unique_ptr<SharedPlanTable> own_table_;
  mutable PlanCacheStats plan_cache_stats_;

  /// Per-call scratch reused across locate() calls (and across a whole
  /// locate_many() batch): grouping buffers, per-area working vectors and
  /// the planning-row staging. Only sized, never shrunk, so a steady
  /// workload stops allocating after the first call. Mutable because the
  /// const planning path stages rows here; LocationService was never
  /// concurrently callable (locate() writes the database), so this adds
  /// no new threading constraint.
  struct LocateScratch {
    std::vector<std::pair<std::size_t, std::size_t>> area_of_index;
    std::vector<UserId> group_users;
    std::vector<CellId> group_cells;
    std::vector<std::size_t> local_of;
    std::vector<bool> found;
    std::vector<bool> area_paged_fully;
    std::vector<prob::ProbabilityVector> rows;
    std::vector<const prob::ProbabilityVector*> row_ptrs;
    std::vector<std::uint64_t> digests;
    /// The plan this call pages by, as wide as the table's rows. A table
    /// hit is copied here, which allocates nothing.
    PlanRow planned;
    /// Pages each round of `planned` spends.
    std::vector<std::size_t> round_pages;
  };
  mutable LocateScratch scratch_;

  /// Reaches execute_area_plan and page_answered from the plan-row tests
  /// (tests/test_plan_cache.cpp).
  friend struct LocationServiceTestPeer;
};

}  // namespace confcall::cellular
