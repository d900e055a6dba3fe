// End-to-end location-management simulator.
//
// Ties the substrate together into the system of the paper's Section 1.1:
// devices roam a cell grid (mobility.h), conference calls arrive
// (events.h), and a LocationService (service.h) tracks reports and pages
// callees under a delay constraint. Wireless cost = uplink reports +
// downlink pages, reproducing the reporting/paging tradeoff the paper
// frames (experiment E9). A FaultConfig (faults.h) additionally injects
// cell outages, report loss and paging-channel drops, and a RetryPolicy
// bounds the degraded-mode recovery (experiment E12).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cellular/events.h"
#include "cellular/faults.h"
#include "cellular/service.h"
#include "core/resilient_planner.h"
#include "prob/stats.h"
#include "support/metrics.h"
#include "support/overload.h"
#include "support/slo_controller.h"

namespace confcall::cellular {

/// Overload-protection configuration for a simulated deployment. The
/// simulator runs a virtual clock (a support::ManualClock advanced
/// step_duration_ns per step), so token refill, deadlines and breaker
/// cooldowns are all deterministic: a pinned seed reproduces identical
/// shed/degrade/breaker counters across runs and thread counts.
struct OverloadConfig {
  bool enabled = false;
  /// Token bucket + health machine. Costs are charged per CALLEE, so a
  /// 5-way conference weighs five tokens.
  support::AdmissionOptions admission{};
  /// Call-setup deadline per admitted call, in virtual ns (0 = none).
  /// LocationService turns it into a round budget via round_duration_ns.
  std::uint64_t call_deadline_ns = 0;
  /// Virtual cost of one paging round / duration of one step.
  std::uint64_t round_duration_ns = 1'000'000;    // 1 ms
  std::uint64_t step_duration_ns = 10'000'000;    // 10 ms
  /// Serve locate() through a breaker-guarded ResilientPlanner chain
  /// (typed-exact capped at planner_node_limit -> greedy -> blanket)
  /// instead of the built-in Fig. 1 call, so E14 can watch tiers fail
  /// over and breakers trip under load. The node limit is the
  /// deterministic failure signal: instances that would search past it
  /// are rejected by the exact tier.
  bool resilient_planner = false;
  std::uint64_t planner_node_limit = 20'000'000;
  support::CircuitBreakerOptions breaker{};
  /// Closed-loop SLO control (slo.enabled): a SloController reads the
  /// run's registry on the virtual clock's control-period grid and
  /// adapts the admission token rate, degrade threshold and breaker
  /// cooldowns to hold slo.target_p99_ns. The registry is created for
  /// the run even when SimConfig::collect_metrics is off (the sensor
  /// needs it); SimReport::metrics still follows collect_metrics. All
  /// controller state is driven by the ManualClock, so runs stay
  /// bit-identical across repeats and thread counts.
  support::SloOptions slo{};

  /// Throws std::invalid_argument with a specific message per rejection.
  void validate() const;
};

/// The overload-protection stack an OverloadConfig describes, built once
/// for every caller (run_simulation, ServingNode, the soak harness, E21):
/// with `enabled`, an AdmissionController and — with resilient_planner —
/// the breaker-guarded chain (typed-exact capped at planner_node_limit ->
/// greedy -> blanket); with slo.enabled as well, an SloController over
/// the admission throttle with every non-final tier breaker attached.
/// Disabled, it holds nothing and admits every call.
class OverloadStack {
 public:
  /// `clock` and `registry` (when given) must outlive the stack. With a
  /// registry, the chain, the admission controller and the SLO
  /// controller count into it and the SLO controller senses it; without
  /// one, the chain and the admission controller count into private
  /// registries. slo.enabled needs one. Build the stack after the
  /// series the SLO sensor reads are registered, so its baseline
  /// snapshot covers them.
  /// Throws std::invalid_argument on an invalid config.
  OverloadStack(const OverloadConfig& config, const support::ClockSource& clock,
                support::MetricRegistry* registry);

  /// Points a service config at the chain (when built) and, when
  /// admission is on, at the clock and round duration that call
  /// deadlines are read against.
  void configure(LocationService::Config& service) const;

  /// Decides one arriving call of `participants` callees (one token per
  /// callee). A degraded admit plans cheap, and an admitted call carries
  /// the configured call deadline. Without admission control: kAdmit.
  support::AdmissionController::Decision admit(
      std::size_t participants, LocationService::LocateContext& context);

  [[nodiscard]] core::ResilientPlanner* resilient() const noexcept {
    return resilient_.get();
  }
  [[nodiscard]] support::AdmissionController* admission() const noexcept {
    return admission_.get();
  }
  [[nodiscard]] support::SloController* slo() const noexcept {
    return slo_.get();
  }

 private:
  OverloadConfig config_;
  const support::ClockSource* clock_;
  std::unique_ptr<core::ResilientPlanner> resilient_;
  std::unique_ptr<support::AdmissionController> admission_;
  std::unique_ptr<support::SloController> slo_;
};

/// Simulation parameters. Defaults give a moderate system that runs in
/// milliseconds.
struct SimConfig {
  std::size_t grid_rows = 8;
  std::size_t grid_cols = 8;
  bool toroidal = true;
  /// Cell adjacency: 4-neighbour grid, 8-neighbour, or hexagonal (the
  /// usual cellular-planning layout).
  Neighborhood neighborhood = Neighborhood::kVonNeumann;
  std::size_t la_tile_rows = 4;  ///< location areas tile the grid
  std::size_t la_tile_cols = 4;
  std::size_t num_users = 32;
  double stay_probability = 0.6;  ///< mobility laziness
  double call_rate = 0.2;         ///< P[a call arrives] per step
  std::size_t group_min = 2;      ///< conference size range
  std::size_t group_max = 4;
  std::size_t max_paging_rounds = 3;  ///< the delay constraint d
  ReportPolicy report_policy = ReportPolicy::kOnAreaCrossing;
  std::size_t timer_period = 16;       ///< for kEveryTSteps
  std::size_t distance_threshold = 2;  ///< for kDistanceThreshold
  PagingPolicy paging_policy = PagingPolicy::kGreedy;
  ProfileKind profile_kind = ProfileKind::kLastSeen;
  double laplace_alpha = 1.0;    ///< smoothing for empirical profiles
  std::size_t last_seen_horizon = 100;  ///< cap on prediction steps
  std::size_t steps = 2000;       ///< simulated steps with traffic
  std::size_t warmup_steps = 200;  ///< movement-only steps beforehand
  /// When true, warmup steps also draw call arrivals and run them
  /// through the full admission/locate path, but leave every SimReport
  /// counter untouched. This lets closed-loop components (the SLO
  /// controller's AIMD convergence, bucket drain to its operating
  /// point) reach steady state before the measured window opens, so
  /// the report captures steady-state behaviour instead of the
  /// transient. Default off: byte-identical to the historical runs.
  bool warmup_calls = false;
  /// Section 5's imperfect-detection extension: paging a cell finds a
  /// device located there only with this probability (1 = classic model).
  /// Missed devices are recovered by repeated whole-grid sweeps, all
  /// accounted as paging cost. Requires kBlanketArea or kGreedy paging
  /// (the adaptive planner's conditioning assumes perfect detection).
  double detection_probability = 1.0;
  /// Section 5's response-collision refinement: when several SOUGHT
  /// devices share a paged cell, each answers the page successfully with
  /// probability detection_probability / (devices in that cell).
  bool collision_losses = false;
  /// Recovery behaviour: sweep count, backoff, page budget, deadline
  /// (replaces the old max_recovery_sweeps knob; retry.max_retries is
  /// its direct successor).
  RetryPolicy retry;
  /// Structured fault injection (all rates zero = fault-free; the run is
  /// then byte-identical to a build without the fault layer).
  FaultConfig faults;
  /// Bursty (Markov-modulated on/off) arrivals. When enabled, burst
  /// rates replace call_rate. Disabled = the classic Bernoulli stream,
  /// byte-identical to builds without the burst layer.
  BurstConfig burst;
  /// Admission control, deadlines and breaker-guarded planning. Disabled
  /// = no admission layer at all, byte-identical to older builds.
  OverloadConfig overload;
  /// Plan through the bounded plan table, reusing a strategy while its
  /// planning inputs are unchanged (see
  /// LocationService::Config::enable_plan_cache). Results are identical
  /// either way; only planning cost differs.
  bool enable_plan_cache = true;
  /// Attach a per-run MetricRegistry (locate / planner / admission
  /// series) and return its snapshot in SimReport::metrics. Off by
  /// default: the uninstrumented run is byte-identical to older builds.
  /// With it on, every metric is driven by the deterministic virtual
  /// clock and the seeded call sequence, so snapshots are bit-identical
  /// across runs and (after the batch's fixed-order merge) across
  /// thread counts.
  bool collect_metrics = false;
  double report_cost = 1.0;  ///< uplink cost per location report
  double page_cost = 1.0;    ///< downlink cost per cell paged
  std::uint64_t seed = 1;

  /// Consolidated validation: one specific std::invalid_argument message
  /// per rejected field/combination (zero users, group sizes out of
  /// range, rates outside [0, 1], zero paging rounds, adaptive policy
  /// with imperfect detection or faults, ...). run_simulation calls it
  /// first; exposed so harnesses can check configs up front.
  void validate() const;

  /// The LocationService::Config this simulation drives (also used by
  /// validate() so service-level rules are checked in one place).
  [[nodiscard]] LocationService::Config service_config() const;
};

/// Aggregated results of one simulation run.
struct SimReport {
  std::size_t steps = 0;
  /// Conference-call arrivals. Conservation invariant (checked by E14
  /// and the soak harness): calls_arrived == calls_completed +
  /// calls_abandoned + calls_shed, with calls_served = completed +
  /// abandoned (every admitted call is served one way or the other).
  std::size_t calls_arrived = 0;
  std::size_t calls_served = 0;
  /// Admitted calls where every callee answered within budget.
  std::size_t calls_completed = 0;
  /// Arrivals rejected by admission control (never reached locate()).
  std::size_t calls_shed = 0;
  /// Calls admitted under degraded health (served with the cheap plan).
  std::size_t calls_degraded_admit = 0;
  /// Admitted calls the propagated deadline truncated (planning budget
  /// cut or recovery cut off; see LocateOutcome::deadline_limited).
  std::size_t calls_deadline_limited = 0;
  /// Planner telemetry when OverloadConfig::resilient_planner is on.
  std::size_t breaker_trips = 0;
  std::size_t breaker_skips = 0;
  std::size_t planner_failovers = 0;
  /// Admission health-state changes (flap metric) and burst episodes.
  std::size_t health_transitions = 0;
  std::size_t bursts_entered = 0;
  /// SLO-controller telemetry when OverloadConfig::slo.enabled: control
  /// steps run, breached control periods, and pre-breach (degrading)
  /// periods signalled.
  std::size_t slo_control_steps = 0;
  std::size_t slo_breaches = 0;
  std::size_t slo_pre_breach_signals = 0;
  std::size_t reports_sent = 0;
  std::size_t cells_paged_total = 0;
  /// Pages spent blanket-covering the rest of the grid because a callee
  /// had left its reported area (stale database) or was missed by an
  /// unanswered page (detection_probability < 1).
  std::size_t fallback_pages = 0;
  /// Pages that hit a sought device's cell but went unanswered
  /// (detection_probability < 1 only).
  std::size_t missed_detections = 0;
  /// Uplink reports swallowed by injected faults (counted inside
  /// reports_sent: the device paid for them, the database missed them).
  std::size_t reports_lost = 0;
  /// Pages spent on sought callees' cells while those cells were dark.
  std::size_t outage_pages = 0;
  /// Paging rounds lost whole to injected channel drops.
  std::size_t dropped_rounds = 0;
  /// Recovery sweeps run across all calls.
  std::size_t retries_total = 0;
  /// Idle rounds spent in retry backoff across all calls.
  std::size_t backoff_rounds = 0;
  /// Calls that needed the degraded path (any retry or abandonment).
  std::size_t calls_degraded = 0;
  /// Calls that force-registered at least one callee unfound.
  std::size_t calls_abandoned = 0;
  /// Callees force-registered without answering, across all calls.
  std::size_t forced_registrations = 0;
  /// Calls whose recovery was cut short by page budget / deadline.
  std::size_t budget_exhaustions = 0;
  /// Injection-side fault counters (what the FaultPlan actually did),
  /// for conservation checks against the observation counters above.
  FaultStats faults_injected;
  /// Plan-cache counters (planned searches only; see
  /// LocationService::PlanCacheStats).
  std::size_t plan_cache_hits = 0;
  std::size_t plan_cache_misses = 0;
  prob::RunningStats pages_per_call;
  prob::RunningStats rounds_per_call;
  /// rounds_histogram[r] = admitted calls that used exactly r rounds.
  /// Exact percentiles (admitted-call setup latency in rounds; multiply
  /// by round_duration_ns for time) that merge losslessly across
  /// replications, unlike a RunningStats.
  std::vector<std::uint64_t> rounds_histogram;

  /// Smallest r with at least `p` of the admitted-call mass at or below
  /// it (0 when no calls were admitted). p in [0, 1].
  [[nodiscard]] std::size_t rounds_percentile(double p) const noexcept;

  /// Registry snapshot of the run (empty unless SimConfig::collect_metrics).
  /// merge() folds these too — counters and histogram buckets sum — so a
  /// batch aggregate carries one merged registry view.
  support::RegistrySnapshot metrics;

  [[nodiscard]] double plan_cache_hit_rate() const noexcept {
    const std::size_t total = plan_cache_hits + plan_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(plan_cache_hits) /
                            static_cast<double>(total);
  }

  /// Folds another run's counters and statistics into this report
  /// (replication aggregation). Counter sums are order-free; the
  /// RunningStats merges are floating-point, so callers that need
  /// reproducible aggregates must merge in a fixed order
  /// (run_simulation_batch merges in replication order).
  void merge(const SimReport& other);

  /// report_cost * reports + page_cost * pages, with the weights used.
  [[nodiscard]] double wireless_cost(double report_cost,
                                     double page_cost) const {
    return report_cost * static_cast<double>(reports_sent) +
           page_cost * static_cast<double>(cells_paged_total);
  }
};

/// Runs one simulation to completion. Deterministic given the config
/// (including its seeds). Throws std::invalid_argument on inconsistent
/// configuration (see SimConfig::validate).
SimReport run_simulation(const SimConfig& config);

/// A batch of independent replications of one configuration.
struct SimBatchReport {
  std::size_t replications = 0;
  /// Every counter summed and every RunningStats merged across the
  /// replications, in replication order.
  SimReport aggregate;
  /// Per-replication reports, in replication order.
  std::vector<SimReport> runs;
};

/// Runs `replications` independent copies of `base` across up to
/// `num_threads` threads (0 = all hardware threads). Replication r
/// reseeds both streams by substream index — prob::mix_seed(seed, r) for
/// the simulation and prob::mix_seed(faults.seed, r) for the fault plan —
/// and results are collected and merged in replication order, so the
/// batch output depends only on (config, replications): bit-identical
/// for every thread count. Throws std::invalid_argument on zero
/// replications or an invalid base config.
SimBatchReport run_simulation_batch(const SimConfig& base,
                                    std::size_t replications,
                                    std::size_t num_threads = 0);

}  // namespace confcall::cellular
