// End-to-end tests for the location-management simulator.
#include "cellular/simulator.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace confcall::cellular {
namespace {

SimConfig small_config() {
  SimConfig config;
  config.grid_rows = 6;
  config.grid_cols = 6;
  config.la_tile_rows = 3;
  config.la_tile_cols = 3;
  config.num_users = 12;
  config.steps = 300;
  config.warmup_steps = 50;
  config.call_rate = 0.4;
  config.group_min = 2;
  config.group_max = 3;
  config.seed = 42;
  return config;
}

TEST(Simulator, RunsAndServesCalls) {
  const SimReport report = run_simulation(small_config());
  EXPECT_EQ(report.steps, 350u);
  EXPECT_GT(report.calls_served, 50u);
  EXPECT_GT(report.cells_paged_total, 0u);
  EXPECT_EQ(report.pages_per_call.count(), report.calls_served);
}

TEST(Simulator, DeterministicForFixedSeed) {
  const SimReport a = run_simulation(small_config());
  const SimReport b = run_simulation(small_config());
  EXPECT_EQ(a.calls_served, b.calls_served);
  EXPECT_EQ(a.cells_paged_total, b.cells_paged_total);
  EXPECT_EQ(a.reports_sent, b.reports_sent);
}

TEST(Simulator, DifferentSeedsDiffer) {
  SimConfig config = small_config();
  config.seed = 43;
  const SimReport a = run_simulation(small_config());
  const SimReport b = run_simulation(config);
  EXPECT_NE(a.cells_paged_total, b.cells_paged_total);
}

TEST(Simulator, ValidatesConfig) {
  SimConfig config = small_config();
  config.num_users = 0;
  EXPECT_THROW(run_simulation(config), std::invalid_argument);
  config = small_config();
  config.max_paging_rounds = 0;
  EXPECT_THROW(run_simulation(config), std::invalid_argument);
}

TEST(Simulator, GreedyPagesNoMoreThanBlanket) {
  // With an up-to-date database (area-crossing reports), multi-round
  // greedy paging must beat paging the whole LA every time.
  SimConfig blanket = small_config();
  blanket.paging_policy = PagingPolicy::kBlanketArea;
  SimConfig greedy = small_config();
  greedy.paging_policy = PagingPolicy::kGreedy;
  const SimReport blanket_report = run_simulation(blanket);
  const SimReport greedy_report = run_simulation(greedy);
  EXPECT_EQ(blanket_report.calls_served, greedy_report.calls_served);
  EXPECT_LT(greedy_report.pages_per_call.mean(),
            blanket_report.pages_per_call.mean());
}

TEST(Simulator, MoreRoundsReduceMeanPaging) {
  SimConfig d1 = small_config();
  d1.max_paging_rounds = 1;
  SimConfig d4 = small_config();
  d4.max_paging_rounds = 4;
  const SimReport report1 = run_simulation(d1);
  const SimReport report4 = run_simulation(d4);
  EXPECT_LT(report4.pages_per_call.mean(), report1.pages_per_call.mean());
  EXPECT_GE(report4.rounds_per_call.mean(), report1.rounds_per_call.mean());
}

TEST(Simulator, ReportPolicyTradeoff) {
  // The paper's framing: silence => no uplink reports but huge paging;
  // area-crossing reporting => some reports, far less paging.
  SimConfig silent = small_config();
  silent.report_policy = ReportPolicy::kNever;
  SimConfig crossing = small_config();
  crossing.report_policy = ReportPolicy::kOnAreaCrossing;
  const SimReport silent_report = run_simulation(silent);
  const SimReport crossing_report = run_simulation(crossing);
  EXPECT_EQ(silent_report.reports_sent, 0u);
  EXPECT_GT(crossing_report.reports_sent, 0u);
  EXPECT_GT(silent_report.pages_per_call.mean(),
            crossing_report.pages_per_call.mean());
}

TEST(Simulator, HexAndMooreTopologiesRun) {
  for (const Neighborhood hood :
       {Neighborhood::kMoore, Neighborhood::kHexagonal}) {
    SimConfig config = small_config();
    config.neighborhood = hood;
    config.steps = 150;
    const SimReport report = run_simulation(config);
    EXPECT_GT(report.calls_served, 20u);
    EXPECT_GT(report.cells_paged_total, 0u);
  }
}

TEST(Simulator, TimerAndDistancePoliciesRun) {
  for (const ReportPolicy policy :
       {ReportPolicy::kEveryTSteps, ReportPolicy::kDistanceThreshold}) {
    SimConfig config = small_config();
    config.report_policy = policy;
    config.timer_period = 8;
    config.distance_threshold = 2;
    const SimReport report = run_simulation(config);
    EXPECT_GT(report.calls_served, 20u);
    EXPECT_GT(report.reports_sent, 0u);
  }
}

TEST(Simulator, TimerReportVolumeMatchesPeriod) {
  SimConfig config = small_config();
  config.report_policy = ReportPolicy::kEveryTSteps;
  config.timer_period = 10;
  config.call_rate = 0.0;  // reporting only
  const SimReport report = run_simulation(config);
  const double expected = static_cast<double>(config.num_users) *
                          static_cast<double>(report.steps) / 10.0;
  EXPECT_NEAR(static_cast<double>(report.reports_sent), expected,
              0.05 * expected + config.num_users);
}

TEST(Simulator, TighterDistanceThresholdReportsMore) {
  SimConfig loose = small_config();
  loose.report_policy = ReportPolicy::kDistanceThreshold;
  loose.distance_threshold = 4;
  loose.call_rate = 0.0;
  SimConfig tight = loose;
  tight.distance_threshold = 1;
  const SimReport loose_report = run_simulation(loose);
  const SimReport tight_report = run_simulation(tight);
  EXPECT_GT(tight_report.reports_sent, loose_report.reports_sent);
}

TEST(Simulator, CellCrossingEliminatesFallback) {
  // Reporting every cell keeps the database exact, so the search never
  // needs the whole-grid recovery sweep.
  SimConfig config = small_config();
  config.report_policy = ReportPolicy::kOnCellCrossing;
  const SimReport report = run_simulation(config);
  EXPECT_EQ(report.fallback_pages, 0u);
}

TEST(Simulator, AdaptivePolicyRuns) {
  SimConfig config = small_config();
  config.paging_policy = PagingPolicy::kAdaptive;
  config.steps = 150;
  const SimReport report = run_simulation(config);
  EXPECT_GT(report.calls_served, 20u);
  // Rounds never exceed the delay constraint plus the recovery sweep.
  EXPECT_LE(report.rounds_per_call.max(),
            static_cast<double>(config.max_paging_rounds) + 1.0);
}

TEST(Simulator, ProfileKindsAllWork) {
  for (const ProfileKind kind :
       {ProfileKind::kEmpirical, ProfileKind::kStationary,
        ProfileKind::kLastSeen}) {
    SimConfig config = small_config();
    config.profile_kind = kind;
    config.steps = 120;
    const SimReport report = run_simulation(config);
    EXPECT_GT(report.calls_served, 10u);
  }
}

TEST(Simulator, WirelessCostCombinesWeights) {
  const SimReport report = run_simulation(small_config());
  EXPECT_DOUBLE_EQ(
      report.wireless_cost(2.0, 0.5),
      2.0 * report.reports_sent + 0.5 * report.cells_paged_total);
}

TEST(Simulator, ImperfectDetectionCostsMorePaging) {
  // Section 5's extension: pages go unanswered with probability 1 - q,
  // so misses trigger re-sweeps and the paging bill grows as q falls.
  double previous = 0.0;
  for (const double q : {1.0, 0.8, 0.5}) {
    SimConfig config = small_config();
    config.detection_probability = q;
    const SimReport report = run_simulation(config);
    EXPECT_GE(report.pages_per_call.mean(), previous - 1e-9) << "q=" << q;
    previous = report.pages_per_call.mean();
    if (q < 1.0) {
      EXPECT_GT(report.missed_detections, 0u);
    } else {
      EXPECT_EQ(report.missed_detections, 0u);
    }
  }
}

TEST(Simulator, CollisionLossesCostEvenMore) {
  SimConfig plain = small_config();
  plain.detection_probability = 0.7;
  SimConfig collide = plain;
  collide.collision_losses = true;
  const SimReport plain_report = run_simulation(plain);
  const SimReport collide_report = run_simulation(collide);
  // Collisions can only add misses on average (callees do share cells on
  // a 36-cell grid with 12 users).
  EXPECT_GE(collide_report.missed_detections + 5,
            plain_report.missed_detections);
}

TEST(Simulator, DetectionModelValidation) {
  SimConfig config = small_config();
  config.detection_probability = 0.0;
  EXPECT_THROW(run_simulation(config), std::invalid_argument);
  config.detection_probability = 1.5;
  EXPECT_THROW(run_simulation(config), std::invalid_argument);
  config.detection_probability = 0.5;
  config.paging_policy = PagingPolicy::kAdaptive;
  EXPECT_THROW(run_simulation(config), std::invalid_argument);
}

TEST(Simulator, EveryCalleeEventuallyRegistered) {
  // Even with heavy losses the recovery path terminates and the call is
  // served (force-registration after max sweeps).
  SimConfig config = small_config();
  config.detection_probability = 0.3;
  config.collision_losses = true;
  config.retry.max_retries = 2;
  config.steps = 200;
  const SimReport report = run_simulation(config);
  EXPECT_GT(report.calls_served, 20u);
  EXPECT_GT(report.fallback_pages, 0u);
}

TEST(Simulator, SeedRegressionPinned) {
  // Byte-for-byte pins, last re-captured when the report clock started
  // reading 0 at the end of a report's step and last-seen rows started
  // conditioning on the callee's silence. With all fault rates zero and
  // the retry policy at defaults the simulation must not consume a
  // single extra rng draw; the same pins must hold whatever else the
  // zero-rate fault plan says (seed, outage duration). Any drift here
  // means the fault layer is not inert when disabled.
  SimConfig inert = small_config();
  inert.faults.seed = 0xdead;
  inert.faults.outage_duration = 3;
  for (const SimConfig& base : {small_config(), inert}) {
    SCOPED_TRACE(base.faults.seed == inert.faults.seed ? "re-seeded plan"
                                                       : "default plan");
    const SimReport plain = run_simulation(base);
    EXPECT_EQ(plain.calls_served, 113u);
    EXPECT_EQ(plain.reports_sent, 556u);
    EXPECT_EQ(plain.cells_paged_total, 824u);
    EXPECT_EQ(plain.fallback_pages, 0u);
    EXPECT_EQ(plain.missed_detections, 0u);
    EXPECT_EQ(plain.pages_per_call.mean(), 7.2920353982300865);
    EXPECT_EQ(plain.rounds_per_call.mean(), 1.9646017699115041);

    SimConfig lossy = base;
    lossy.detection_probability = 0.6;
    lossy.collision_losses = true;
    const SimReport noisy = run_simulation(lossy);
    EXPECT_EQ(noisy.calls_served, 121u);
    EXPECT_EQ(noisy.reports_sent, 558u);
    EXPECT_EQ(noisy.cells_paged_total, 7880u);
    EXPECT_EQ(noisy.fallback_pages, 6264u);
    EXPECT_EQ(noisy.missed_detections, 236u);
    EXPECT_EQ(noisy.pages_per_call.mean(), 65.123966942148783);
    EXPECT_EQ(noisy.rounds_per_call.mean(), 4.2975206611570274);
  }
}

TEST(Simulator, ZeroRetriesAbandonsInsteadOfLooping) {
  // max_retries = 0 with heavy losses: the recovery loop never runs, so
  // any callee missed on the first sweep is force-registered and the
  // call is counted abandoned — previously this was silently folded
  // into the sweep stats.
  SimConfig config = small_config();
  config.detection_probability = 0.3;
  config.collision_losses = true;
  config.retry.max_retries = 0;
  config.steps = 200;
  const SimReport report = run_simulation(config);
  EXPECT_GT(report.calls_served, 20u);
  EXPECT_GT(report.calls_abandoned, 0u);
  EXPECT_GT(report.forced_registrations, 0u);
  EXPECT_GE(report.forced_registrations, report.calls_abandoned);
  EXPECT_EQ(report.retries_total, 0u);
  // Abandoned calls still count as served (the conference proceeds with
  // whoever answered), so abandoned <= served.
  EXPECT_LE(report.calls_abandoned, report.calls_served);
}

TEST(Simulator, ValidationMessagesAreSpecific) {
  const auto message_of = [](SimConfig config) -> std::string {
    try {
      config.validate();
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };

  SimConfig config = small_config();
  config.num_users = 0;
  EXPECT_NE(message_of(config).find("num_users"), std::string::npos);

  config = small_config();
  config.stay_probability = 1.5;
  EXPECT_NE(message_of(config).find("stay_probability"), std::string::npos);

  config = small_config();
  config.group_min = 5;
  config.group_max = 4;
  EXPECT_NE(message_of(config).find("group_min"), std::string::npos);

  config = small_config();
  config.faults.report_loss_rate = -0.5;
  EXPECT_NE(message_of(config).find("report_loss_rate"), std::string::npos);

  config = small_config();
  config.retry.backoff_base = 9;
  config.retry.backoff_cap = 2;
  EXPECT_NE(message_of(config).find("backoff"), std::string::npos);

  config = small_config();
  config.paging_policy = PagingPolicy::kAdaptive;
  config.faults.cell_outage_rate = 0.1;
  EXPECT_NE(message_of(config).find("adaptive"), std::string::npos);
}

TEST(Simulator, FaultConservationInjectedEqualsObserved) {
  // Every injected fault must surface in exactly one observation-side
  // counter: dropped uplink reports in reports_lost, dropped paging
  // rounds in dropped_rounds. Outages are time-based (counted per
  // outage event, observed per page), so they are asserted as activity
  // rather than equality.
  SimConfig config = small_config();
  config.faults.cell_outage_rate = 0.05;
  config.faults.outage_duration = 30;
  config.faults.report_loss_rate = 0.2;
  config.faults.round_drop_rate = 0.1;
  config.retry.max_retries = 4;
  const SimReport report = run_simulation(config);
  EXPECT_EQ(report.reports_lost, report.faults_injected.reports_dropped);
  EXPECT_EQ(report.dropped_rounds, report.faults_injected.rounds_dropped);
  EXPECT_GT(report.faults_injected.outages_started, 0u);
  EXPECT_GT(report.outage_pages, 0u);
  EXPECT_GT(report.reports_lost, 0u);
  EXPECT_GT(report.dropped_rounds, 0u);
}

TEST(Simulator, BackoffRoundsInflateRoundsPerCall) {
  // Exponential backoff spends rounds between retries; under heavy
  // losses, a policy with backoff must report more rounds per call than
  // the same policy retrying immediately.
  SimConfig immediate = small_config();
  immediate.detection_probability = 0.4;
  immediate.retry.max_retries = 4;
  immediate.retry.backoff_base = 0;
  SimConfig backoff = immediate;
  backoff.retry.backoff_base = 2;
  backoff.retry.backoff_cap = 16;
  const SimReport fast = run_simulation(immediate);
  const SimReport slow = run_simulation(backoff);
  EXPECT_EQ(fast.backoff_rounds, 0u);
  EXPECT_GT(slow.backoff_rounds, 0u);
  EXPECT_GT(slow.rounds_per_call.mean(), fast.rounds_per_call.mean());
}

TEST(Simulator, PageBudgetBoundsRecoveryCost) {
  // A tight per-call page budget must cut recovery sweeps short (budget
  // exhaustions recorded, remaining callees force-registered) and hence
  // strictly bound the worst-case paging bill per call.
  SimConfig unbounded = small_config();
  unbounded.detection_probability = 0.3;
  unbounded.collision_losses = true;
  unbounded.retry.max_retries = 8;
  SimConfig capped = unbounded;
  capped.retry.page_budget = 50;
  const SimReport free_report = run_simulation(unbounded);
  const SimReport capped_report = run_simulation(capped);
  EXPECT_EQ(free_report.budget_exhaustions, 0u);
  EXPECT_GT(capped_report.budget_exhaustions, 0u);
  EXPECT_LE(capped_report.pages_per_call.max(), 50.0 + 36.0);
  EXPECT_LT(capped_report.pages_per_call.max(),
            free_report.pages_per_call.max());
}

TEST(Simulator, SingleCalleeWorkload) {
  // min = max = 1 reproduces the classical one-device paging workload.
  SimConfig config = small_config();
  config.group_min = 1;
  config.group_max = 1;
  const SimReport report = run_simulation(config);
  EXPECT_GT(report.calls_served, 50u);
  // A single callee in a 9-cell LA: mean paging must stay below 9 plus
  // occasional fallback sweeps.
  EXPECT_LT(report.pages_per_call.mean(), 12.0);
}

}  // namespace
}  // namespace confcall::cellular
