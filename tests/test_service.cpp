// Integration tests for the LocationService facade.
#include "cellular/service.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cellular/profile.h"
#include "core/resilient_planner.h"
#include "support/state_io.h"

namespace confcall::cellular {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : grid_(6, 6, /*toroidal=*/true),
        areas_(LocationAreas::tiles(grid_, 3, 3)),
        mobility_(grid_, 0.5) {}

  LocationService make_service(LocationService::Config config,
                               std::vector<CellId> cells = {0, 7, 20, 35}) {
    return LocationService(grid_, areas_, mobility_, config,
                           std::move(cells));
  }

  GridTopology grid_;
  LocationAreas areas_;
  MarkovMobility mobility_;
};

TEST_F(ServiceTest, ValidatesConfiguration) {
  LocationService::Config config;
  EXPECT_THROW(make_service(config, {}), std::invalid_argument);
  config.max_paging_rounds = 0;
  EXPECT_THROW(make_service(config), std::invalid_argument);
  config = {};
  config.detection_probability = 0.0;
  EXPECT_THROW(make_service(config), std::invalid_argument);
  config = {};
  config.detection_probability = 0.5;
  config.paging_policy = PagingPolicy::kAdaptive;
  EXPECT_THROW(make_service(config), std::invalid_argument);
  config = {};
  EXPECT_THROW(make_service(config, {99}), std::invalid_argument);
}

TEST_F(ServiceTest, AttachRegistersEveryone) {
  const LocationService service = make_service({});
  EXPECT_EQ(service.num_users(), 4u);
  EXPECT_EQ(service.database().reported_cell(0), 0u);
  EXPECT_EQ(service.database().reported_area(2), areas_.area_of(20));
}

TEST_F(ServiceTest, ObserveMoveAppliesPolicy) {
  LocationService::Config config;
  config.report_policy = ReportPolicy::kOnAreaCrossing;
  LocationService service = make_service(config);
  // Within-area move (cell 0 -> cell 1, both in the top-left 3x3 tile).
  EXPECT_FALSE(service.observe_move(0, 1));
  // Crossing move (cell 1 -> cell 3 lies in the next tile).
  EXPECT_TRUE(service.observe_move(0, 3));
  EXPECT_EQ(service.database().reported_cell(0), 3u);
  EXPECT_THROW(service.observe_move(9, 0), std::invalid_argument);
}

TEST_F(ServiceTest, LocateFindsFreshUsersWithoutFallback) {
  LocationService service = make_service({});
  prob::Rng rng(1);
  const UserId users[] = {0, 1};
  const CellId truth[] = {0, 7};  // exactly where they registered
  const auto outcome = service.locate(users, truth, rng);
  EXPECT_EQ(outcome.fallback_pages, 0u);
  EXPECT_EQ(outcome.missed_detections, 0u);
  EXPECT_GE(outcome.cells_paged, 1u);
  EXPECT_LE(outcome.cells_paged, 18u);  // two 9-cell areas at most
}

TEST_F(ServiceTest, LocateValidatesArguments) {
  LocationService service = make_service({});
  prob::Rng rng(1);
  const UserId users[] = {0, 1};
  const CellId short_truth[] = {0};
  EXPECT_THROW(service.locate(users, short_truth, rng),
               std::invalid_argument);
  EXPECT_THROW(service.locate({}, {}, rng), std::invalid_argument);
  const CellId bad_cell[] = {0, 99};
  EXPECT_THROW(service.locate(users, bad_cell, rng), std::invalid_argument);
}

TEST_F(ServiceTest, StaleUserTriggersRecoverySweep) {
  LocationService::Config config;
  config.report_policy = ReportPolicy::kNever;
  LocationService service = make_service(config);
  prob::Rng rng(2);
  // User 0 registered at cell 0 (area 0) but actually sits in cell 35
  // (the opposite corner's area).
  const UserId users[] = {0};
  const CellId truth[] = {35};
  const auto outcome = service.locate(users, truth, rng);
  EXPECT_GT(outcome.fallback_pages, 0u);
  // The implicit report refreshed the record.
  EXPECT_EQ(service.database().reported_cell(0), 35u);
  // A repeat locate now needs no sweep.
  const auto again = service.locate(users, truth, rng);
  EXPECT_EQ(again.fallback_pages, 0u);
}

TEST_F(ServiceTest, TimerPolicyReportsEveryTSteps) {
  LocationService::Config config;
  config.report_policy = ReportPolicy::kEveryTSteps;
  config.timer_period = 4;
  LocationService service = make_service(config, {0});
  int reports = 0;
  for (int t = 0; t < 20; ++t) {
    if (service.observe_move(0, 0)) ++reports;  // not even moving
    service.tick();
  }
  // Steps 4, 8, 12, 16 and 20 after the power-on attach: exact period 4.
  EXPECT_EQ(reports, 5);
}

TEST_F(ServiceTest, ClockReadsZeroAtTheEndOfAReportsStep) {
  LocationService::Config config;
  config.report_policy = ReportPolicy::kOnAreaCrossing;
  for (const bool fused : {false, true}) {
    SCOPED_TRACE(fused ? "observe_step" : "observe_move + tick");
    LocationService service = make_service(config, {0, 7});
    const auto step = [&](CellId cell0) {
      const std::vector<CellId> cells = {cell0, 7};
      if (fused) {
        return service.observe_step(cells) > 0;
      }
      const bool reported = service.observe_move(0, cells[0]);
      (void)service.observe_move(1, cells[1]);
      service.tick();
      return reported;
    };
    EXPECT_FALSE(step(1));  // a move inside the attach area
    EXPECT_EQ(service.database().steps_since_report(0), 1u);
    EXPECT_TRUE(step(3));  // into the next tile: a mobility report
    EXPECT_EQ(service.database().steps_since_report(0), 0u);
    EXPECT_EQ(service.database().steps_since_report(1), 2u);
    EXPECT_FALSE(step(3));
    EXPECT_EQ(service.database().steps_since_report(0), 1u);
    EXPECT_FALSE(step(4));
    EXPECT_EQ(service.database().steps_since_report(0), 2u);
  }
}

TEST_F(ServiceTest, PagingReportClockIsUnchanged) {
  // A found callee re-registers between steps: its clock reads 0 after the
  // call and 1 after the next step, as before the clock moved.
  LocationService service = make_service({}, {0, 7});
  const std::vector<CellId> cells = {1, 7};
  (void)service.observe_step(cells);
  (void)service.observe_step(cells);
  EXPECT_EQ(service.database().steps_since_report(0), 2u);
  prob::Rng rng(5);
  const UserId users[] = {0};
  const CellId truth[] = {1};
  (void)service.locate(users, truth, rng);
  EXPECT_EQ(service.database().steps_since_report(0), 0u);
  EXPECT_EQ(service.database().reported_cell(0), 1u);
  (void)service.observe_step(cells);
  EXPECT_EQ(service.database().steps_since_report(0), 1u);
  service.tick();
  EXPECT_EQ(service.database().steps_since_report(0), 2u);
}

TEST_F(ServiceTest, TimerReportsKeepAnExactPeriod) {
  // Under kEveryTSteps, reports come exactly T steps after the last
  // report, whether that was the attach, a timer report or a page.
  LocationService::Config config;
  config.report_policy = ReportPolicy::kEveryTSteps;
  config.timer_period = 3;
  LocationService service = make_service(config, {0});
  const std::vector<CellId> cells = {0};
  std::vector<int> report_steps;
  prob::Rng rng(9);
  const UserId users[] = {0};
  for (int step = 1; step <= 16; ++step) {
    if (service.observe_step(cells) > 0) report_steps.push_back(step);
    if (step == 7) (void)service.locate(users, cells, rng);  // a page
  }
  EXPECT_EQ(report_steps, (std::vector<int>{3, 6, 10, 13, 16}));
}

TEST_F(ServiceTest, DistancePolicyReportsOnThreshold) {
  LocationService::Config config;
  config.report_policy = ReportPolicy::kDistanceThreshold;
  config.distance_threshold = 2;
  LocationService service = make_service(config, {0});
  // One hop: below threshold.
  EXPECT_FALSE(service.observe_move(0, 1));
  // Two hops from the reported cell 0: reports and re-anchors.
  EXPECT_TRUE(service.observe_move(0, 2));
  EXPECT_EQ(service.database().reported_cell(0), 2u);
  // One hop from the new anchor: silent again.
  EXPECT_FALSE(service.observe_move(0, 3));
}

TEST_F(ServiceTest, ExtendedPolicyParametersValidated) {
  LocationService::Config config;
  config.timer_period = 0;
  EXPECT_THROW(make_service(config), std::invalid_argument);
  config = {};
  config.distance_threshold = 0;
  EXPECT_THROW(make_service(config), std::invalid_argument);
}

TEST_F(ServiceTest, ImperfectDetectionReportsMisses) {
  LocationService::Config config;
  config.detection_probability = 0.2;
  LocationService service = make_service(config);
  prob::Rng rng(3);
  std::size_t total_misses = 0;
  const UserId users[] = {0, 1, 2, 3};
  const CellId truth[] = {0, 7, 20, 35};
  for (int call = 0; call < 30; ++call) {
    total_misses += service.locate(users, truth, rng).missed_detections;
  }
  EXPECT_GT(total_misses, 0u);
}

TEST_F(ServiceTest, ProfileForRespectsKind) {
  LocationService::Config empirical;
  empirical.profile_kind = ProfileKind::kEmpirical;
  empirical.laplace_alpha = 1.0;
  LocationService service = make_service(empirical);
  // Feed a heavily-biased trace for user 0 inside area 0.
  for (int t = 0; t < 50; ++t) {
    service.observe_move(0, 1);
    service.tick();
  }
  const auto profile = service.profile_for(0, 0);
  ASSERT_EQ(profile.size(), 9u);
  // Cell 1 is local index 1 in area 0's cell list {0,1,2,6,7,8,12,13,14}.
  const auto top =
      std::max_element(profile.begin(), profile.end()) - profile.begin();
  EXPECT_EQ(top, 1);
  EXPECT_NEAR(std::accumulate(profile.begin(), profile.end(), 0.0), 1.0,
              1e-12);
}

TEST_F(ServiceTest, StationaryProfileIsUniformOnTorus) {
  LocationService::Config config;
  config.profile_kind = ProfileKind::kStationary;
  const LocationService service = make_service(config);
  const auto profile = service.profile_for(0, 0);
  for (const double p : profile) EXPECT_NEAR(p, 1.0 / 9.0, 1e-9);
}

TEST_F(ServiceTest, AdaptivePolicyLocates) {
  LocationService::Config config;
  config.paging_policy = PagingPolicy::kAdaptive;
  LocationService service = make_service(config);
  prob::Rng rng(11);
  const UserId users[] = {0, 1, 2};
  const CellId truth[] = {0, 7, 20};
  const auto outcome = service.locate(users, truth, rng);
  EXPECT_EQ(outcome.fallback_pages, 0u);
  EXPECT_GE(outcome.cells_paged, 3u);
  EXPECT_LE(outcome.rounds_used, config.max_paging_rounds);
  // Implicit reports landed.
  EXPECT_EQ(service.database().reported_cell(2), 20u);
}

TEST_F(ServiceTest, AdaptiveFallsBackForStaleUsers) {
  LocationService::Config config;
  config.paging_policy = PagingPolicy::kAdaptive;
  config.report_policy = ReportPolicy::kNever;
  LocationService service = make_service(config);
  prob::Rng rng(12);
  const UserId users[] = {0};
  const CellId truth[] = {35};  // registered at 0, actually far away
  const auto outcome = service.locate(users, truth, rng);
  EXPECT_GT(outcome.fallback_pages, 0u);
  EXPECT_EQ(service.database().reported_cell(0), 35u);
}

TEST_F(ServiceTest, GreedyLocatePagesNoMoreThanBlanketOnAverage) {
  LocationService::Config greedy_config;
  greedy_config.paging_policy = PagingPolicy::kGreedy;
  LocationService::Config blanket_config;
  blanket_config.paging_policy = PagingPolicy::kBlanketArea;
  LocationService greedy = make_service(greedy_config);
  LocationService blanket = make_service(blanket_config);
  prob::Rng rng_a(4);
  prob::Rng rng_b(4);
  std::size_t greedy_pages = 0;
  std::size_t blanket_pages = 0;
  prob::Rng walk(5);
  std::vector<CellId> cells = {0, 7, 20, 35};
  for (int call = 0; call < 60; ++call) {
    for (std::size_t u = 0; u < cells.size(); ++u) {
      cells[u] = mobility_.step(cells[u], walk);
      greedy.observe_move(static_cast<UserId>(u), cells[u]);
      blanket.observe_move(static_cast<UserId>(u), cells[u]);
    }
    greedy.tick();
    blanket.tick();
    const UserId users[] = {0, 1, 2, 3};
    greedy_pages += greedy.locate(users, cells, rng_a).cells_paged;
    blanket_pages += blanket.locate(users, cells, rng_b).cells_paged;
  }
  EXPECT_LT(greedy_pages, blanket_pages);
}

TEST_F(ServiceTest, RetryPolicyValidated) {
  LocationService::Config config;
  config.retry.backoff_base = 16;
  config.retry.backoff_cap = 4;
  EXPECT_THROW(make_service(config), std::invalid_argument);
  config = {};
  config.retry.backoff_base = 4;
  config.retry.backoff_cap = 4;  // equal is fine
  EXPECT_NO_THROW(make_service(config));
}

TEST_F(ServiceTest, AttachFaultsRejectsAdaptivePolicy) {
  LocationService::Config config;
  config.paging_policy = PagingPolicy::kAdaptive;
  LocationService service = make_service(config);
  FaultPlan plan(FaultConfig{}, grid_.num_cells());
  EXPECT_THROW(service.attach_faults(&plan), std::invalid_argument);
  // nullptr detach is always allowed.
  LocationService greedy = make_service({});
  greedy.attach_faults(&plan);
  greedy.attach_faults(nullptr);
}

TEST_F(ServiceTest, DroppedReportLeavesDatabaseStale) {
  FaultConfig faulty;
  faulty.report_loss_rate = 1.0;  // every report is swallowed
  FaultPlan plan(faulty, grid_.num_cells());
  LocationService service = make_service({});
  service.attach_faults(&plan);
  // An area-crossing move fires the policy (uplink cost paid)...
  EXPECT_TRUE(service.observe_move(0, 3));
  // ...but the network never heard it.
  EXPECT_EQ(service.database().reported_cell(0), 0u);
  EXPECT_EQ(service.reports_lost(), 1u);
  EXPECT_EQ(plan.stats().reports_dropped, 1u);
}

TEST_F(ServiceTest, ObserveStepMatchesObserveMoveThenTick) {
  // Reference: the per-user observe_move calls and the tick() that
  // observe_step replaces, run on a twin service over the same walk.
  const std::vector<CellId> start = {0, 7, 20, 35, 14, 3, 28, 11};
  FaultConfig lossy;
  lossy.report_loss_rate = 0.3;
  for (const ReportPolicy policy :
       {ReportPolicy::kNever, ReportPolicy::kOnAreaCrossing,
        ReportPolicy::kOnCellCrossing, ReportPolicy::kEveryTSteps,
        ReportPolicy::kDistanceThreshold}) {
    for (const ProfileKind kind :
         {ProfileKind::kLastSeen, ProfileKind::kEmpirical}) {
      for (const bool faulted : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "policy " << static_cast<int>(policy) << ", kind "
                     << static_cast<int>(kind) << ", faults " << faulted);
        LocationService::Config config;
        config.report_policy = policy;
        config.profile_kind = kind;
        config.timer_period = 3;
        config.distance_threshold = 2;
        LocationService reference = make_service(config, start);
        LocationService fused = make_service(config, start);
        FaultPlan reference_faults(lossy, grid_.num_cells());
        FaultPlan fused_faults(lossy, grid_.num_cells());
        if (faulted) {
          reference.attach_faults(&reference_faults);
          fused.attach_faults(&fused_faults);
        }
        prob::Rng walk(17);
        std::vector<CellId> cells = start;
        std::size_t total = 0;
        for (int t = 0; t < 60; ++t) {
          for (CellId& cell : cells) cell = mobility_.step(cell, walk);
          std::size_t expected = 0;
          for (std::size_t u = 0; u < cells.size(); ++u) {
            if (reference.observe_move(static_cast<UserId>(u), cells[u])) {
              ++expected;
            }
          }
          reference.tick();
          ASSERT_EQ(fused.observe_step(cells), expected) << "step " << t;
          total += expected;
        }
        if (policy != ReportPolicy::kNever) EXPECT_GT(total, 0u);
        EXPECT_EQ(fused.save_state(), reference.save_state());
        EXPECT_EQ(fused.reports_lost(), reference.reports_lost());
        EXPECT_EQ(fused_faults.stats().reports_dropped,
                  reference_faults.stats().reports_dropped);
        if (faulted && policy != ReportPolicy::kNever) {
          EXPECT_GT(fused.reports_lost(), 0u);
        }

        // Rejected input changes nothing, fault stream included.
        const std::string before = fused.save_state();
        const std::size_t dropped = fused_faults.stats().reports_dropped;
        const std::vector<CellId> short_span(cells.begin(), cells.end() - 1);
        EXPECT_THROW((void)fused.observe_step(short_span),
                     std::invalid_argument);
        std::vector<CellId> bad = cells;
        bad.back() = static_cast<CellId>(grid_.num_cells());
        EXPECT_THROW((void)fused.observe_step(bad), std::invalid_argument);
        EXPECT_EQ(fused.save_state(), before);
        EXPECT_EQ(fused_faults.stats().reports_dropped, dropped);
      }
    }
  }
}

TEST_F(ServiceTest, DarkCellPagesAreCountedAndCallAbandoned) {
  // One fresh outage per step that never expires: after enough steps the
  // callee's cell is dark, every page on it is wasted, and the bounded
  // retry policy must abandon rather than spin.
  FaultConfig faulty;
  faulty.cell_outage_rate = 1.0;
  faulty.outage_duration = 10000;
  faulty.seed = 3;
  FaultPlan plan(faulty, grid_.num_cells());
  for (int step = 0; step < 400; ++step) plan.begin_step();
  ASSERT_TRUE(plan.cell_out(0));
  LocationService::Config config;
  config.retry.max_retries = 2;
  LocationService service = make_service(config);
  service.attach_faults(&plan);
  prob::Rng rng(5);
  const UserId users[] = {0};
  const CellId truth[] = {0};
  const auto outcome = service.locate(users, truth, rng);
  // Strategy phase + both recovery sweeps all paged the dark cell.
  EXPECT_GE(outcome.outage_pages, 3u);
  EXPECT_EQ(outcome.retries, 2u);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_TRUE(outcome.abandoned);
  EXPECT_EQ(outcome.forced_registrations, 1u);
}

TEST_F(ServiceTest, PageBudgetAbandonsInsteadOfSweeping) {
  LocationService::Config config;
  config.report_policy = ReportPolicy::kNever;
  config.retry.page_budget = 10;  // less than one 36-cell sweep
  LocationService service = make_service(config);
  prob::Rng rng(6);
  // Stale: registered at 0, actually at 35 — recovery would need a full
  // sweep, which the budget forbids.
  const UserId users[] = {0};
  const CellId truth[] = {35};
  const auto outcome = service.locate(users, truth, rng);
  EXPECT_TRUE(outcome.budget_exhausted);
  EXPECT_TRUE(outcome.abandoned);
  EXPECT_EQ(outcome.forced_registrations, 1u);
  EXPECT_EQ(outcome.fallback_pages, 0u);
  EXPECT_LE(outcome.cells_paged, 10u);
  // Force-registration still commits the truth.
  EXPECT_EQ(service.database().reported_cell(0), 35u);
}

TEST_F(ServiceTest, RoundDeadlineCutsRecoveryShort) {
  LocationService::Config config;
  config.report_policy = ReportPolicy::kNever;
  config.retry.backoff_base = 4;
  config.retry.backoff_cap = 8;
  config.retry.round_deadline = 4;  // search rounds alone nearly fill it
  LocationService service = make_service(config);
  prob::Rng rng(7);
  const UserId users[] = {0};
  const CellId truth[] = {35};
  const auto outcome = service.locate(users, truth, rng);
  // The first retry needs 4 backoff rounds + 1 sweep round: over the
  // deadline, so recovery never starts.
  EXPECT_TRUE(outcome.budget_exhausted);
  EXPECT_TRUE(outcome.abandoned);
  EXPECT_EQ(outcome.retries, 0u);
  EXPECT_LE(outcome.rounds_used, 4u);
}

TEST_F(ServiceTest, BackoffSpendsRoundsNotPages) {
  LocationService::Config config;
  config.report_policy = ReportPolicy::kNever;
  config.retry.backoff_base = 2;
  config.retry.backoff_cap = 8;
  LocationService with_backoff = make_service(config);
  LocationService::Config plain;
  plain.report_policy = ReportPolicy::kNever;
  LocationService without_backoff = make_service(plain);
  prob::Rng rng_a(8);
  prob::Rng rng_b(8);
  const UserId users[] = {0};
  const CellId truth[] = {35};
  const auto slow = with_backoff.locate(users, truth, rng_a);
  const auto fast = without_backoff.locate(users, truth, rng_b);
  EXPECT_GT(slow.backoff_rounds, 0u);
  EXPECT_EQ(fast.backoff_rounds, 0u);
  EXPECT_EQ(slow.cells_paged, fast.cells_paged);
  EXPECT_EQ(slow.rounds_used, fast.rounds_used + slow.backoff_rounds);
}

TEST_F(ServiceTest, ZeroPageBudgetNeverGatesRecovery) {
  // page_budget = 0 is "no budget", not "no pages": recovery must run.
  LocationService::Config config;
  config.report_policy = ReportPolicy::kNever;
  config.retry.page_budget = 0;
  LocationService service = make_service(config);
  prob::Rng rng(21);
  const UserId users[] = {0};
  const CellId truth[] = {35};
  const auto outcome = service.locate(users, truth, rng);
  EXPECT_FALSE(outcome.budget_exhausted);
  EXPECT_GT(outcome.fallback_pages, 0u);
  EXPECT_FALSE(outcome.abandoned);
}

TEST_F(ServiceTest, ZeroRoundDeadlineNeverGatesRecovery) {
  // round_deadline = 0 is "no deadline": even an 8-round backoff before
  // the first sweep must not be refused.
  LocationService::Config config;
  config.report_policy = ReportPolicy::kNever;
  config.retry.round_deadline = 0;
  config.retry.backoff_base = 8;
  config.retry.backoff_cap = 8;
  LocationService service = make_service(config);
  prob::Rng rng(22);
  const UserId users[] = {0};
  const CellId truth[] = {35};
  const auto outcome = service.locate(users, truth, rng);
  EXPECT_FALSE(outcome.budget_exhausted);
  EXPECT_GE(outcome.retries, 1u);
  EXPECT_GE(outcome.backoff_rounds, 8u);
  EXPECT_FALSE(outcome.abandoned);
}

TEST_F(ServiceTest, BackoffShiftSaturatesAtCapForLargeAttempts) {
  // 80 retries with exponential backoff: attempts past 63 would shift
  // past the width of the type; the policy must saturate at backoff_cap
  // instead of hitting undefined behaviour (ASan/UBSan CI guards this).
  FaultConfig faulty;
  faulty.cell_outage_rate = 1.0;
  faulty.outage_duration = 100000;
  faulty.seed = 3;
  FaultPlan plan(faulty, grid_.num_cells());
  for (int step = 0; step < 400; ++step) plan.begin_step();
  ASSERT_TRUE(plan.cell_out(0));
  LocationService::Config config;
  config.retry.max_retries = 80;
  config.retry.backoff_base = 1;
  config.retry.backoff_cap = 4;
  LocationService service = make_service(config);
  service.attach_faults(&plan);
  prob::Rng rng(23);
  const UserId users[] = {0};
  const CellId truth[] = {0};  // a dark cell: never answered
  const auto outcome = service.locate(users, truth, rng);
  EXPECT_EQ(outcome.retries, 80u);
  // Backoffs 1, 2, then 4 for the remaining 78 attempts.
  EXPECT_EQ(outcome.backoff_rounds, 1u + 2u + 78u * 4u);
  EXPECT_TRUE(outcome.abandoned);
}

TEST_F(ServiceTest, RetryExactlyAtRoundDeadlineBoundaryStillRuns) {
  // The planned round plus the sweep land EXACTLY on the deadline: the
  // sweep must run (the gate is strictly "cannot finish by", not "would
  // touch").
  LocationService::Config config;
  config.report_policy = ReportPolicy::kNever;
  config.max_paging_rounds = 1;
  config.retry.round_deadline = 2;  // 1 planned round + 1 sweep round
  LocationService service = make_service(config);
  prob::Rng rng(24);
  const UserId users[] = {0};
  const CellId truth[] = {35};
  const auto outcome = service.locate(users, truth, rng);
  EXPECT_EQ(outcome.retries, 1u);
  EXPECT_EQ(outcome.rounds_used, 2u);
  EXPECT_FALSE(outcome.budget_exhausted);
  EXPECT_FALSE(outcome.abandoned);
  // One round tighter and the same sweep is refused before it starts.
  LocationService::Config tight = config;
  tight.retry.round_deadline = 1;
  LocationService cramped = make_service(tight);
  prob::Rng rng_tight(24);
  const auto cut = cramped.locate(users, truth, rng_tight);
  EXPECT_EQ(cut.retries, 0u);
  EXPECT_TRUE(cut.budget_exhausted);
  EXPECT_TRUE(cut.abandoned);
}

TEST_F(ServiceTest, BoundedDeadlineNeedsClockAndRoundDuration) {
  LocationService service = make_service({});
  prob::Rng rng(25);
  const support::ManualClock clock;
  LocationService::LocateContext context;
  context.deadline = support::Deadline::after(1'000, clock);
  const UserId users[] = {0};
  const CellId truth[] = {0};
  EXPECT_THROW(service.locate(users, truth, rng, context),
               std::invalid_argument);
}

TEST_F(ServiceTest, DeadlineCapsPlannedRoundsAndCutsRecovery) {
  support::ManualClock clock;
  LocationService::Config config;
  config.report_policy = ReportPolicy::kNever;
  config.max_paging_rounds = 3;
  config.clock = &clock;
  config.round_duration_ns = 100;
  LocationService service = make_service(config);
  prob::Rng rng(26);
  LocationService::LocateContext context;
  context.deadline = support::Deadline::after(250, clock);  // 2 rounds
  const UserId users[] = {0};
  const CellId truth[] = {35};  // stale: recovery would need a sweep
  const auto outcome = service.locate(users, truth, rng, context);
  // The planning budget dropped from 3 to 2 rounds, and the sweep that
  // would have been round 3 was refused: the call abandoned instead of
  // overrunning its deadline.
  EXPECT_TRUE(outcome.deadline_limited);
  EXPECT_LE(outcome.rounds_used, 2u);
  EXPECT_TRUE(outcome.abandoned);
}

TEST_F(ServiceTest, ExpiredDeadlineAbandonsWithoutPaging) {
  support::ManualClock clock;
  LocationService::Config config;
  config.clock = &clock;
  config.round_duration_ns = 100;
  LocationService service = make_service(config);
  prob::Rng rng(27);
  LocationService::LocateContext context;
  context.deadline = support::Deadline::after(50, clock);  // < one round
  const UserId users[] = {0};
  const CellId truth[] = {0};
  const auto outcome = service.locate(users, truth, rng, context);
  EXPECT_TRUE(outcome.deadline_limited);
  EXPECT_EQ(outcome.cells_paged, 0u);
  EXPECT_EQ(outcome.rounds_used, 0u);
  EXPECT_TRUE(outcome.abandoned);
  EXPECT_EQ(outcome.forced_registrations, 1u);
}

TEST_F(ServiceTest, PlanCheapBlanketPagesTheArea) {
  LocationService service = make_service({});
  prob::Rng rng(28);
  LocationService::LocateContext context;
  context.plan_cheap = true;
  const UserId users[] = {0};
  const CellId truth[] = {0};
  const auto outcome = service.locate(users, truth, rng, context);
  // The cheap tier pages the whole 9-cell area in one round — no
  // planning, maximum bandwidth, minimum latency.
  EXPECT_EQ(outcome.cells_paged, 9u);
  EXPECT_EQ(outcome.rounds_used, 1u);
  EXPECT_FALSE(outcome.abandoned);
}

TEST_F(ServiceTest, ResilientPlannerServesLocate) {
  const auto resilient = core::ResilientPlanner::standard();
  LocationService::Config config;
  config.planner = resilient.get();
  LocationService service = make_service(config);
  prob::Rng rng(9);
  // Users 0 and 2 registered in different location areas, so the chain
  // plans two independent instances.
  const UserId users[] = {0, 2};
  const CellId truth[] = {0, 20};
  const auto outcome = service.locate(users, truth, rng);
  EXPECT_EQ(outcome.fallback_pages, 0u);
  EXPECT_GE(outcome.cells_paged, 1u);
  // The chain served from some tier for each of the two areas planned.
  std::uint64_t total_served = 0;
  for (const std::uint64_t count : resilient->served_counts()) {
    total_served += count;
  }
  EXPECT_EQ(total_served, 2u);
}

TEST_F(ServiceTest, PlannerOverrideRejectedUnderAdaptive) {
  const auto resilient = core::ResilientPlanner::standard();
  LocationService::Config config;
  config.planner = resilient.get();
  config.paging_policy = PagingPolicy::kAdaptive;
  EXPECT_THROW(make_service(config), std::invalid_argument);
}

// ---- locate_many batch transparency ---------------------------------

class LocateManyTest : public ServiceTest,
                       public ::testing::WithParamInterface<bool> {};

TEST_P(LocateManyTest, MatchesSingleLocatesWithSameSeeds) {
  // Same request stream through N single locate() calls and through one
  // locate_many on an identically seeded twin service: outcomes must be
  // field-identical, plan cache on or off (the test parameter).
  LocationService::Config config;
  config.enable_plan_cache = GetParam();
  // Imperfect detection makes locate consume rng draws, so this also
  // pins the draw ORDER inside the batch, not just the plan.
  config.detection_probability = 0.7;
  LocationService single = make_service(config);
  LocationService batched = make_service(config);
  prob::Rng rng_single(99);
  prob::Rng rng_batched(99);

  const std::vector<std::vector<UserId>> groups = {
      {0, 1}, {2, 3}, {0, 2, 3}, {1}, {0, 1, 2, 3}, {3, 1}};
  const CellId cells[] = {0, 7, 20, 35};  // where the users registered

  std::vector<LocationService::LocateOutcome> single_outcomes;
  std::vector<std::vector<CellId>> truths;
  for (const std::vector<UserId>& users : groups) {
    std::vector<CellId> truth;
    for (const UserId user : users) truth.push_back(cells[user]);
    truths.push_back(std::move(truth));
    single_outcomes.push_back(
        single.locate(users, truths.back(), rng_single));
  }

  std::vector<LocationService::LocateRequest> requests;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    requests.push_back({groups[i], truths[i], {}});
  }
  const std::vector<LocationService::LocateOutcome> batched_outcomes =
      batched.locate_many(requests, rng_batched);

  ASSERT_EQ(batched_outcomes.size(), single_outcomes.size());
  for (std::size_t i = 0; i < single_outcomes.size(); ++i) {
    EXPECT_TRUE(single_outcomes[i] == batched_outcomes[i])
        << "call " << i;
  }
  // The rng streams stayed in lockstep too.
  EXPECT_EQ(rng_single.next_u64(), rng_batched.next_u64());
}

INSTANTIATE_TEST_SUITE_P(PlanCacheOnOff, LocateManyTest,
                         ::testing::Bool());

TEST_F(ServiceTest, LocateManyEmptyBatchIsANoOp) {
  LocationService service = make_service({});
  prob::Rng rng(5);
  EXPECT_TRUE(service.locate_many({}, rng).empty());
}

// ---------------------------------------------------------------------------
// Durable state (save_state / restore_state)

namespace {

/// Drives a service through a deterministic mobility + locate history so
/// its database and visit statistics hold non-trivial state.
void warm_up(LocationService& service, prob::Rng& rng,
             std::vector<CellId>& cells, const MarkovMobility& mobility) {
  for (int step = 0; step < 40; ++step) {
    for (std::size_t u = 0; u < cells.size(); ++u) {
      cells[u] = mobility.step(cells[u], rng);
      (void)service.observe_move(static_cast<UserId>(u), cells[u]);
    }
    service.tick();
    if (step % 4 == 0) {
      const UserId user = static_cast<UserId>(step / 4 % cells.size());
      const CellId true_cell = cells[user];
      (void)service.locate({&user, 1}, {&true_cell, 1}, rng);
    }
  }
}

}  // namespace

TEST_F(ServiceTest, StateRoundTripRestoresLocateParity) {
  LocationService::Config config;
  config.paging_policy = PagingPolicy::kGreedy;
  LocationService warm = make_service(config);
  prob::Rng rng(17);
  std::vector<CellId> cells = {0, 7, 20, 35};
  warm_up(warm, rng, cells, mobility_);
  const std::string payload = warm.save_state();

  LocationService fresh = make_service(config);
  ASSERT_TRUE(
      fresh.restore_state(payload, LocationService::kStateVersion));

  // The restored database matches record for record (area re-derived).
  for (UserId u = 0; u < 4; ++u) {
    EXPECT_EQ(fresh.database().reported_cell(u),
              warm.database().reported_cell(u));
    EXPECT_EQ(fresh.database().reported_area(u),
              warm.database().reported_area(u));
    EXPECT_EQ(fresh.database().steps_since_report(u),
              warm.database().steps_since_report(u));
  }

  // Re-saving the restored service reproduces the bytes exactly (before
  // any further traffic mutates either side).
  EXPECT_EQ(fresh.save_state(), payload);

  // Locate parity: identical RNG streams against identical state must
  // produce identical outcomes — the restored service IS the warm one.
  prob::Rng rng_a(99);
  prob::Rng rng_b(99);
  for (UserId u = 0; u < 4; ++u) {
    const CellId true_cell = cells[u];
    const auto a = warm.locate({&u, 1}, {&true_cell, 1}, rng_a);
    const auto b = fresh.locate({&u, 1}, {&true_cell, 1}, rng_b);
    EXPECT_EQ(a.cells_paged, b.cells_paged);
    EXPECT_EQ(a.rounds_used, b.rounds_used);
    EXPECT_EQ(a.fallback_pages, b.fallback_pages);
    EXPECT_EQ(a.degraded, b.degraded);
  }

  // Both sides took the same post-restore traffic, so they still agree.
  EXPECT_EQ(fresh.save_state(), warm.save_state());
}

TEST_F(ServiceTest, RestoreRejectsShapeAndContentMismatches) {
  LocationService::Config config;
  config.paging_policy = PagingPolicy::kGreedy;
  LocationService warm = make_service(config);
  prob::Rng rng(11);
  std::vector<CellId> cells = {0, 7, 20, 35};
  warm_up(warm, rng, cells, mobility_);
  const std::string payload = warm.save_state();

  // Version skew, both ways: version 2 carried visit counts for every
  // profile kind, where this build writes them under kEmpirical only.
  LocationService fresh = make_service(config);
  EXPECT_FALSE(
      fresh.restore_state(payload, LocationService::kStateVersion + 1));
  EXPECT_FALSE(
      fresh.restore_state(payload, LocationService::kStateVersion - 1));

  // Different user count (shape guard).
  LocationService narrow = make_service(config, {0, 7});
  EXPECT_FALSE(
      narrow.restore_state(payload, LocationService::kStateVersion));

  // Different paging policy (shape guard).
  LocationService::Config blanket_config;
  blanket_config.paging_policy = PagingPolicy::kBlanketArea;
  LocationService blanket = make_service(blanket_config);
  EXPECT_FALSE(
      blanket.restore_state(payload, LocationService::kStateVersion));

  // Truncation at a sweep of prefix lengths (all of them would be slow
  // under ASan; every 7th covers each field kind).
  for (std::size_t len = 0; len < payload.size(); len += 7) {
    EXPECT_FALSE(fresh.restore_state(
        std::string_view(payload).substr(0, len),
        LocationService::kStateVersion))
        << "prefix " << len;
  }
  // Trailing garbage.
  EXPECT_FALSE(fresh.restore_state(payload + "zz",
                                   LocationService::kStateVersion));

  // An out-of-range cell id in the first database record.
  std::string bent = payload;
  const std::size_t first_record = 8 * 3 + 3 + 8;  // after the shape guard
  bent[first_record] = '\xff';
  bent[first_record + 1] = '\xff';
  EXPECT_FALSE(
      fresh.restore_state(bent, LocationService::kStateVersion));

  // Every rejection left the fresh service cold: records still at the
  // power-on attach positions.
  EXPECT_EQ(fresh.database().reported_cell(0), 0u);
  EXPECT_EQ(fresh.database().steps_since_report(0), 0u);

  // The pristine payload still restores after all those rejections.
  EXPECT_TRUE(
      fresh.restore_state(payload, LocationService::kStateVersion));
}

TEST_F(ServiceTest, EmpiricalCountsRoundTripExactly) {
  LocationService::Config config;
  config.profile_kind = ProfileKind::kEmpirical;
  LocationService warm = make_service(config);
  prob::Rng rng(23);
  std::vector<CellId> cells = {0, 7, 20, 35};
  warm_up(warm, rng, cells, mobility_);
  const std::string payload = warm.save_state();
  // Shape guard, one record per user, then every user's full-grid row.
  EXPECT_EQ(payload.size(), 35 + 12 * 4 + 8 * 4 * grid_.num_cells());

  LocationService fresh = make_service(config);
  ASSERT_TRUE(fresh.restore_state(payload, LocationService::kStateVersion));
  EXPECT_EQ(fresh.save_state(), payload);
  for (UserId u = 0; u < 4; ++u) {
    for (std::size_t area = 0; area < areas_.num_areas(); ++area) {
      EXPECT_EQ(fresh.profile_for(u, area), warm.profile_for(u, area))
          << "user " << u << " area " << area;
    }
  }
}

TEST_F(ServiceTest, CountlessKindsCarryOnlyRecords) {
  for (const ProfileKind kind :
       {ProfileKind::kLastSeen, ProfileKind::kStationary}) {
    LocationService::Config config;
    config.profile_kind = kind;
    LocationService warm = make_service(config);
    prob::Rng rng(29);
    std::vector<CellId> cells = {0, 7, 20, 35};
    warm_up(warm, rng, cells, mobility_);
    const std::string payload = warm.save_state();
    // Shape guard (3 x u64, 3 x u8, u64) and a (u32 cell, u64 steps)
    // record per user: no visit counts.
    EXPECT_EQ(payload.size(), 35u + 12u * warm.num_users())
        << static_cast<int>(kind);
    LocationService fresh = make_service(config);
    EXPECT_TRUE(fresh.restore_state(payload, LocationService::kStateVersion));
    EXPECT_EQ(fresh.save_state(), payload);
  }
}

TEST_F(ServiceTest, RestoreRejectsBadEmpiricalCounts) {
  LocationService::Config config;
  config.profile_kind = ProfileKind::kEmpirical;
  LocationService warm = make_service(config);
  prob::Rng rng(31);
  std::vector<CellId> cells = {0, 7, 20, 35};
  warm_up(warm, rng, cells, mobility_);
  const std::string payload = warm.save_state();
  // The last count of the last user's row, after the shape guard and
  // the database records.
  const std::size_t last_count = payload.size() - 8;
  ASSERT_GE(last_count, 35u + 12u * 4u);

  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    support::StateWriter writer;
    writer.put_f64(bad);
    std::string bent = payload;
    bent.replace(last_count, 8, std::move(writer).take());
    LocationService fresh = make_service(config);
    EXPECT_FALSE(fresh.restore_state(bent, LocationService::kStateVersion))
        << bad;
    // Rejected whole: the fresh service is still cold.
    EXPECT_EQ(fresh.save_state(), make_service(config).save_state());
  }
}

}  // namespace
}  // namespace confcall::cellular
