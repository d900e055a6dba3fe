// Tests for the location database and the reporting policies
// LocationService applies to it, plus the call generator.
#include "cellular/location_db.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "cellular/events.h"
#include "cellular/service.h"

namespace confcall::cellular {
namespace {

class LocationDbTest : public ::testing::Test {
 protected:
  LocationDbTest()
      : grid_(4, 4),
        areas_(LocationAreas::tiles(grid_, 2, 2)),
        mobility_(grid_, 0.5),
        db_(2, areas_, {grid_.cell_at(0, 0), grid_.cell_at(3, 3)}) {}

  /// The reporting policies are applied by LocationService::observe_move;
  /// this builds one over the same two registrations as db_.
  LocationService service_with(ReportPolicy policy) const {
    LocationService::Config config;
    config.report_policy = policy;
    return LocationService(grid_, areas_, mobility_, config,
                           {grid_.cell_at(0, 0), grid_.cell_at(3, 3)});
  }

  GridTopology grid_;
  LocationAreas areas_;
  MarkovMobility mobility_;
  LocationDatabase db_;
};

TEST_F(LocationDbTest, InitialRegistration) {
  EXPECT_EQ(db_.num_users(), 2u);
  EXPECT_EQ(db_.reported_cell(0), grid_.cell_at(0, 0));
  EXPECT_EQ(db_.reported_area(0), areas_.area_of(grid_.cell_at(0, 0)));
  EXPECT_EQ(db_.steps_since_report(0), 0u);
}

TEST_F(LocationDbTest, ConstructorValidates) {
  EXPECT_THROW(LocationDatabase(3, areas_, {0}), std::invalid_argument);
}

TEST_F(LocationDbTest, NeverPolicyStaysSilent) {
  LocationService service = service_with(ReportPolicy::kNever);
  EXPECT_FALSE(service.observe_move(0, grid_.cell_at(3, 3)));
  // The database record is untouched.
  EXPECT_EQ(service.database().reported_cell(0), grid_.cell_at(0, 0));
}

TEST_F(LocationDbTest, AreaCrossingReportsOnlyOnCrossing) {
  LocationService service = service_with(ReportPolicy::kOnAreaCrossing);
  // (0,0) -> (0,1): same 2x2 area, no report.
  EXPECT_FALSE(service.observe_move(0, grid_.cell_at(0, 1)));
  // (0,1) -> (0,2): crosses into the next tile.
  EXPECT_TRUE(service.observe_move(0, grid_.cell_at(0, 2)));
  EXPECT_EQ(service.database().reported_area(0),
            areas_.area_of(grid_.cell_at(0, 2)));
  EXPECT_EQ(service.database().reported_cell(0), grid_.cell_at(0, 2));
}

TEST_F(LocationDbTest, CellCrossingReportsEveryChange) {
  LocationService service = service_with(ReportPolicy::kOnCellCrossing);
  EXPECT_TRUE(service.observe_move(0, grid_.cell_at(0, 1)));
  EXPECT_FALSE(service.observe_move(0, grid_.cell_at(0, 1)));
}

TEST_F(LocationDbTest, TickAndReportResetClock) {
  db_.tick();
  db_.tick();
  EXPECT_EQ(db_.steps_since_report(0), 2u);
  db_.record_report(0, grid_.cell_at(1, 1));
  EXPECT_EQ(db_.steps_since_report(0), 0u);
  EXPECT_EQ(db_.steps_since_report(1), 2u);
}

TEST(CallGenerator, ValidatesConfiguration) {
  EXPECT_THROW(CallGenerator(-0.1, 5, 1, 2), std::invalid_argument);
  EXPECT_THROW(CallGenerator(1.1, 5, 1, 2), std::invalid_argument);
  EXPECT_THROW(CallGenerator(0.5, 5, 0, 2), std::invalid_argument);
  EXPECT_THROW(CallGenerator(0.5, 5, 3, 2), std::invalid_argument);
  EXPECT_THROW(CallGenerator(0.5, 5, 2, 6), std::invalid_argument);
}

TEST(CallGenerator, RateZeroNeverCalls) {
  const CallGenerator generator(0.0, 5, 2, 3);
  prob::Rng rng(1);
  for (int t = 0; t < 100; ++t) {
    EXPECT_TRUE(generator.maybe_call(rng).participants.empty());
  }
}

TEST(CallGenerator, RateOneAlwaysCalls) {
  const CallGenerator generator(1.0, 5, 2, 3);
  prob::Rng rng(2);
  for (int t = 0; t < 100; ++t) {
    const auto event = generator.maybe_call(rng);
    EXPECT_GE(event.participants.size(), 2u);
    EXPECT_LE(event.participants.size(), 3u);
  }
}

TEST(CallGenerator, ParticipantsAreDistinctAndInRange) {
  const CallGenerator generator(1.0, 6, 4, 6);
  prob::Rng rng(3);
  for (int t = 0; t < 200; ++t) {
    const auto event = generator.maybe_call(rng);
    std::set<UserId> unique(event.participants.begin(),
                            event.participants.end());
    EXPECT_EQ(unique.size(), event.participants.size());
    for (const UserId user : event.participants) EXPECT_LT(user, 6u);
  }
}

TEST(CallGenerator, RateMatchesFrequency) {
  const CallGenerator generator(0.3, 4, 1, 1);
  prob::Rng rng(4);
  int calls = 0;
  const int n = 20000;
  for (int t = 0; t < n; ++t) {
    if (!generator.maybe_call(rng).participants.empty()) ++calls;
  }
  EXPECT_NEAR(calls / static_cast<double>(n), 0.3, 0.015);
}

TEST(CallGenerator, EveryUserGetsCalled) {
  const CallGenerator generator(1.0, 8, 2, 3);
  prob::Rng rng(5);
  std::set<UserId> seen;
  for (int t = 0; t < 500; ++t) {
    for (const UserId user : generator.maybe_call(rng).participants) {
      seen.insert(user);
    }
  }
  EXPECT_EQ(seen.size(), 8u);
}

}  // namespace
}  // namespace confcall::cellular
