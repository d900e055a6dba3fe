// Tests for the location-profile estimators.
#include "cellular/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "prob/rng.h"

namespace confcall::cellular {
namespace {

TEST(RestrictToArea, Renormalizes) {
  const double full[] = {0.1, 0.4, 0.2, 0.3};
  const CellId area[] = {1, 3};
  const auto profile = restrict_to_area(full, area);
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_NEAR(profile[0], 0.4 / 0.7, 1e-12);
  EXPECT_NEAR(profile[1], 0.3 / 0.7, 1e-12);
}

TEST(RestrictToArea, Validates) {
  const double full[] = {0.5, 0.5, 0.0};
  const CellId zero_mass[] = {2};
  EXPECT_THROW(restrict_to_area(full, zero_mass), std::invalid_argument);
  const CellId out_of_range[] = {5};
  EXPECT_THROW(restrict_to_area(full, out_of_range), std::invalid_argument);
  EXPECT_THROW(restrict_to_area(full, {}), std::invalid_argument);
}

TEST(EmpiricalProfile, CountsWithSmoothing) {
  const CellId trace[] = {0, 0, 1, 0, 2, 9};  // cell 9 outside the area
  const CellId area[] = {0, 1, 2};
  const auto profile = empirical_profile(trace, area, 1.0);
  // Counts 3,1,1 plus alpha 1 each: 4/8, 2/8, 2/8.
  EXPECT_NEAR(profile[0], 0.5, 1e-12);
  EXPECT_NEAR(profile[1], 0.25, 1e-12);
  EXPECT_NEAR(profile[2], 0.25, 1e-12);
}

TEST(EmpiricalProfile, ZeroAlphaRequiresVisits) {
  const CellId trace[] = {7};
  const CellId area[] = {0, 1};
  EXPECT_THROW(empirical_profile(trace, area, 0.0), std::invalid_argument);
  EXPECT_THROW(empirical_profile(trace, area, -1.0), std::invalid_argument);
}

TEST(EmpiricalProfile, SmoothingKeepsAllCellsPositive) {
  const CellId trace[] = {0, 0, 0};
  const CellId area[] = {0, 1, 2, 3};
  const auto profile = empirical_profile(trace, area, 0.5);
  for (const double p : profile) EXPECT_GT(p, 0.0);
  EXPECT_NEAR(std::accumulate(profile.begin(), profile.end(), 0.0), 1.0,
              1e-12);
}

TEST(ProfileFromCounts, MatchesEmpirical) {
  const CellId trace[] = {0, 0, 1, 0, 2};
  const CellId area[] = {0, 1, 2};
  std::vector<double> counts(5, 0.0);
  for (const CellId cell : trace) counts[cell] += 1.0;
  const auto a = empirical_profile(trace, area, 1.0);
  const auto b = profile_from_counts(counts, area, 1.0);
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_NEAR(a[j], b[j], 1e-12);
  }
}

TEST(StationaryProfile, UniformOnTorus) {
  const GridTopology grid(4, 4, /*toroidal=*/true);
  const MarkovMobility mobility(grid, 0.3);
  const CellId area[] = {0, 1, 2, 3};
  const auto profile = stationary_profile(mobility, area);
  for (const double p : profile) EXPECT_NEAR(p, 0.25, 1e-9);
}

TEST(LastSeenProfile, ZeroStepsIsPointMass) {
  const GridTopology grid(3, 3);
  const MarkovMobility mobility(grid, 0.5);
  const CellId area[] = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  const auto profile = last_seen_profile(mobility, 4, 0, area);
  EXPECT_DOUBLE_EQ(profile[4], 1.0);
}

TEST(LastSeenProfile, SpreadsWithTime) {
  const GridTopology grid(5, 5, /*toroidal=*/true);
  const MarkovMobility mobility(grid, 0.5);
  std::vector<CellId> area(25);
  std::iota(area.begin(), area.end(), CellId{0});
  const auto after1 = last_seen_profile(mobility, 12, 1, area);
  const auto after50 = last_seen_profile(mobility, 12, 50, area);
  // Mass at the origin decays toward the uniform stationary level.
  EXPECT_GT(after1[12], after50[12]);
  EXPECT_NEAR(after50[12], 1.0 / 25.0, 0.01);
}

TEST(LastSeenProfile, RestrictsToArea) {
  const GridTopology grid(4, 4);
  const MarkovMobility mobility(grid, 0.4);
  const CellId area[] = {0, 1, 4, 5};
  const auto profile = last_seen_profile(mobility, 0, 3, area);
  ASSERT_EQ(profile.size(), 4u);
  EXPECT_NEAR(std::accumulate(profile.begin(), profile.end(), 0.0), 1.0,
              1e-12);
  EXPECT_THROW(last_seen_profile(mobility, 99, 1, area),
               std::invalid_argument);
}

// The last-seen row must be the device's conditional law given its
// silence. The reference is built without the kernel: rejection-sampled
// walks of the real mobility chain, where each step spent outside the
// policy's allowed set survives with probability q (the report it sends
// is lost). For every policy, q in {0, 0.3}, every reported cell and
// every step count up to the horizon, each cell of the row must match
// the accepted walks' frequency within 5 standard errors.
TEST(LastSeenProfile, MatchesRejectionSampledConditionalLaw) {
  const GridTopology grid(4, 4, /*toroidal=*/true, Neighborhood::kVonNeumann);
  const LocationAreas areas = LocationAreas::tiles(grid, 2, 2);
  const MarkovMobility mobility(grid, 0.4);
  constexpr std::size_t kHorizon = 5;
  constexpr std::size_t kWalks = 20000;
  const std::size_t c = grid.num_cells();

  const auto allowed = [&](ReportPolicy policy, CellId from, CellId cell) {
    switch (policy) {
      case ReportPolicy::kOnAreaCrossing:
        return areas.area_of(cell) == areas.area_of(from);
      case ReportPolicy::kOnCellCrossing:
        return cell == from;
      case ReportPolicy::kDistanceThreshold:
        return grid.distance(from, cell) < 2;  // D = 2
      default:
        return true;
    }
  };
  // Worst standardised deviation of `row` from the accepted walks.
  const auto worst_z = [](const prob::ProbabilityVector& row,
                          const std::vector<double>& counts, double n) {
    double worst = 0.0;
    for (std::size_t k = 0; k < row.size(); ++k) {
      const double p = row[k];
      const double gap = std::abs(counts[k] / n - p);
      const double se = std::sqrt(p * (1.0 - p) / n);
      worst = std::max(worst, se > 0.0 ? gap / se : (gap > 0.0 ? 1e9 : 0.0));
    }
    return worst;
  };

  prob::Rng rng(2718);
  for (const ReportPolicy policy :
       {ReportPolicy::kNever, ReportPolicy::kOnAreaCrossing,
        ReportPolicy::kOnCellCrossing, ReportPolicy::kEveryTSteps,
        ReportPolicy::kDistanceThreshold}) {
    for (const double q : {0.0, 0.3}) {
      const SilenceModel silence{policy, 2, q};
      double plain_worst = 0.0;  // the unconditioned chain, for contrast
      for (CellId from = 0; from < c; ++from) {
        const std::vector<CellId>& area = areas.cells_in(areas.area_of(from));
        // counts[t][k]: accepted walks at area cell k after t steps.
        std::vector<std::vector<double>> counts(
            kHorizon + 1, std::vector<double>(area.size(), 0.0));
        for (std::size_t w = 0; w < kWalks; ++w) {
          CellId cell = from;
          for (std::size_t t = 0; t <= kHorizon; ++t) {
            if (t > 0) {
              cell = mobility.step(cell, rng);
              if (!allowed(policy, from, cell) && !(rng.next_double() < q)) {
                break;  // the report got through: not silent
              }
            }
            const auto it = std::find(area.begin(), area.end(), cell);
            if (it != area.end()) counts[t][it - area.begin()] += 1.0;
          }
        }
        for (std::size_t t = 0; t <= kHorizon; ++t) {
          SCOPED_TRACE(testing::Message()
                       << "policy " << static_cast<int>(policy) << ", q "
                       << q << ", cell " << from << ", steps " << t);
          const double n =
              std::accumulate(counts[t].begin(), counts[t].end(), 0.0);
          ASSERT_GT(n, 100.0);
          const auto row = last_seen_profile(mobility, from, t, area, silence);
          EXPECT_LT(worst_z(row, counts[t], n), 5.0);
          plain_worst = std::max(
              plain_worst,
              worst_z(last_seen_profile(mobility, from, t, area), counts[t],
                      n));
        }
      }
      // Where silence says something, the unconditioned chain fails the
      // same check: the test can tell the two laws apart.
      const bool informative = policy == ReportPolicy::kOnAreaCrossing ||
                               policy == ReportPolicy::kOnCellCrossing ||
                               policy == ReportPolicy::kDistanceThreshold;
      if (informative) {
        EXPECT_GT(plain_worst, 5.0) << "policy " << static_cast<int>(policy)
                                    << ", q " << q;
      }
    }
  }
}

TEST(LastSeenProfile, KilledRowsValidateTheirSilence) {
  const GridTopology grid(4, 4, /*toroidal=*/true, Neighborhood::kVonNeumann);
  const LocationAreas areas = LocationAreas::tiles(grid, 2, 2);
  const MarkovMobility mobility(grid, 0.4);
  const auto& area0 = areas.cells_in(0);
  // Under kOnAreaCrossing the area must be the reported one.
  const CellId outside = areas.cells_in(1).front();
  EXPECT_THROW(last_seen_profile(mobility, outside, 2, area0,
                                 {ReportPolicy::kOnAreaCrossing, 1, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(last_seen_profile(mobility, area0.front(), 2, area0,
                                 {ReportPolicy::kDistanceThreshold, 0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(last_seen_profile(mobility, area0.front(), 2, area0,
                                 {ReportPolicy::kOnCellCrossing, 1, 1.5}),
               std::invalid_argument);
  // A loss-free cell-crossing silence pins the device where it reported.
  const SilenceModel pinning{ReportPolicy::kOnCellCrossing, 1, 0.0};
  const auto pinned = last_seen_profile(mobility, area0[1], 7, area0, pinning);
  EXPECT_EQ(pinned[1], 1.0);
  // Losing every report makes silence say nothing.
  EXPECT_EQ(last_seen_profile(mobility, area0[1], 7, area0,
                              {ReportPolicy::kOnAreaCrossing, 1, 1.0}),
            last_seen_profile(mobility, area0[1], 7, area0));
}

}  // namespace
}  // namespace confcall::cellular
