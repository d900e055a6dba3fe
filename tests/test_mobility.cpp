// Tests for the Markov mobility model.
#include "cellular/mobility.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace confcall::cellular {
namespace {

TEST(MarkovMobility, ValidatesStayProbability) {
  const GridTopology grid(3, 3);
  EXPECT_THROW(MarkovMobility(grid, -0.1), std::invalid_argument);
  EXPECT_THROW(MarkovMobility(grid, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(MarkovMobility(grid, 0.0));
}

TEST(MarkovMobility, TransitionRowIsDistribution) {
  const GridTopology grid(4, 4);
  const MarkovMobility mobility(grid, 0.3);
  for (std::size_t cell = 0; cell < grid.num_cells(); ++cell) {
    const auto row = mobility.transition_row(static_cast<CellId>(cell));
    EXPECT_NEAR(std::accumulate(row.begin(), row.end(), 0.0), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(row[cell], 0.3);
  }
}

TEST(MarkovMobility, StepFrequenciesMatchRow) {
  const GridTopology grid(3, 3, /*toroidal=*/true);
  const MarkovMobility mobility(grid, 0.5);
  const CellId start = grid.cell_at(1, 1);
  const auto row = mobility.transition_row(start);
  prob::Rng rng(1);
  std::vector<int> counts(grid.num_cells(), 0);
  const int n = 40000;
  for (int t = 0; t < n; ++t) ++counts[mobility.step(start, rng)];
  for (std::size_t j = 0; j < counts.size(); ++j) {
    EXPECT_NEAR(counts[j] / static_cast<double>(n), row[j], 0.01);
  }
}

/// MarkovMobility::step as it was before the flat neighbour table: the
/// move draws over GridTopology::neighbors directly.
CellId neighbour_list_step(const GridTopology& grid, double stay,
                           CellId current, prob::Rng& rng) {
  if (rng.next_double() < stay) return current;
  const auto& neighbors = grid.neighbors(current);
  if (neighbors.empty()) return current;
  return neighbors[rng.next_below(neighbors.size())];
}

TEST(MarkovMobility, StepMatchesTheNeighbourListDraw) {
  std::vector<GridTopology> grids;
  for (const Neighborhood hood : {Neighborhood::kVonNeumann,
                                  Neighborhood::kMoore,
                                  Neighborhood::kHexagonal}) {
    for (const bool toroidal : {false, true}) {
      grids.emplace_back(4, 5, toroidal, hood);
    }
  }
  grids.emplace_back(1, 1);
  for (const GridTopology& grid : grids) {
    SCOPED_TRACE(testing::Message()
                 << grid.rows() << "x" << grid.cols() << ", neighbourhood "
                 << static_cast<int>(grid.neighborhood()) << ", toroidal "
                 << grid.toroidal());
    for (const double stay : {0.0, 0.4}) {
      const MarkovMobility mobility(grid, stay);
      prob::Rng fast(31);
      prob::Rng reference(31);
      for (std::size_t start = 0; start < grid.num_cells(); ++start) {
        CellId a = static_cast<CellId>(start);
        CellId b = a;
        for (int t = 0; t < 200; ++t) {
          a = mobility.step(a, fast);
          b = neighbour_list_step(grid, stay, b, reference);
          ASSERT_EQ(a, b) << "start " << start << ", step " << t;
        }
        // Same draws consumed: the two generators are still in step.
        ASSERT_EQ(fast.next_u64(), reference.next_u64());
      }
    }
    const MarkovMobility mobility(grid, 0.4);
    prob::Rng rng(1);
    EXPECT_THROW((void)mobility.step(static_cast<CellId>(grid.num_cells()),
                                     rng),
                 std::out_of_range);
  }
}

TEST(MarkovMobility, EvolvePreservesMass) {
  const GridTopology grid(4, 5);
  const MarkovMobility mobility(grid, 0.4);
  std::vector<double> dist(grid.num_cells(), 0.0);
  dist[7] = 1.0;
  const auto evolved = mobility.evolve(dist, 13);
  EXPECT_NEAR(std::accumulate(evolved.begin(), evolved.end(), 0.0), 1.0,
              1e-12);
  EXPECT_THROW(mobility.evolve(std::vector<double>(3, 0.0), 1),
               std::invalid_argument);
}

TEST(MarkovMobility, EvolveWeightsTheMassOutsideTheAllowedCells) {
  const GridTopology grid(4, 4);
  const MarkovMobility mobility(grid, 0.4);
  std::vector<double> dist(grid.num_cells(), 0.0);
  dist[5] = 1.0;
  const std::vector<CellId> allowed = {0, 1, 4, 5};
  // Every cell allowed: the plain chain, bit for bit.
  std::vector<CellId> all(grid.num_cells());
  std::iota(all.begin(), all.end(), CellId{0});
  EXPECT_EQ(mobility.evolve(dist, 6, all, 0.0), mobility.evolve(dist, 6));
  EXPECT_EQ(mobility.evolve(dist, 6, allowed, 1.0), mobility.evolve(dist, 6));
  // One step, then the outside mass scaled: the weighted kernel.
  std::vector<double> once = mobility.evolve(dist, 1);
  for (std::size_t j = 0; j < once.size(); ++j) {
    if (std::find(allowed.begin(), allowed.end(), j) == allowed.end()) {
      once[j] *= 0.3;
    }
  }
  const auto weighted = mobility.evolve(dist, 1, allowed, 0.3);
  for (std::size_t j = 0; j < once.size(); ++j) {
    EXPECT_DOUBLE_EQ(weighted[j], once[j]) << "cell " << j;
  }
  // Killed: no mass leaves the allowed cells, and the survivors' mass
  // falls every step.
  const auto killed = mobility.evolve(dist, 3, allowed, 0.0);
  double kept = 0.0;
  for (std::size_t j = 0; j < killed.size(); ++j) {
    if (std::find(allowed.begin(), allowed.end(), j) == allowed.end()) {
      EXPECT_EQ(killed[j], 0.0) << "cell " << j;
    }
    kept += killed[j];
  }
  EXPECT_GT(kept, 0.0);
  EXPECT_LT(kept, 1.0);
  // A killed chain walks only its cells, so it needs no mass elsewhere.
  std::vector<double> stray = dist;
  stray[15] = 0.5;
  EXPECT_THROW((void)mobility.evolve(stray, 1, allowed, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)mobility.evolve(dist, 1, allowed, 1.5),
               std::invalid_argument);
  const std::vector<CellId> off_grid = {99};
  EXPECT_THROW((void)mobility.evolve(dist, 1, off_grid, 0.5),
               std::invalid_argument);
}

TEST(MarkovMobility, EvolveWithinIsTheKilledChainBitForBit) {
  // The killed chain walked in the allowed cells' local indices leaves
  // exactly the doubles the whole-grid evolve leaves on those cells, for
  // an area, a ball, one cell and a scattered, unsorted set.
  const GridTopology grid(6, 7);
  const MarkovMobility mobility(grid, 0.35);
  const std::vector<std::vector<CellId>> sets = {
      {8, 9, 10, 15, 16, 17}, {16, 9, 15, 17, 23}, {20}, {41, 0, 3, 40, 34}};
  for (const std::vector<CellId>& allowed : sets) {
    std::vector<double> mass(allowed.size(), 0.0);
    std::vector<double> dist(grid.num_cells(), 0.0);
    for (std::size_t k = 0; k < allowed.size(); ++k) {
      mass[k] = 1.0 / static_cast<double>(k + 2);
      dist[allowed[k]] = mass[k];
    }
    for (const std::size_t steps : {0u, 1u, 5u, 12u}) {
      const std::vector<double> whole =
          mobility.evolve(dist, steps, allowed, 0.0);
      const std::vector<double> local =
          mobility.evolve_within(mass, steps, allowed);
      ASSERT_EQ(local.size(), allowed.size());
      for (std::size_t k = 0; k < allowed.size(); ++k) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(local[k]),
                  std::bit_cast<std::uint64_t>(whole[allowed[k]]))
            << "cell " << allowed[k] << " after " << steps << " steps";
      }
    }
  }
  EXPECT_THROW((void)mobility.evolve_within({1.0}, 1, sets[0]),
               std::invalid_argument);
  const std::vector<CellId> off_grid = {99};
  EXPECT_THROW((void)mobility.evolve_within({1.0}, 1, off_grid),
               std::invalid_argument);
}

TEST(MarkovMobility, EvolveZeroStepsIsIdentity) {
  const GridTopology grid(2, 2);
  const MarkovMobility mobility(grid, 0.2);
  const std::vector<double> dist = {0.1, 0.2, 0.3, 0.4};
  EXPECT_EQ(mobility.evolve(dist, 0), dist);
}

TEST(MarkovMobility, StationaryUniformOnToroidalGrid) {
  // A lazy walk on a vertex-transitive graph has the uniform stationary
  // distribution.
  const GridTopology grid(4, 4, /*toroidal=*/true);
  const MarkovMobility mobility(grid, 0.25);
  const auto stationary = mobility.stationary_distribution();
  for (const double p : stationary) {
    EXPECT_NEAR(p, 1.0 / 16.0, 1e-9);
  }
}

TEST(MarkovMobility, StationaryProportionalToDegreePlusLazy) {
  // On a bounded grid the lazy walk's stationary mass grows with degree:
  // interior cells (degree 4) carry more than corners (degree 2).
  const GridTopology grid(3, 3, /*toroidal=*/false);
  const MarkovMobility mobility(grid, 0.5);
  const auto stationary = mobility.stationary_distribution();
  EXPECT_GT(stationary[grid.cell_at(1, 1)],
            stationary[grid.cell_at(0, 0)]);
}

TEST(MarkovMobility, StationaryIsFixedPoint) {
  const GridTopology grid(3, 4);
  const MarkovMobility mobility(grid, 0.35);
  const auto stationary = mobility.stationary_distribution();
  const auto advanced = mobility.evolve(stationary, 1);
  for (std::size_t j = 0; j < stationary.size(); ++j) {
    EXPECT_NEAR(advanced[j], stationary[j], 1e-9);
  }
}

TEST(MarkovMobility, TraceStartsAtStartAndStaysAdjacent) {
  const GridTopology grid(5, 5);
  const MarkovMobility mobility(grid, 0.3);
  prob::Rng rng(9);
  const auto trace = mobility.generate_trace(12, 200, rng);
  ASSERT_EQ(trace.size(), 201u);
  EXPECT_EQ(trace[0], 12u);
  for (std::size_t t = 1; t < trace.size(); ++t) {
    if (trace[t] == trace[t - 1]) continue;
    const auto& adj = grid.neighbors(trace[t - 1]);
    EXPECT_NE(std::find(adj.begin(), adj.end(), trace[t]), adj.end());
  }
  EXPECT_THROW(mobility.generate_trace(99, 10, rng), std::invalid_argument);
}

}  // namespace
}  // namespace confcall::cellular
