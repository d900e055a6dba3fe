// Tests for the grid topology and location areas.
#include "cellular/topology.h"

#include "cellular/mobility.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace confcall::cellular {
namespace {

TEST(GridTopology, DimensionsAndIndexing) {
  const GridTopology grid(3, 4);
  EXPECT_EQ(grid.num_cells(), 12u);
  EXPECT_EQ(grid.cell_at(0, 0), 0u);
  EXPECT_EQ(grid.cell_at(2, 3), 11u);
  EXPECT_EQ(grid.row_of(7), 1u);
  EXPECT_EQ(grid.col_of(7), 3u);
  EXPECT_THROW((void)grid.cell_at(3, 0), std::invalid_argument);
  EXPECT_THROW(GridTopology(0, 4), std::invalid_argument);
}

TEST(GridTopology, InteriorCellHasFourNeighbors) {
  const GridTopology grid(3, 3);
  const auto& adj = grid.neighbors(grid.cell_at(1, 1));
  EXPECT_EQ(adj.size(), 4u);
}

TEST(GridTopology, CornerHasTwoNeighborsWhenBounded) {
  const GridTopology grid(3, 3, /*toroidal=*/false);
  EXPECT_EQ(grid.neighbors(grid.cell_at(0, 0)).size(), 2u);
  EXPECT_EQ(grid.neighbors(grid.cell_at(2, 2)).size(), 2u);
}

TEST(GridTopology, ToroidalIsRegular) {
  const GridTopology grid(3, 4, /*toroidal=*/true);
  for (std::size_t cell = 0; cell < grid.num_cells(); ++cell) {
    EXPECT_EQ(grid.neighbors(static_cast<CellId>(cell)).size(), 4u);
  }
}

TEST(GridTopology, NeighborsAreSymmetric) {
  for (const bool toroidal : {false, true}) {
    const GridTopology grid(4, 5, toroidal);
    for (std::size_t cell = 0; cell < grid.num_cells(); ++cell) {
      for (const CellId n : grid.neighbors(static_cast<CellId>(cell))) {
        const auto& back = grid.neighbors(n);
        EXPECT_NE(std::find(back.begin(), back.end(),
                            static_cast<CellId>(cell)),
                  back.end());
      }
    }
  }
}

TEST(GridTopology, DegenerateSingleRow) {
  const GridTopology line(1, 5);
  EXPECT_EQ(line.neighbors(0).size(), 1u);
  EXPECT_EQ(line.neighbors(2).size(), 2u);
  const GridTopology dot(1, 1);
  EXPECT_TRUE(dot.neighbors(0).empty());
}

TEST(GridTopology, MooreNeighborhoodHasEightInteriorNeighbors) {
  const GridTopology grid(4, 4, /*toroidal=*/false, Neighborhood::kMoore);
  EXPECT_EQ(grid.neighbors(grid.cell_at(1, 1)).size(), 8u);
  EXPECT_EQ(grid.neighbors(grid.cell_at(0, 0)).size(), 3u);
  const GridTopology torus(4, 4, /*toroidal=*/true, Neighborhood::kMoore);
  for (std::size_t cell = 0; cell < torus.num_cells(); ++cell) {
    EXPECT_EQ(torus.neighbors(static_cast<CellId>(cell)).size(), 8u);
  }
}

TEST(GridTopology, HexNeighborhoodHasSixNeighbors) {
  const GridTopology torus(4, 5, /*toroidal=*/true,
                           Neighborhood::kHexagonal);
  for (std::size_t cell = 0; cell < torus.num_cells(); ++cell) {
    EXPECT_EQ(torus.neighbors(static_cast<CellId>(cell)).size(), 6u);
  }
  // Bounded hex grid: interior cells still have 6.
  const GridTopology flat(5, 5, /*toroidal=*/false,
                          Neighborhood::kHexagonal);
  EXPECT_EQ(flat.neighbors(flat.cell_at(2, 2)).size(), 6u);
}

TEST(GridTopology, HexToroidalNeedsEvenRows) {
  EXPECT_THROW(GridTopology(3, 4, /*toroidal=*/true,
                            Neighborhood::kHexagonal),
               std::invalid_argument);
  EXPECT_NO_THROW(GridTopology(3, 4, /*toroidal=*/false,
                               Neighborhood::kHexagonal));
}

TEST(GridTopology, AllNeighborhoodsAreSymmetricSimpleGraphs) {
  for (const Neighborhood hood :
       {Neighborhood::kVonNeumann, Neighborhood::kMoore,
        Neighborhood::kHexagonal}) {
    for (const bool toroidal : {false, true}) {
      const GridTopology grid(4, 5, toroidal, hood);
      for (std::size_t cell = 0; cell < grid.num_cells(); ++cell) {
        const auto& adj = grid.neighbors(static_cast<CellId>(cell));
        // No self loops, no duplicates.
        EXPECT_EQ(std::count(adj.begin(), adj.end(),
                             static_cast<CellId>(cell)),
                  0);
        std::vector<CellId> sorted(adj.begin(), adj.end());
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                  sorted.end());
        // Symmetry.
        for (const CellId n : adj) {
          const auto& back = grid.neighbors(n);
          EXPECT_NE(std::find(back.begin(), back.end(),
                              static_cast<CellId>(cell)),
                    back.end());
        }
      }
    }
  }
}

TEST(GridTopology, TinyToroidalGridsStaySimple) {
  // 2-wide wrap would duplicate left/right neighbours; must be deduped.
  const GridTopology grid(1, 2, /*toroidal=*/true);
  const std::span<const CellId> neighbors = grid.neighbors(0);
  EXPECT_EQ(std::vector<CellId>(neighbors.begin(), neighbors.end()),
            (std::vector<CellId>{1}));
  const GridTopology square(2, 2, /*toroidal=*/true, Neighborhood::kMoore);
  EXPECT_EQ(square.neighbors(0).size(), 3u);  // the other three cells
}

TEST(GridTopology, MooreDistanceIsChebyshev) {
  const GridTopology grid(5, 5, /*toroidal=*/false, Neighborhood::kMoore);
  EXPECT_EQ(grid.distance(grid.cell_at(0, 0), grid.cell_at(3, 1)), 3u);
  EXPECT_EQ(grid.distance(grid.cell_at(0, 0), grid.cell_at(2, 2)), 2u);
}

TEST(GridTopology, HexDistanceMatchesBfsExpectations) {
  const GridTopology grid(6, 6, /*toroidal=*/false,
                          Neighborhood::kHexagonal);
  // Every neighbor at distance 1, and distance is a metric on samples.
  const CellId center = grid.cell_at(2, 2);
  for (const CellId n : grid.neighbors(center)) {
    EXPECT_EQ(grid.distance(center, n), 1u);
  }
  // Row 0 to row 5 straight down: odd-r hex rows advance one per step.
  EXPECT_EQ(grid.distance(grid.cell_at(0, 2), grid.cell_at(5, 2)), 5u);
  EXPECT_EQ(grid.distance(center, center), 0u);
}

TEST(GridTopology, MobilityWorksOnHexGrid) {
  const GridTopology grid(4, 4, /*toroidal=*/true,
                          Neighborhood::kHexagonal);
  const MarkovMobility mobility(grid, 0.4);
  const auto stationary = mobility.stationary_distribution();
  // Vertex-transitive hex torus: uniform stationary distribution.
  for (const double p : stationary) EXPECT_NEAR(p, 1.0 / 16.0, 1e-9);
}

TEST(GridTopology, ManhattanDistanceBounded) {
  const GridTopology grid(4, 5, /*toroidal=*/false);
  EXPECT_EQ(grid.distance(grid.cell_at(0, 0), grid.cell_at(0, 0)), 0u);
  EXPECT_EQ(grid.distance(grid.cell_at(0, 0), grid.cell_at(3, 4)), 7u);
  EXPECT_EQ(grid.distance(grid.cell_at(1, 2), grid.cell_at(2, 0)), 3u);
  // Symmetric.
  EXPECT_EQ(grid.distance(grid.cell_at(3, 4), grid.cell_at(0, 0)), 7u);
  EXPECT_THROW((void)grid.distance(0, 99), std::invalid_argument);
}

TEST(GridTopology, ToroidalDistanceWraps) {
  const GridTopology grid(4, 6, /*toroidal=*/true);
  // (0,0) -> (3,5): direct 3+5, wrapped 1+1.
  EXPECT_EQ(grid.distance(grid.cell_at(0, 0), grid.cell_at(3, 5)), 2u);
  EXPECT_EQ(grid.distance(grid.cell_at(0, 0), grid.cell_at(2, 3)), 5u);
}

TEST(GridTopology, DistanceOneForNeighbors) {
  for (const bool toroidal : {false, true}) {
    const GridTopology grid(3, 4, toroidal);
    for (std::size_t cell = 0; cell < grid.num_cells(); ++cell) {
      for (const CellId n : grid.neighbors(static_cast<CellId>(cell))) {
        EXPECT_EQ(grid.distance(static_cast<CellId>(cell), n), 1u);
      }
    }
  }
}

TEST(LocationAreas, TilesPartitionTheGrid) {
  const GridTopology grid(4, 6);
  const LocationAreas areas = LocationAreas::tiles(grid, 2, 3);
  EXPECT_EQ(areas.num_areas(), 4u);
  std::size_t covered = 0;
  for (std::size_t area = 0; area < areas.num_areas(); ++area) {
    covered += areas.cells_in(area).size();
    for (const CellId cell : areas.cells_in(area)) {
      EXPECT_EQ(areas.area_of(cell), area);
    }
  }
  EXPECT_EQ(covered, grid.num_cells());
}

TEST(LocationAreas, UnevenTilesStillPartition) {
  const GridTopology grid(5, 5);
  const LocationAreas areas = LocationAreas::tiles(grid, 2, 2);
  std::size_t covered = 0;
  for (std::size_t area = 0; area < areas.num_areas(); ++area) {
    covered += areas.cells_in(area).size();
  }
  EXPECT_EQ(covered, 25u);
  EXPECT_EQ(areas.num_areas(), 9u);  // 3x3 tiles, edges smaller
}

TEST(LocationAreas, WholeGridSingleArea) {
  const GridTopology grid(3, 3);
  const LocationAreas areas = LocationAreas::whole_grid(grid);
  EXPECT_EQ(areas.num_areas(), 1u);
  EXPECT_EQ(areas.cells_in(0).size(), 9u);
  EXPECT_EQ(areas.area_of(5), 0u);
}

TEST(LocationAreas, ValidatesTileDimensions) {
  const GridTopology grid(3, 3);
  EXPECT_THROW(LocationAreas::tiles(grid, 0, 2), std::invalid_argument);
}

}  // namespace
}  // namespace confcall::cellular
