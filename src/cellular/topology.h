// Cell-grid topology and location areas.
//
// The paper's setting (Section 1.1): a wireless system is a set of cells;
// GSM MAP / IS-41 partition the cells into location areas (LAs), page a
// whole LA per call, and make devices report on LA crossings. We model the
// deployment as a rectangular grid of cells (optionally toroidal so border
// effects vanish in long simulations) tiled into rectangular LAs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.h"

namespace confcall::cellular {

using core::CellId;

/// Cell adjacency pattern. Real deployments plan cells hexagonally;
/// kHexagonal models that with "odd-r" offset coordinates on the same
/// rows x cols array (6 neighbours), so location-area tiling, mobility
/// and profiles work unchanged. kVonNeumann (4) is the simple default,
/// kMoore (8) adds diagonals.
enum class Neighborhood {
  kVonNeumann,
  kMoore,
  kHexagonal,
};

/// A rectangular array of cells with configurable adjacency.
class GridTopology {
 public:
  /// rows x cols cells; `toroidal` wraps the edges. Hexagonal wrap
  /// requires an even number of rows (odd-r offsets must line up across
  /// the seam) — violations throw std::invalid_argument, as do zero
  /// dimensions.
  GridTopology(std::size_t rows, std::size_t cols, bool toroidal = false,
               Neighborhood neighborhood = Neighborhood::kVonNeumann);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool toroidal() const noexcept { return toroidal_; }
  [[nodiscard]] Neighborhood neighborhood() const noexcept {
    return neighborhood_;
  }
  [[nodiscard]] std::size_t num_cells() const noexcept {
    return rows_ * cols_;
  }

  [[nodiscard]] CellId cell_at(std::size_t row, std::size_t col) const;
  [[nodiscard]] std::size_t row_of(CellId cell) const { return cell / cols_; }
  [[nodiscard]] std::size_t col_of(CellId cell) const { return cell % cols_; }

  /// The adjacent cells (2-4 of them; 4 when toroidal or interior).
  /// Throws std::out_of_range on a cell outside the grid.
  [[nodiscard]] std::span<const CellId> neighbors(CellId cell) const {
    const std::uint32_t last = neighbor_offsets_.at(cell + std::size_t{1});
    const std::uint32_t first = neighbor_offsets_[cell];
    return {neighbor_cells_.data() + first, last - first};
  }

  /// The adjacency as one table (CSR): cell c's neighbours are
  /// neighbor_cells()[neighbor_offsets()[c], neighbor_offsets()[c + 1]),
  /// in neighbors() order. num_cells() + 1 offsets.
  [[nodiscard]] std::span<const std::uint32_t> neighbor_offsets()
      const noexcept {
    return neighbor_offsets_;
  }
  [[nodiscard]] std::span<const CellId> neighbor_cells() const noexcept {
    return neighbor_cells_;
  }

  /// Hop distance between two cells under this grid's neighbourhood
  /// (Manhattan for kVonNeumann, Chebyshev for kMoore, BFS-computed for
  /// kHexagonal/toroidal cases), i.e., the length of a shortest walk.
  /// Throws std::invalid_argument on out-of-range cells.
  [[nodiscard]] std::size_t distance(CellId a, CellId b) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  bool toroidal_;
  Neighborhood neighborhood_;
  std::vector<std::uint32_t> neighbor_offsets_;
  std::vector<CellId> neighbor_cells_;
};

/// A partition of a grid's cells into location areas.
class LocationAreas {
 public:
  /// Tiles the grid into blocks of tile_rows x tile_cols cells (the last
  /// row/column of tiles may be smaller when the dimensions do not
  /// divide). Throws std::invalid_argument on zero tile dimensions.
  static LocationAreas tiles(const GridTopology& grid, std::size_t tile_rows,
                             std::size_t tile_cols);

  /// One location area covering the whole grid (degenerate baseline).
  static LocationAreas whole_grid(const GridTopology& grid);

  [[nodiscard]] std::size_t num_areas() const noexcept {
    return cells_in_area_.size();
  }

  /// Which area a cell belongs to.
  [[nodiscard]] std::size_t area_of(CellId cell) const {
    return area_of_.at(cell);
  }

  /// The cells of one area, ascending.
  [[nodiscard]] const std::vector<CellId>& cells_in(std::size_t area) const {
    return cells_in_area_.at(area);
  }

 private:
  LocationAreas(std::vector<std::size_t> area_of,
                std::vector<std::vector<CellId>> cells_in_area)
      : area_of_(std::move(area_of)),
        cells_in_area_(std::move(cells_in_area)) {}

  std::vector<std::size_t> area_of_;
  std::vector<std::vector<CellId>> cells_in_area_;
};

}  // namespace confcall::cellular
