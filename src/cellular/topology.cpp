#include "cellular/topology.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>

namespace confcall::cellular {

GridTopology::GridTopology(std::size_t rows, std::size_t cols, bool toroidal,
                           Neighborhood neighborhood)
    : rows_(rows),
      cols_(cols),
      toroidal_(toroidal),
      neighborhood_(neighborhood) {
  if (rows_ == 0 || cols_ == 0) {
    throw std::invalid_argument("GridTopology: zero dimension");
  }
  if (neighborhood_ == Neighborhood::kHexagonal && toroidal_ &&
      rows_ % 2 != 0) {
    throw std::invalid_argument(
        "GridTopology: hexagonal toroidal grids need an even row count "
        "(odd-r offsets must line up across the wrap seam)");
  }

  using Offset = std::pair<int, int>;
  static const Offset kVonNeumannOffsets[] = {
      {-1, 0}, {1, 0}, {0, -1}, {0, 1}};
  static const Offset kMooreOffsets[] = {{-1, -1}, {-1, 0}, {-1, 1},
                                         {0, -1},  {0, 1},  {1, -1},
                                         {1, 0},   {1, 1}};
  // Odd-r hexagonal offsets depend on row parity.
  static const Offset kHexEven[] = {{-1, -1}, {-1, 0}, {0, -1},
                                    {0, 1},   {1, -1}, {1, 0}};
  static const Offset kHexOdd[] = {{-1, 0}, {-1, 1}, {0, -1},
                                   {0, 1},  {1, 0},  {1, 1}};

  neighbor_offsets_.reserve(rows_ * cols_ + 1);
  neighbor_offsets_.push_back(0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const auto first = static_cast<std::ptrdiff_t>(neighbor_cells_.size());
      std::span<const Offset> offsets;
      switch (neighborhood_) {
        case Neighborhood::kVonNeumann:
          offsets = kVonNeumannOffsets;
          break;
        case Neighborhood::kMoore:
          offsets = kMooreOffsets;
          break;
        case Neighborhood::kHexagonal:
          offsets = (r % 2 == 0) ? std::span<const Offset>(kHexEven)
                                 : std::span<const Offset>(kHexOdd);
          break;
      }
      for (const auto& [dr, dc] : offsets) {
        std::size_t rr, cc;
        if (toroidal_) {
          rr = (r + rows_ + static_cast<std::size_t>(dr + 1) - 1) % rows_;
          cc = (c + cols_ + static_cast<std::size_t>(dc + 1) - 1) % cols_;
        } else {
          const auto nr = static_cast<std::ptrdiff_t>(r) + dr;
          const auto nc = static_cast<std::ptrdiff_t>(c) + dc;
          if (nr < 0 || nc < 0 ||
              nr >= static_cast<std::ptrdiff_t>(rows_) ||
              nc >= static_cast<std::ptrdiff_t>(cols_)) {
            continue;
          }
          rr = static_cast<std::size_t>(nr);
          cc = static_cast<std::size_t>(nc);
        }
        const auto cell = static_cast<CellId>(rr * cols_ + cc);
        // Wrap on tiny grids can alias to self or duplicate; keep the
        // adjacency a simple graph.
        if (cell == static_cast<CellId>(r * cols_ + c)) continue;
        if (std::find(neighbor_cells_.begin() + first, neighbor_cells_.end(),
                      cell) != neighbor_cells_.end()) {
          continue;
        }
        neighbor_cells_.push_back(cell);
      }
      neighbor_offsets_.push_back(
          static_cast<std::uint32_t>(neighbor_cells_.size()));
    }
  }
}

std::size_t GridTopology::distance(CellId a, CellId b) const {
  if (a >= num_cells() || b >= num_cells()) {
    throw std::invalid_argument("GridTopology::distance: cell out of range");
  }
  if (a == b) return 0;
  // Closed forms for the rectangular neighbourhoods; BFS for hexagonal
  // (odd-r wrap distances have awkward case analysis — the graph is tiny).
  if (neighborhood_ != Neighborhood::kHexagonal) {
    const auto axis = [this](std::size_t x, std::size_t y,
                             std::size_t extent) {
      const std::size_t direct = x > y ? x - y : y - x;
      if (!toroidal_) return direct;
      return std::min(direct, extent - direct);
    };
    const std::size_t dr = axis(row_of(a), row_of(b), rows_);
    const std::size_t dc = axis(col_of(a), col_of(b), cols_);
    return neighborhood_ == Neighborhood::kMoore ? std::max(dr, dc)
                                                 : dr + dc;
  }
  std::vector<std::size_t> dist(num_cells(),
                                std::numeric_limits<std::size_t>::max());
  std::queue<CellId> frontier;
  dist[a] = 0;
  frontier.push(a);
  while (!frontier.empty()) {
    const CellId current = frontier.front();
    frontier.pop();
    if (current == b) return dist[current];
    for (const CellId next : neighbors(current)) {
      if (dist[next] == std::numeric_limits<std::size_t>::max()) {
        dist[next] = dist[current] + 1;
        frontier.push(next);
      }
    }
  }
  throw std::logic_error("GridTopology::distance: disconnected grid (bug)");
}

CellId GridTopology::cell_at(std::size_t row, std::size_t col) const {
  if (row >= rows_ || col >= cols_) {
    throw std::invalid_argument("GridTopology: coordinates out of range");
  }
  return static_cast<CellId>(row * cols_ + col);
}

LocationAreas LocationAreas::tiles(const GridTopology& grid,
                                   std::size_t tile_rows,
                                   std::size_t tile_cols) {
  if (tile_rows == 0 || tile_cols == 0) {
    throw std::invalid_argument("LocationAreas: zero tile dimension");
  }
  const std::size_t tiles_per_row = (grid.cols() + tile_cols - 1) / tile_cols;
  std::vector<std::size_t> area_of(grid.num_cells());
  std::size_t max_area = 0;
  for (std::size_t cell = 0; cell < grid.num_cells(); ++cell) {
    const std::size_t tr = grid.row_of(static_cast<CellId>(cell)) / tile_rows;
    const std::size_t tc = grid.col_of(static_cast<CellId>(cell)) / tile_cols;
    const std::size_t area = tr * tiles_per_row + tc;
    area_of[cell] = area;
    if (area > max_area) max_area = area;
  }
  std::vector<std::vector<CellId>> cells_in(max_area + 1);
  for (std::size_t cell = 0; cell < grid.num_cells(); ++cell) {
    cells_in[area_of[cell]].push_back(static_cast<CellId>(cell));
  }
  return LocationAreas(std::move(area_of), std::move(cells_in));
}

LocationAreas LocationAreas::whole_grid(const GridTopology& grid) {
  std::vector<std::size_t> area_of(grid.num_cells(), 0);
  std::vector<std::vector<CellId>> cells_in(1);
  for (std::size_t cell = 0; cell < grid.num_cells(); ++cell) {
    cells_in[0].push_back(static_cast<CellId>(cell));
  }
  return LocationAreas(std::move(area_of), std::move(cells_in));
}

}  // namespace confcall::cellular
