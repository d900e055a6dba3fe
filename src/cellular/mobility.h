// User mobility models over a cell grid.
//
// The paper assumes the per-device location distribution is given ([15,16]
// estimate it from movement). The simulator closes that loop: devices move
// by a lazy random walk (a Markov chain on the cell graph), the location
// management layer estimates distributions from observed traces
// (profile.h), and the paging algorithms consume the estimates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "cellular/topology.h"
#include "prob/rng.h"

namespace confcall::cellular {

/// Lazy random walk on the grid: with probability `stay` remain in the
/// current cell, otherwise move to a uniformly random neighbour. With
/// stay > 0 the chain is aperiodic; on a connected grid it is ergodic, so
/// the stationary distribution exists and power iteration converges.
class MarkovMobility {
 public:
  /// Throws std::invalid_argument unless 0 <= stay < 1 (stay = 1 would
  /// freeze every user and the stationary profile would be degenerate).
  MarkovMobility(const GridTopology& grid, double stay_probability);

  [[nodiscard]] const GridTopology& grid() const noexcept { return *grid_; }
  [[nodiscard]] double stay_probability() const noexcept { return stay_; }

  /// One transition from `current`: one next_double draw against the
  /// stay probability, then, on a move, one next_below draw over the
  /// cell's neighbours in GridTopology::neighbors order. Inline over the
  /// grid's flat neighbour table, since the simulator and every fleet
  /// area run it once per user per step. Throws std::out_of_range on a
  /// cell outside the grid.
  [[nodiscard]] CellId step(CellId current, prob::Rng& rng) const {
    if (current + std::size_t{1} >= neighbor_offsets_.size()) {
      throw std::out_of_range("MarkovMobility::step: cell out of range");
    }
    if (rng.next_double() < stay_) return current;
    const std::uint32_t first = neighbor_offsets_[current];
    const std::uint32_t count = neighbor_offsets_[current + 1] - first;
    if (count == 0) return current;  // 1x1 grid
    return neighbor_cells_[first + rng.next_below(count)];
  }

  /// The full transition-probability row of a cell (dense, length c).
  [[nodiscard]] std::vector<double> transition_row(CellId cell) const;

  /// Stationary distribution by power iteration to L1 tolerance `tol`
  /// (throws std::runtime_error if not converged in `max_iters`).
  [[nodiscard]] std::vector<double> stationary_distribution(
      std::size_t max_iters = 100000, double tol = 1e-12) const;

  /// `dist` advanced `steps` transitions, each followed by multiplying the
  /// mass on every cell outside `allowed` (distinct cells) by
  /// `outside_weight`. The one evolution loop: with `allowed` empty every
  /// cell is allowed and this is the plain chain (the t-step predictive
  /// distribution); the last-seen profile passes the cells a silent device
  /// may occupy and the report-loss rate (profile.h). With outside_weight
  /// 0 the chain is killed on leaving `allowed` and only the allowed cells
  /// are walked. Throws std::invalid_argument on a wrong length, an
  /// out-of-range allowed cell, a weight outside [0, 1], or, with weight
  /// 0, mass outside `allowed`.
  [[nodiscard]] std::vector<double> evolve(
      std::vector<double> dist, std::size_t steps,
      std::span<const CellId> allowed = {}, double outside_weight = 1.0) const;

  /// The killed chain in the allowed cells' local indices: `mass[k]` is
  /// the mass on `allowed[k]` (distinct cells), advanced `steps`
  /// transitions with whatever leaves `allowed` dropped. Bit for bit what
  /// evolve(dist, steps, allowed, 0) leaves on `allowed`, without a
  /// grid-sized array: the walk touches only the allowed cells. Throws
  /// std::invalid_argument on a length other than allowed.size() or an
  /// out-of-range cell.
  [[nodiscard]] std::vector<double> evolve_within(
      std::vector<double> mass, std::size_t steps,
      std::span<const CellId> allowed) const;

  /// A trace of `steps + 1` cells starting at `start` (inclusive).
  [[nodiscard]] std::vector<CellId> generate_trace(CellId start,
                                                   std::size_t steps,
                                                   prob::Rng& rng) const;

 private:
  /// The one evolution loop, over walk indices 0..offsets.size()-2:
  /// index k's neighbours are targets[offsets[k], offsets[k + 1]) (an
  /// index past the walk is a sink nobody reads). `next` is scratch of
  /// dist's size. With `inside` non-empty, the mass on every index whose
  /// flag is 0 is multiplied by `outside_weight` after each step.
  void walk(std::vector<double>& dist, std::vector<double>& next,
            std::size_t steps, std::span<const std::uint32_t> offsets,
            std::span<const std::uint32_t> targets,
            std::span<const std::uint8_t> inside = {},
            double outside_weight = 1.0) const;

  const GridTopology* grid_;
  double stay_;
  /// The grid's adjacency table (GridTopology::neighbor_offsets and
  /// neighbor_cells), viewed, not copied: cell c's neighbours are
  /// neighbor_cells_[neighbor_offsets_[c], neighbor_offsets_[c + 1]).
  std::span<const std::uint32_t> neighbor_offsets_;
  std::span<const CellId> neighbor_cells_;
};

/// `count` users placed uniformly at random on `grid`, one
/// rng.next_below draw per user in order: the starting cells every
/// simulated world (simulator, serving node, fleet benches) scatters
/// its users over.
[[nodiscard]] std::vector<CellId> scatter_users(const GridTopology& grid,
                                                std::size_t count,
                                                prob::Rng& rng);

}  // namespace confcall::cellular
