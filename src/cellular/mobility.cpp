#include "cellular/mobility.h"

#include <cmath>
#include <stdexcept>

namespace confcall::cellular {

MarkovMobility::MarkovMobility(const GridTopology& grid,
                               double stay_probability)
    : grid_(&grid), stay_(stay_probability) {
  if (stay_ < 0.0 || stay_ >= 1.0) {
    throw std::invalid_argument("MarkovMobility: need 0 <= stay < 1");
  }
  const std::size_t c = grid_->num_cells();
  neighbor_offsets_.reserve(c + 1);
  neighbor_offsets_.push_back(0);
  for (std::size_t cell = 0; cell < c; ++cell) {
    const auto& neighbors = grid_->neighbors(static_cast<CellId>(cell));
    neighbor_cells_.insert(neighbor_cells_.end(), neighbors.begin(),
                           neighbors.end());
    neighbor_offsets_.push_back(
        static_cast<std::uint32_t>(neighbor_cells_.size()));
  }
}

std::vector<double> MarkovMobility::transition_row(CellId cell) const {
  std::vector<double> row(grid_->num_cells(), 0.0);
  const auto& neighbors = grid_->neighbors(cell);
  if (neighbors.empty()) {
    row[cell] = 1.0;
    return row;
  }
  row[cell] = stay_;
  const double move = (1.0 - stay_) / static_cast<double>(neighbors.size());
  for (const CellId n : neighbors) row[n] += move;
  return row;
}

std::vector<double> MarkovMobility::evolve(std::vector<double> dist,
                                           std::size_t steps,
                                           std::span<const CellId> allowed,
                                           double outside_weight) const {
  const std::size_t c = grid_->num_cells();
  if (dist.size() != c) {
    throw std::invalid_argument("MarkovMobility::evolve: wrong length");
  }
  if (!(outside_weight >= 0.0 && outside_weight <= 1.0)) {
    throw std::invalid_argument(
        "MarkovMobility::evolve: outside_weight must be in [0, 1]");
  }
  // inside[j] = 1 on the allowed cells; empty when every cell is allowed.
  std::vector<std::uint8_t> inside;
  if (!allowed.empty()) {
    inside.assign(c, 0);
    for (const CellId cell : allowed) {
      if (cell >= c) {
        throw std::invalid_argument(
            "MarkovMobility::evolve: cell out of range");
      }
      inside[cell] = 1;
    }
  }
  // Killed: no mass ever stands outside the allowed cells, so the walk
  // visits only them and drops what they send beyond. Weighted: the walk
  // visits every cell and scales the outside mass after each step.
  const bool killed = !inside.empty() && outside_weight == 0.0;
  const bool weighted = !inside.empty() && !killed && outside_weight < 1.0;
  if (killed) {
    for (std::size_t j = 0; j < c; ++j) {
      if (inside[j] == 0 && dist[j] != 0.0) {
        throw std::invalid_argument(
            "MarkovMobility::evolve: mass outside a killed chain's cells");
      }
    }
  }
  const std::size_t walk = killed ? allowed.size() : c;
  std::vector<double> next(c, 0.0);
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t k = 0; k < walk; ++k) next[killed ? allowed[k] : k] = 0.0;
    for (std::size_t k = 0; k < walk; ++k) {
      const std::size_t j = killed ? allowed[k] : k;
      const double mass = dist[j];
      if (mass == 0.0) continue;
      const std::uint32_t first = neighbor_offsets_[j];
      const std::uint32_t count = neighbor_offsets_[j + 1] - first;
      if (count == 0) {  // 1x1 grid
        next[j] += mass;
        continue;
      }
      next[j] += mass * stay_;
      const double move = mass * (1.0 - stay_) / static_cast<double>(count);
      for (std::uint32_t e = first; e < first + count; ++e) {
        const CellId n = neighbor_cells_[e];
        if (!killed || inside[n] != 0) next[n] += move;
      }
    }
    if (weighted) {
      for (std::size_t j = 0; j < c; ++j) {
        if (inside[j] == 0) next[j] *= outside_weight;
      }
    }
    dist.swap(next);
  }
  return dist;
}

std::vector<double> MarkovMobility::stationary_distribution(
    std::size_t max_iters, double tol) const {
  const std::size_t c = grid_->num_cells();
  std::vector<double> dist(c, 1.0 / static_cast<double>(c));
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    std::vector<double> next = evolve(dist, 1);
    double delta = 0.0;
    for (std::size_t j = 0; j < c; ++j) delta += std::abs(next[j] - dist[j]);
    dist.swap(next);
    if (delta < tol) return dist;
  }
  throw std::runtime_error(
      "MarkovMobility: stationary distribution did not converge");
}

std::vector<CellId> MarkovMobility::generate_trace(CellId start,
                                                   std::size_t steps,
                                                   prob::Rng& rng) const {
  if (start >= grid_->num_cells()) {
    throw std::invalid_argument("MarkovMobility: start cell out of range");
  }
  std::vector<CellId> trace;
  trace.reserve(steps + 1);
  trace.push_back(start);
  CellId current = start;
  for (std::size_t t = 0; t < steps; ++t) {
    current = step(current, rng);
    trace.push_back(current);
  }
  return trace;
}

std::vector<CellId> scatter_users(const GridTopology& grid, std::size_t count,
                                  prob::Rng& rng) {
  std::vector<CellId> cells(count);
  for (CellId& cell : cells) {
    cell = static_cast<CellId>(rng.next_below(grid.num_cells()));
  }
  return cells;
}

}  // namespace confcall::cellular
