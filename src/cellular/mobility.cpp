#include "cellular/mobility.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace confcall::cellular {

MarkovMobility::MarkovMobility(const GridTopology& grid,
                               double stay_probability)
    : grid_(&grid),
      stay_(stay_probability),
      neighbor_offsets_(grid.neighbor_offsets()),
      neighbor_cells_(grid.neighbor_cells()) {
  if (stay_ < 0.0 || stay_ >= 1.0) {
    throw std::invalid_argument("MarkovMobility: need 0 <= stay < 1");
  }
}

std::vector<double> MarkovMobility::transition_row(CellId cell) const {
  std::vector<double> row(grid_->num_cells(), 0.0);
  const std::span<const CellId> neighbors = grid_->neighbors(cell);
  if (neighbors.empty()) {
    row[cell] = 1.0;
    return row;
  }
  row[cell] = stay_;
  const double move = (1.0 - stay_) / static_cast<double>(neighbors.size());
  for (const CellId n : neighbors) row[n] += move;
  return row;
}

namespace {

constexpr std::uint32_t kOutside = ~std::uint32_t{0};

/// A walk over the allowed cells in their local indices: cell allowed[k]
/// is index k, and index allowed.size() is a sink for the mass the
/// killed chain sends beyond them. Thread-local, so rows built on any
/// thread reuse it and allocate nothing here after the first.
struct LocalWalk {
  std::vector<std::uint32_t> local_of;  ///< grid cell -> index, else kOutside
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> targets;
  std::vector<double> next;
};

LocalWalk& local_walk() {
  thread_local LocalWalk walk;
  return walk;
}

}  // namespace

void MarkovMobility::walk(std::vector<double>& dist, std::vector<double>& next,
                          std::size_t steps,
                          std::span<const std::uint32_t> offsets,
                          std::span<const std::uint32_t> targets,
                          std::span<const std::uint8_t> inside,
                          double outside_weight) const {
  const std::size_t n = offsets.size() - 1;
  for (std::size_t t = 0; t < steps; ++t) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const double mass = dist[k];
      if (mass == 0.0) continue;
      const std::uint32_t first = offsets[k];
      const std::uint32_t count = offsets[k + 1] - first;
      if (count == 0) {  // 1x1 grid
        next[k] += mass;
        continue;
      }
      next[k] += mass * stay_;
      const double move = mass * (1.0 - stay_) / static_cast<double>(count);
      for (std::uint32_t e = first; e < first + count; ++e) {
        next[targets[e]] += move;
      }
    }
    if (!inside.empty()) {
      for (std::size_t k = 0; k < n; ++k) {
        if (inside[k] == 0) next[k] *= outside_weight;
      }
    }
    dist.swap(next);
  }
}

std::vector<double> MarkovMobility::evolve_within(
    std::vector<double> mass, std::size_t steps,
    std::span<const CellId> allowed) const {
  const std::size_t c = grid_->num_cells();
  const std::size_t n = allowed.size();
  if (mass.size() != n) {
    throw std::invalid_argument("MarkovMobility::evolve_within: wrong length");
  }
  for (const CellId cell : allowed) {
    if (cell >= c) {
      throw std::invalid_argument("MarkovMobility::evolve: cell out of range");
    }
  }
  // Each allowed cell's neighbours in local indices; a neighbour outside
  // the set is the sink, index n.
  LocalWalk& local = local_walk();
  if (local.local_of.size() < c) local.local_of.resize(c, kOutside);
  for (std::size_t k = 0; k < n; ++k) {
    local.local_of[allowed[k]] = static_cast<std::uint32_t>(k);
  }
  local.offsets.assign(1, 0);
  local.targets.clear();
  for (const CellId cell : allowed) {
    for (std::uint32_t e = neighbor_offsets_[cell];
         e < neighbor_offsets_[cell + 1]; ++e) {
      const std::uint32_t index = local.local_of[neighbor_cells_[e]];
      local.targets.push_back(index == kOutside ? static_cast<std::uint32_t>(n)
                                                : index);
    }
    local.offsets.push_back(static_cast<std::uint32_t>(local.targets.size()));
  }
  for (const CellId cell : allowed) local.local_of[cell] = kOutside;
  mass.push_back(0.0);  // the sink
  local.next.resize(n + 1);
  walk(mass, local.next, steps, local.offsets, local.targets);
  mass.pop_back();
  return mass;
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
  if (!inside.empty() && outside_weight == 0.0) {
    // Killed: no mass ever stands outside the allowed cells, so only they
    // are walked, in their local indices.
    for (std::size_t j = 0; j < c; ++j) {
      if (inside[j] == 0 && dist[j] != 0.0) {
        throw std::invalid_argument(
            "MarkovMobility::evolve: mass outside a killed chain's cells");
      }
    }
    std::vector<double> mass(allowed.size());
    for (std::size_t k = 0; k < allowed.size(); ++k) {
      mass[k] = dist[allowed[k]];
    }
    mass = evolve_within(std::move(mass), steps, allowed);
    for (std::size_t k = 0; k < allowed.size(); ++k) {
      dist[allowed[k]] = mass[k];
    }
    return dist;
  }
  // Weighted (0 < weight < 1): the walk visits every cell and scales the
  // outside mass after each step.
  const bool weighted = !inside.empty() && outside_weight < 1.0;
  std::vector<double> next(c, 0.0);
  walk(dist, next, steps, neighbor_offsets_, neighbor_cells_,
       weighted ? std::span<const std::uint8_t>(inside)
                : std::span<const std::uint8_t>(),
       outside_weight);
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
