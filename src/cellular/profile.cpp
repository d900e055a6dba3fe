#include "cellular/profile.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace confcall::cellular {

prob::ProbabilityVector restrict_to_area(std::span<const double> full,
                                         std::span<const CellId> area_cells) {
  if (area_cells.empty()) {
    throw std::invalid_argument("restrict_to_area: empty area");
  }
  std::vector<double> weights;
  weights.reserve(area_cells.size());
  for (const CellId cell : area_cells) {
    if (cell >= full.size()) {
      throw std::invalid_argument("restrict_to_area: cell out of range");
    }
    weights.push_back(full[cell]);
  }
  return prob::normalized(std::move(weights));
}

prob::ProbabilityVector empirical_profile(std::span<const CellId> trace,
                                          std::span<const CellId> area_cells,
                                          double laplace_alpha) {
  if (area_cells.empty()) {
    throw std::invalid_argument("empirical_profile: empty area");
  }
  if (laplace_alpha < 0.0) {
    throw std::invalid_argument("empirical_profile: negative alpha");
  }
  std::unordered_map<CellId, std::size_t> slot_of;
  slot_of.reserve(area_cells.size());
  for (std::size_t k = 0; k < area_cells.size(); ++k) {
    slot_of.emplace(area_cells[k], k);
  }
  std::vector<double> weights(area_cells.size(), laplace_alpha);
  for (const CellId visited : trace) {
    const auto it = slot_of.find(visited);
    if (it != slot_of.end()) weights[it->second] += 1.0;
  }
  return prob::normalized(std::move(weights));
}

prob::ProbabilityVector profile_from_counts(std::span<const double> counts,
                                            std::span<const CellId> area_cells,
                                            double laplace_alpha) {
  if (area_cells.empty()) {
    throw std::invalid_argument("profile_from_counts: empty area");
  }
  if (laplace_alpha < 0.0) {
    throw std::invalid_argument("profile_from_counts: negative alpha");
  }
  std::vector<double> weights;
  weights.reserve(area_cells.size());
  for (const CellId cell : area_cells) {
    if (cell >= counts.size()) {
      throw std::invalid_argument("profile_from_counts: cell out of range");
    }
    weights.push_back(counts[cell] + laplace_alpha);
  }
  return prob::normalized(std::move(weights));
}

prob::ProbabilityVector stationary_profile(
    const MarkovMobility& mobility, std::span<const CellId> area_cells) {
  const std::vector<double> stationary = mobility.stationary_distribution();
  return restrict_to_area(stationary, area_cells);
}

namespace {

/// The cells within `radius` hops of `center`, breadth first.
std::vector<CellId> ball(const GridTopology& grid, CellId center,
                         std::size_t radius) {
  std::vector<std::size_t> hops(grid.num_cells(), radius + 1);
  std::vector<CellId> cells = {center};
  hops[center] = 0;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const CellId cell = cells[k];
    if (hops[cell] == radius) continue;
    for (const CellId next : grid.neighbors(cell)) {
      if (hops[next] <= radius) continue;
      hops[next] = hops[cell] + 1;
      cells.push_back(next);
    }
  }
  return cells;
}

}  // namespace

prob::ProbabilityVector last_seen_profile(
    const MarkovMobility& mobility, CellId last_seen, std::size_t steps_since,
    std::span<const CellId> area_cells, const SilenceModel& silence) {
  const std::size_t c = mobility.grid().num_cells();
  if (last_seen >= c) {
    throw std::invalid_argument("last_seen_profile: cell out of range");
  }
  std::vector<CellId> own_cells;
  std::span<const CellId> allowed;  // empty: the whole grid
  switch (silence.policy) {
    case ReportPolicy::kNever:
    case ReportPolicy::kEveryTSteps:
      break;
    case ReportPolicy::kOnAreaCrossing:
      if (std::find(area_cells.begin(), area_cells.end(), last_seen) ==
          area_cells.end()) {
        throw std::invalid_argument(
            "last_seen_profile: the area is not the reported one");
      }
      allowed = area_cells;
      break;
    case ReportPolicy::kOnCellCrossing:
      own_cells = {last_seen};
      allowed = own_cells;
      break;
    case ReportPolicy::kDistanceThreshold:
      if (silence.distance_threshold == 0) {
        throw std::invalid_argument(
            "last_seen_profile: distance_threshold must be >= 1");
      }
      own_cells =
          ball(mobility.grid(), last_seen, silence.distance_threshold - 1);
      allowed = own_cells;
      break;
  }
  if (allowed.empty() || silence.report_loss != 0.0) {
    std::vector<double> dist(c, 0.0);
    dist[last_seen] = 1.0;
    dist = mobility.evolve(std::move(dist), steps_since, allowed,
                           silence.report_loss);
    return restrict_to_area(dist, area_cells);
  }
  // Lossless reports: a silent device never left `allowed`, so only its
  // cells are walked, and the row is read off their local indices.
  const auto start = std::find(allowed.begin(), allowed.end(), last_seen);
  std::vector<double> mass(allowed.size(), 0.0);
  mass[static_cast<std::size_t>(start - allowed.begin())] = 1.0;
  mass = mobility.evolve_within(std::move(mass), steps_since, allowed);
  if (allowed.data() == area_cells.data()) {
    return prob::normalized(std::move(mass));  // the area is the set
  }
  if (area_cells.empty()) {
    throw std::invalid_argument("restrict_to_area: empty area");
  }
  std::vector<double> weights(area_cells.size(), 0.0);
  for (std::size_t i = 0; i < area_cells.size(); ++i) {
    if (area_cells[i] >= c) {
      throw std::invalid_argument("restrict_to_area: cell out of range");
    }
    const auto at = std::find(allowed.begin(), allowed.end(), area_cells[i]);
    if (at != allowed.end()) {
      weights[i] = mass[static_cast<std::size_t>(at - allowed.begin())];
    }
  }
  return prob::normalized(std::move(weights));
}

}  // namespace confcall::cellular
