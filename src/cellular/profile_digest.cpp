#include "cellular/profile_digest.h"

#include <stdexcept>

namespace confcall::cellular {

std::uint64_t profile_digest(std::span<const double> row) noexcept {
  SignatureHasher hasher;
  for (const double p : row) hasher.add(p);
  return hasher.value();
}

LastSeenDigests::LastSeenDigests(const GridTopology& grid,
                                 const LocationAreas& areas,
                                 const MarkovMobility& mobility,
                                 std::size_t horizon,
                                 const SilenceModel& silence)
    : grid_(&grid),
      areas_(&areas),
      mobility_(&mobility),
      horizon_(horizon),
      silence_(silence) {
  const std::size_t cells = grid.num_cells();
  if (horizon >= kMaxSlots || (horizon + 1) > kMaxSlots / cells) {
    throw std::invalid_argument(
        "LastSeenDigests: (horizon + 1) * num_cells exceeds kMaxSlots");
  }
  num_slots_ = (horizon + 1) * cells;
  slots_ = std::make_unique<std::atomic<std::uint64_t>[]>(num_slots_);
}

std::atomic<std::uint64_t>& LastSeenDigests::slot(CellId cell,
                                                  std::size_t steps) const {
  const std::size_t cells = grid_->num_cells();
  if (cell >= cells || steps > horizon_) {
    throw std::invalid_argument("LastSeenDigests: key out of range");
  }
  return slots_[steps * cells + cell];
}

std::uint64_t LastSeenDigests::find(CellId cell, std::size_t steps) const {
  return slot(cell, steps).load(std::memory_order_relaxed);
}

void LastSeenDigests::store(CellId cell, std::size_t steps,
                            std::uint64_t digest) {
  slot(cell, steps).store(digest, std::memory_order_relaxed);
}

bool LastSeenDigests::built_for(const GridTopology& grid,
                                const LocationAreas& areas,
                                const MarkovMobility& mobility,
                                std::size_t horizon,
                                const SilenceModel& silence) const noexcept {
  return grid_ == &grid && areas_ == &areas && mobility_ == &mobility &&
         horizon_ == horizon && silence_ == silence;
}

std::size_t LastSeenDigests::filled() const noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < num_slots_; ++i) {
    count += slots_[i].load(std::memory_order_relaxed) != 0 ? 1 : 0;
  }
  return count;
}

}  // namespace confcall::cellular
