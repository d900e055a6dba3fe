#include "cellular/location_db.h"

#include <stdexcept>

namespace confcall::cellular {

LocationDatabase::LocationDatabase(std::size_t num_users,
                                   const LocationAreas& areas,
                                   const std::vector<CellId>& initial_cells)
    : areas_(&areas),
      reported_cell_(initial_cells),
      steps_since_report_(num_users, 0) {
  if (initial_cells.size() != num_users) {
    throw std::invalid_argument(
        "LocationDatabase: one initial cell per user");
  }
  reported_area_.reserve(num_users);
  for (const CellId cell : initial_cells) {
    reported_area_.push_back(areas_->area_of(cell));
  }
}

void LocationDatabase::tick() {
  for (auto& steps : steps_since_report_) ++steps;
}

void LocationDatabase::record_report(UserId user, CellId cell) {
  reported_cell_.at(user) = cell;
  reported_area_.at(user) = areas_->area_of(cell);
  steps_since_report_.at(user) = 0;
}

void LocationDatabase::restore_record(UserId user, CellId cell,
                                      std::size_t steps) {
  reported_cell_.at(user) = cell;
  reported_area_.at(user) = areas_->area_of(cell);
  steps_since_report_.at(user) = steps;
}

}  // namespace confcall::cellular
