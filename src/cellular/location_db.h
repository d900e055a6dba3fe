// HLR-style location database and reporting policies.
//
// GSM MAP / IS-41 (paper Section 1.1): every cell broadcasts its location
// area id; a device reports when it crosses into a new LA, and the network
// persists the most recently reported LA per device. This module models
// that database and names the reporting policies, among them the two
// extremes the paper uses to frame the reporting/paging tradeoff — never
// report (maximal paging) and report every cell crossing (maximal
// reporting, zero search). LocationService::observe_move and
// observe_step apply them.
#pragma once

#include <cstdint>
#include <vector>

#include "cellular/topology.h"

namespace confcall::cellular {

using UserId = std::uint32_t;

/// When a device sends a location report over the wireless uplink. The
/// first three are the boundary-based policies of GSM MAP / IS-41 and the
/// two extremes the paper uses to frame the tradeoff; the last two are
/// the classic update-strategy alternatives from the location-management
/// literature the paper cites ([4]: "to update or not to update?").
enum class ReportPolicy {
  kNever,           ///< devices stay silent; the whole system must be paged
  kOnAreaCrossing,  ///< GSM MAP / IS-41: report on LA change
  kOnCellCrossing,  ///< report every cell change; paging becomes trivial
  kEveryTSteps,     ///< timer-based: report every T steps regardless
  kDistanceThreshold,  ///< distance-based: report after moving >= D cells
};

/// The network-side record of the last report per device.
class LocationDatabase {
 public:
  /// `num_users` devices; everyone initially registered at their starting
  /// cell/area (as a real network would after power-on attach).
  LocationDatabase(std::size_t num_users, const LocationAreas& areas,
                   const std::vector<CellId>& initial_cells);

  /// Devices on record (fixed at construction).
  [[nodiscard]] std::size_t num_users() const noexcept {
    return reported_cell_.size();
  }

  /// Most recently reported location area.
  [[nodiscard]] std::size_t reported_area(UserId user) const {
    return reported_area_.at(user);
  }

  /// Most recently reported cell (only current under kOnCellCrossing).
  [[nodiscard]] CellId reported_cell(UserId user) const {
    return reported_cell_.at(user);
  }

  /// Steps since the last report of this device (for last-seen profiles).
  [[nodiscard]] std::size_t steps_since_report(UserId user) const {
    return steps_since_report_.at(user);
  }

  /// Advances every device's "steps since report" clock by one.
  void tick();
  /// Advances one device's clock by one.
  void tick(UserId user) { ++steps_since_report_.at(user); }

  /// Registers a report (updates the record, resets the clock). Exposed
  /// for call handling: after a device is found by paging it implicitly
  /// reports its location (it answered a base station).
  void record_report(UserId user, CellId cell);

  /// Overwrites one device's record wholesale — checkpoint restore. The
  /// reported area is re-derived from the cell (the class invariant).
  /// Throws std::out_of_range on an unknown user or cell.
  void restore_record(UserId user, CellId cell, std::size_t steps);

 private:
  const LocationAreas* areas_;
  std::vector<std::size_t> reported_area_;
  std::vector<CellId> reported_cell_;
  std::vector<std::size_t> steps_since_report_;
};

}  // namespace confcall::cellular
