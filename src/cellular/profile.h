// Location-probability profile estimators.
//
// The paging algorithms need, per device, a probability vector over the
// cells of a location area. The paper points to [15,16] for how real
// systems obtain such vectors; this module implements the three standard
// estimator families those lines of work describe:
//
//  * empirical   — visit frequencies from an observed trace, with Laplace
//                  smoothing so unvisited cells keep non-zero mass (the
//                  paper's model assumes positive probabilities);
//  * stationary  — the mobility chain's long-run distribution (what a
//                  system knowing only the mobility model would use);
//  * last-seen   — the law of the device's cell given the cell where it
//                  last contacted the network t steps ago and that it has
//                  been silent since (SilenceModel).
//
// Each estimator returns the distribution conditioned on (restricted and
// renormalized to) the cells of one location area.
#pragma once

#include <cstddef>
#include <span>

#include "cellular/location_db.h"
#include "cellular/mobility.h"
#include "cellular/topology.h"
#include "prob/distribution.h"

namespace confcall::cellular {

/// Restricts a full-grid distribution to `area_cells` and renormalizes.
/// Throws std::invalid_argument when the restricted mass is zero.
prob::ProbabilityVector restrict_to_area(std::span<const double> full,
                                         std::span<const CellId> area_cells);

/// Laplace-smoothed visit frequencies of `trace` over `area_cells`:
/// (count_j + alpha) / (total + alpha * |area|). alpha > 0 guarantees the
/// positive-probability assumption of the paper's model. Visits outside
/// the area are ignored. Throws std::invalid_argument when alpha <= 0 and
/// the trace never visits the area.
prob::ProbabilityVector empirical_profile(std::span<const CellId> trace,
                                          std::span<const CellId> area_cells,
                                          double laplace_alpha = 1.0);

/// The mobility chain's stationary distribution, restricted to the area.
prob::ProbabilityVector stationary_profile(const MarkovMobility& mobility,
                                           std::span<const CellId> area_cells);

/// Laplace-smoothed profile from a full-grid visit-count vector (what the
/// simulator maintains incrementally): (counts[j] + alpha) normalized over
/// the area cells.
prob::ProbabilityVector profile_from_counts(std::span<const double> counts,
                                            std::span<const CellId> area_cells,
                                            double laplace_alpha = 1.0);

/// What a device's silence since its last report says about where it is.
/// Under `policy`, each step the device spends outside the allowed set
/// sends a report, and each report is lost with probability
/// `report_loss` (FaultConfig::report_loss_rate). The allowed set of a
/// device last seen at cell c:
///
///  * kOnAreaCrossing    — c's location area;
///  * kOnCellCrossing    — c itself;
///  * kDistanceThreshold — the cells within distance_threshold - 1 hops
///                         of c;
///  * kNever, kEveryTSteps — the whole grid (the timer fires wherever the
///                         device is, so its silence says nothing).
///
/// The default, kNever, is the unconditioned chain.
struct SilenceModel {
  ReportPolicy policy = ReportPolicy::kNever;
  std::size_t distance_threshold = 1;  ///< D, under kDistanceThreshold
  double report_loss = 0.0;            ///< q, in [0, 1]

  bool operator==(const SilenceModel&) const = default;
};

/// The law of a device's cell `steps_since` steps after it reported from
/// `last_seen`, given that no report reached the network since, restricted
/// to the area: the chain from `last_seen`, each step followed by
/// multiplying the mass outside the allowed set by report_loss (with
/// report_loss 0, the chain killed on leaving the set). Under
/// kOnAreaCrossing, `area_cells` must be last_seen's area. steps_since = 0
/// returns a point mass (requires last_seen to be inside the area).
/// Throws std::invalid_argument on a cell out of range, a last_seen outside
/// the area under kOnAreaCrossing, D = 0 under kDistanceThreshold, or a
/// law with no mass in the area.
prob::ProbabilityVector last_seen_profile(const MarkovMobility& mobility,
                                          CellId last_seen,
                                          std::size_t steps_since,
                                          std::span<const CellId> area_cells,
                                          const SilenceModel& silence = {});

}  // namespace confcall::cellular
