// Profile digests: 64-bit fingerprints of planning rows, and a memo of
// the last-seen ones.
//
// A plan-cache signature (LocationService) must change whenever any
// callee's location profile changes, so it is built from one digest per
// callee profile row. Hashing the row means having the row, and under
// ProfileKind::kLastSeen a row is a t-step evolution of the mobility chain
// given the callee's silence (last_seen_profile). But that row is a pure
// function of the callee's reported cell and its step count since the
// report (capped at the horizon), given the grid, the location-area
// layout, the mobility model and the silence model (report policy, its
// distance threshold, report-loss rate). LastSeenDigests remembers the
// digest per (cell, steps) key, so a plan-cache hit signs its callees
// with a few array reads and never evolves anything. Rows are built only
// when a key is new (and a row built to sign it serves the planner too)
// or when the planner or the lazy EP fill reads them.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "cellular/mobility.h"
#include "cellular/profile.h"
#include "cellular/topology.h"

namespace confcall::cellular {

/// Splitmix64-style chained mix over 64-bit words, used to fingerprint
/// planning inputs (word-at-a-time — ~5 ALU ops per word). A collision
/// would silently serve a stale strategy; at 64 bits and a few thousand
/// live signatures per service that risk is negligible for a simulation
/// component (and the worst case is one suboptimally-ordered search, not
/// an incorrect one — every strategy still pages every cell).
class SignatureHasher {
 public:
  void add(std::uint64_t word) noexcept {
    std::uint64_t x = hash_ + word + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    hash_ = x ^ (x >> 31);
  }
  void add(double value) noexcept { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of one profile row: its doubles, bit for bit, through a fresh
/// SignatureHasher. Equal rows give equal digests.
[[nodiscard]] std::uint64_t profile_digest(std::span<const double> row) noexcept;

/// Memo of the profile_digest of every area-restricted last-seen
/// profile of one world (grid, location areas, mobility model, horizon,
/// silence model), keyed by (reported cell, steps since the report). The
/// slots form one flat, steps-major array of relaxed atomics — (horizon +
/// 1) * num_cells * 8 bytes — where 0 means "not yet computed". Callers fill
/// a key from the row they built; racing fillers store the same value
/// computed from the same inputs, so whichever store lands, the slot
/// holds it. Safe to share across threads and across every service of a
/// ServiceFleet.
class LastSeenDigests {
 public:
  /// Throws std::invalid_argument when the slot array would exceed
  /// kMaxSlots (a horizon far beyond any mixing time). The topology
  /// objects must outlive the memo.
  LastSeenDigests(const GridTopology& grid, const LocationAreas& areas,
                  const MarkovMobility& mobility, std::size_t horizon,
                  const SilenceModel& silence);

  LastSeenDigests(const LastSeenDigests&) = delete;
  LastSeenDigests& operator=(const LastSeenDigests&) = delete;

  static constexpr std::size_t kMaxSlots = std::size_t{1} << 24;

  /// The stored digest of the (cell, steps) profile, or 0 when none is
  /// stored yet. Throws std::invalid_argument when cell or steps is out
  /// of range (steps > horizon).
  [[nodiscard]] std::uint64_t find(CellId cell, std::size_t steps) const;

  /// Stores `digest`, which must be profile_digest(last_seen_profile(
  /// mobility, cell, steps, cells of cell's area, silence)). A digest of
  /// 0 stores nothing: that row is simply re-hashed on every use
  /// (probability 2^-64). Throws like find().
  void store(CellId cell, std::size_t steps, std::uint64_t digest);

  /// True when this memo describes exactly that world: the same grid,
  /// area layout and mobility objects, and the same horizon and silence
  /// model.
  [[nodiscard]] bool built_for(const GridTopology& grid,
                               const LocationAreas& areas,
                               const MarkovMobility& mobility,
                               std::size_t horizon,
                               const SilenceModel& silence) const noexcept;

  /// The silence model the stored digests' rows condition on.
  [[nodiscard]] const SilenceModel& silence() const noexcept {
    return silence_;
  }

  /// Keys stored so far (a scan; for inspection and tests).
  [[nodiscard]] std::size_t filled() const noexcept;

 private:
  [[nodiscard]] std::atomic<std::uint64_t>& slot(CellId cell,
                                                 std::size_t steps) const;

  const GridTopology* grid_;
  const LocationAreas* areas_;
  const MarkovMobility* mobility_;
  std::size_t horizon_;
  SilenceModel silence_;
  std::size_t num_slots_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
};

}  // namespace confcall::cellular
