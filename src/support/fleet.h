// Fleet substrate: the process-wide primitives under multi-shard serving
// (cellular/service_fleet.h builds the domain layer on top).
//
// Two pieces, each independently testable:
//
//   * SignatureTable — a shared content-signature -> fixed-width byte-row
//     table with a fixed capacity. Every row lives in one slab allocated
//     at construction, so no insert allocates. A signature maps to one
//     kWays-row set: a lookup scans at most kWays signatures, and an
//     insert into a full set evicts by CLOCK inside that set. Sets are
//     guarded by 16 striped mutexes. The serving use is signature ->
//     packed plan (cellular::PlanRow): identically-distributed location
//     areas sign identically (LocationService::plan_signature hashes the
//     planning INPUTS, never the area index), so whichever area plans a
//     signature first publishes the row and every later lookup, from any
//     area on any shard, copies it instead of running a Fig. 1 DP.
//     Lookups copy the row out under the stripe lock — no reference ever
//     escapes, so readers can't dangle or see a torn row, and TSan sees
//     plain lock-protected accesses. Insert-once keeps the table
//     deterministic under racing inserts: two shards planning the same
//     signature computed the same plan from the same inputs (the planner
//     is deterministic), so whichever insert lands first, the table holds
//     the row both computed. Which rows stay resident, and so whether a
//     lookup hits, depends on the interleaving; what a hit returns never
//     does.
//   * pin_current_thread_to_core — best-effort CPU pinning. Pinning is
//     Linux-only: placement is a performance hint, never a correctness
//     requirement.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace confcall::support {

/// Bounded signature -> byte-row table, read-mostly, striped-mutex
/// guarded. See the header comment for the serving contract. Rows are
/// copied in and out, so no caller ever holds a reference into the slab.
class SignatureTable {
 public:
  /// Rows per set: the most signatures one lookup scans.
  static constexpr std::size_t kWays = 8;

  /// Holds at most capacity() rows of `row_bytes` bytes: `capacity`
  /// rounded up to whole sets (at least one). The slab is allocated here
  /// and each set's ways are fixed, so the bound is exact however inserts
  /// race. Throws std::invalid_argument when `row_bytes` is 0.
  SignatureTable(std::size_t capacity, std::size_t row_bytes);

  SignatureTable(const SignatureTable&) = delete;
  SignatureTable& operator=(const SignatureTable&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept {
    return sets_.size() * kWays;
  }
  [[nodiscard]] std::size_t row_bytes() const noexcept { return row_bytes_; }
  /// The slab's size: capacity() x row_bytes().
  [[nodiscard]] std::size_t slab_bytes() const noexcept {
    return capacity() * row_bytes_;
  }

  /// Copies the row for `signature` into `out` and marks it referenced;
  /// returns false (leaving `out` untouched) when absent. The caller
  /// counts hits and misses (LocationService::plan_cache_stats). Throws
  /// std::invalid_argument unless `out` is row_bytes() long.
  bool lookup(std::uint64_t signature, std::span<std::byte> out);

  /// Publishes `row` under `signature` unless the signature is already
  /// resident (first writer wins — see the determinism note above). A
  /// full set evicts by CLOCK: its hand clears reference bits until it
  /// reaches a way nobody looked up since the last sweep. Returns true
  /// when the insert landed. Throws std::invalid_argument unless `row` is
  /// row_bytes() long.
  bool insert(std::uint64_t signature, std::span<const std::byte> row);

  struct Stats {
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };

  /// One consistent-enough cut of the counters (each stripe is read
  /// under its own mutex; cross-stripe skew is bounded by in-flight ops).
  [[nodiscard]] Stats stats() const;

  /// Inserts that landed since construction. Only a landed insert moves
  /// stats(), so a reader that saw this unchanged can skip the sweep of
  /// every stripe that stats() takes.
  [[nodiscard]] std::uint64_t inserts() const noexcept {
    return inserts_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kNumStripes = 16;

  static_assert(kWays <= 8, "Set keeps one reference bit per way in a byte");

  struct Set {
    std::uint64_t signatures[kWays] = {};
    std::uint8_t size = 0;        ///< ways [0, size) hold rows
    std::uint8_t referenced = 0;  ///< bit w: way w looked up since swept
    std::uint8_t hand = 0;        ///< CLOCK hand, once the set is full
  };

  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };

  std::size_t set_of(std::uint64_t signature) const noexcept {
    // The signature is already well-mixed (splitmix64 finalizer).
    return static_cast<std::size_t>(signature % sets_.size());
  }
  Stripe& stripe_of(std::size_t set) noexcept {
    return stripes_[set % kNumStripes];
  }
  std::byte* row(std::size_t set, std::size_t way) noexcept {
    return slab_.get() + (set * kWays + way) * row_bytes_;
  }

  const std::size_t row_bytes_;
  /// Set s and its kWays rows of the slab (ways in order, row_bytes_
  /// each) are guarded by stripe_of(s)'s mutex.
  std::vector<Set> sets_;
  std::unique_ptr<std::byte[]> slab_;
  Stripe stripes_[kNumStripes];
  std::atomic<std::uint64_t> inserts_{0};
};

/// Best-effort CPU pinning of the calling thread (Linux sched_setaffinity;
/// a no-op elsewhere). Returns true when the affinity call succeeded.
/// Placement is a cache-locality hint: every caller must behave
/// identically whether or not the pin lands.
inline bool pin_current_thread_to_core(unsigned core) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

}  // namespace confcall::support
