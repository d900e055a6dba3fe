// Fleet substrate: the process-wide primitives under multi-shard serving
// (cellular/service_fleet.h builds the domain layer on top).
//
// Two pieces, each independently testable:
//
//   * SignatureTable<V> — a shared content-signature -> value table
//     with a fixed capacity and CLOCK eviction behind a sharded mutex.
//     The serving use is signature -> planned strategy and its expected
//     paging (cellular::SharedPlan): identically-distributed location
//     areas sign identically (LocationService::plan_signature hashes the
//     planning INPUTS, never the area index), so whichever area plans a
//     signature first publishes the strategy and every later lookup, from
//     any area on any shard, copies it instead of running a Fig. 1 DP.
//     Lookups copy the value out under the shard lock — no reference ever
//     escapes, so readers can't dangle and TSan sees plain lock-protected
//     accesses. Insert-once keeps the table deterministic under racing
//     inserts: two shards planning the same signature computed the same
//     strategy from the same inputs (the planner is deterministic), so
//     whichever insert lands first, the table holds the value both
//     computed. Which entries stay resident, and so whether a lookup
//     hits, depends on the interleaving; what a hit returns never does.
//   * pin_current_thread_to_core — best-effort CPU pinning. Pinning is
//     Linux-only: placement is a performance hint, never a correctness
//     requirement.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace confcall::support {

/// Bounded signature -> value table, read-mostly, sharded-mutex
/// guarded. See the header comment for the serving contract. V must be
/// default-constructible and copy-assignable; lookups copy the value out
/// so no caller ever holds a reference into the table.
template <typename V>
class SignatureTable {
 public:
  /// Holds at most capacity() entries: `capacity` rounded up to whole
  /// slot arrays, one per lock shard (at least one slot each). Each
  /// shard's slots are fixed at construction, so the bound is exact
  /// however inserts race.
  explicit SignatureTable(std::size_t capacity)
      : slots_per_shard_(std::max<std::size_t>(
            1, (capacity + kNumShards - 1) / kNumShards)) {
    for (Shard& shard : shards_) {
      shard.slots.resize(slots_per_shard_);
      shard.index.reserve(slots_per_shard_);
    }
  }

  SignatureTable(const SignatureTable&) = delete;
  SignatureTable& operator=(const SignatureTable&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_per_shard_ * kNumShards;
  }

  /// Copy-assigns the value for `signature` into `out` and marks the
  /// entry referenced; returns false (leaving `out` untouched) when
  /// absent. Counts a hit or a miss either way.
  bool lookup(std::uint64_t signature, V& out) {
    Shard& shard = shards_[shard_of(signature)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(signature);
    if (it == shard.index.end()) {
      ++shard.misses;
      return false;
    }
    ++shard.hits;
    Slot& slot = shard.slots[it->second];
    slot.referenced = true;
    out = slot.value;
    return true;
  }

  /// Publishes `value` under `signature` unless the signature is already
  /// resident (first writer wins — see the determinism note above). A
  /// full lock shard evicts by CLOCK: its hand clears reference bits
  /// until it reaches an entry nobody looked up since the last sweep.
  /// Returns true when the insert landed.
  bool insert(std::uint64_t signature, const V& value) {
    Shard& shard = shards_[shard_of(signature)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.index.contains(signature)) return false;
    std::size_t victim = shard.index.size();
    if (victim == slots_per_shard_) {
      while (shard.slots[shard.hand].referenced) {
        shard.slots[shard.hand].referenced = false;
        shard.hand = (shard.hand + 1) % slots_per_shard_;
      }
      victim = shard.hand;
      shard.hand = (shard.hand + 1) % slots_per_shard_;
      shard.index.erase(shard.slots[victim].signature);
      ++shard.evictions;
    }
    Slot& slot = shard.slots[victim];
    slot.signature = signature;
    slot.referenced = false;
    slot.value = value;
    shard.index.emplace(signature, victim);
    return true;
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };

  /// One consistent-enough cut of the counters (each lock shard is read
  /// under its own mutex; cross-shard skew is bounded by in-flight ops).
  [[nodiscard]] Stats stats() const {
    Stats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total.hits += shard.hits;
      total.misses += shard.misses;
      total.evictions += shard.evictions;
      total.entries += shard.index.size();
    }
    return total;
  }

 private:
  static constexpr std::size_t kNumShards = 16;

  static std::size_t shard_of(std::uint64_t signature) noexcept {
    // The signature is already well-mixed (splitmix64 finalizer); the
    // low bits pick the lock shard.
    return static_cast<std::size_t>(signature) & (kNumShards - 1);
  }

  struct Slot {
    std::uint64_t signature = 0;
    bool referenced = false;
    V value{};
  };

  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::vector<Slot> slots;
    std::unordered_map<std::uint64_t, std::size_t> index;  ///< -> slot
    std::size_t hand = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  const std::size_t slots_per_shard_;
  Shard shards_[kNumShards];
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
