// Fleet substrate: the process-wide primitives under multi-shard serving
// (cellular/service_fleet.h builds the domain layer on top).
//
// Three pieces, each independently testable:
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
//   * ShardQueueSet — N cache-line-aligned bounded task queues with
//     FIFO local pop and steal-from-the-back when a victim's backlog
//     exceeds a configurable limit. This is the NOVA core-map/steal-limit
//     idiom (see DESIGN.md §14): owners drain their own queue in order;
//     a thief only intrudes on a queue that is measurably behind, and
//     takes from the back — the work its owner would reach last.
//   * ShardCoreMap / pin_current_thread_to_core — round-robin shard ->
//     core placement. Pinning is Linux-only and best-effort: placement
//     is a performance hint, never a correctness requirement.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
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

/// N bounded FIFO task queues, one per shard, each on its own cache
/// line. Tasks are opaque std::size_t ids. Owners pop from the front;
/// thieves take from the BACK of a victim queue, and only when the
/// victim's depth exceeds the steal limit — a shard that is keeping up
/// is never raided (the NOVA stealing-limit discipline).
class ShardQueueSet {
 public:
  /// `capacity` bounds each queue's depth (push returns false on a full
  /// queue; the caller overflow-routes). `steal_limit` is the depth a
  /// queue must EXCEED before steal() may take from it.
  ShardQueueSet(std::size_t num_shards, std::size_t capacity,
                std::size_t steal_limit)
      : shards_(num_shards), capacity_(capacity), steal_limit_(steal_limit) {}

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t steal_limit() const noexcept {
    return steal_limit_;
  }

  /// Enqueues `task` on `shard`'s queue; false when the queue is full.
  bool push(std::size_t shard, std::size_t task) {
    Shard& s = shards_[shard];
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.queue.size() >= capacity_) return false;
    s.queue.push_back(task);
    if (s.queue.size() > s.high_water) s.high_water = s.queue.size();
    return true;
  }

  /// FIFO pop of `shard`'s own queue.
  [[nodiscard]] std::optional<std::size_t> pop_local(std::size_t shard) {
    Shard& s = shards_[shard];
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.queue.empty()) return std::nullopt;
    const std::size_t task = s.queue.front();
    s.queue.pop_front();
    return task;
  }

  struct Steal {
    std::size_t task;
    std::size_t victim;  ///< shard the task was taken from
  };

  /// Scans the other shards from `thief + 1` round-robin and takes one
  /// task from the BACK of the first queue whose depth exceeds the steal
  /// limit. std::nullopt when nobody is far enough behind.
  [[nodiscard]] std::optional<Steal> steal(std::size_t thief) {
    const std::size_t n = shards_.size();
    for (std::size_t hop = 1; hop < n; ++hop) {
      const std::size_t victim = (thief + hop) % n;
      Shard& s = shards_[victim];
      std::lock_guard<std::mutex> lock(s.mutex);
      if (s.queue.size() <= steal_limit_) continue;
      const std::size_t task = s.queue.back();
      s.queue.pop_back();
      return Steal{task, victim};
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t depth(std::size_t shard) const {
    const Shard& s = shards_[shard];
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.queue.size();
  }

  /// Deepest this shard's queue has ever been (dispatch-time backlog —
  /// what the confcall_fleet_queue_depth gauge exports).
  [[nodiscard]] std::size_t high_water(std::size_t shard) const {
    const Shard& s = shards_[shard];
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.high_water;
  }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::deque<std::size_t> queue;
    std::size_t high_water = 0;
  };

  std::vector<Shard> shards_;
  const std::size_t capacity_;
  const std::size_t steal_limit_;
};

/// Round-robin shard -> core placement over the machine's hardware
/// threads: shard s runs best on core s % num_cores. Purely advisory.
struct ShardCoreMap {
  std::vector<unsigned> core_of_shard;

  [[nodiscard]] static ShardCoreMap round_robin(std::size_t num_shards) {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    ShardCoreMap map;
    map.core_of_shard.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      map.core_of_shard.push_back(static_cast<unsigned>(s) % cores);
    }
    return map;
  }
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
