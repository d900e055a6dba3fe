#include "support/fleet.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace confcall::support {

SignatureTable::SignatureTable(std::size_t capacity, std::size_t row_bytes)
    : row_bytes_(row_bytes),
      sets_(std::max<std::size_t>(1, (capacity + kWays - 1) / kWays)) {
  if (row_bytes == 0) {
    throw std::invalid_argument("SignatureTable: row_bytes must be >= 1");
  }
  // Left uninitialized: a row's bytes are read only after an insert wrote
  // them, and untouched pages of the slab cost no resident memory.
  slab_ = std::make_unique_for_overwrite<std::byte[]>(slab_bytes());
}

bool SignatureTable::lookup(std::uint64_t signature,
                            std::span<std::byte> out) {
  if (out.size() != row_bytes_) {
    throw std::invalid_argument("SignatureTable::lookup: row size");
  }
  const std::size_t index = set_of(signature);
  Stripe& stripe = stripe_of(index);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  Set& set = sets_[index];
  for (std::size_t way = 0; way < set.size; ++way) {
    if (set.signatures[way] != signature) continue;
    set.referenced |= static_cast<std::uint8_t>(1u << way);
    std::memcpy(out.data(), row(index, way), row_bytes_);
    return true;
  }
  return false;
}

bool SignatureTable::insert(std::uint64_t signature,
                            std::span<const std::byte> bytes) {
  if (bytes.size() != row_bytes_) {
    throw std::invalid_argument("SignatureTable::insert: row size");
  }
  const std::size_t index = set_of(signature);
  Stripe& stripe = stripe_of(index);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  Set& set = sets_[index];
  for (std::size_t way = 0; way < set.size; ++way) {
    if (set.signatures[way] == signature) return false;
  }
  std::size_t victim = set.size;
  if (victim < kWays) {
    ++set.size;
    ++stripe.entries;
  } else {
    while ((set.referenced >> set.hand) & 1u) {
      set.referenced &= static_cast<std::uint8_t>(~(1u << set.hand));
      set.hand = static_cast<std::uint8_t>((set.hand + 1) % kWays);
    }
    victim = set.hand;
    set.hand = static_cast<std::uint8_t>((set.hand + 1) % kWays);
    ++stripe.evictions;
  }
  set.signatures[victim] = signature;
  set.referenced &= static_cast<std::uint8_t>(~(1u << victim));
  std::memcpy(row(index, victim), bytes.data(), row_bytes_);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

SignatureTable::Stats SignatureTable::stats() const {
  Stats total;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total.evictions += stripe.evictions;
    total.entries += stripe.entries;
  }
  return total;
}

}  // namespace confcall::support
