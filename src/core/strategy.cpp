#include "core/strategy.h"

#include <limits>
#include <numeric>
#include <stdexcept>

#include "support/text.h"

namespace confcall::core {

namespace {
constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();
}  // namespace

Strategy Strategy::from_groups(std::vector<std::vector<CellId>> groups,
                               std::size_t num_cells) {
  if (groups.empty()) {
    throw std::invalid_argument("Strategy: no groups");
  }
  if (num_cells == 0) {
    throw std::invalid_argument("Strategy: zero cells");
  }
  std::vector<std::size_t> round_of(num_cells, kUnassigned);
  for (std::size_t r = 0; r < groups.size(); ++r) {
    if (groups[r].empty()) {
      throw std::invalid_argument("Strategy: empty group in round " +
                                  std::to_string(r));
    }
    for (const CellId cell : groups[r]) {
      if (cell >= num_cells) {
        throw std::invalid_argument("Strategy: cell out of range");
      }
      if (round_of[cell] != kUnassigned) {
        throw std::invalid_argument("Strategy: cell " + std::to_string(cell) +
                                    " paged twice");
      }
      round_of[cell] = r;
    }
  }
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    if (round_of[cell] == kUnassigned) {
      throw std::invalid_argument("Strategy: cell " + std::to_string(cell) +
                                  " never paged");
    }
  }
  return Strategy(std::move(groups), num_cells, std::move(round_of));
}

Strategy Strategy::from_order_and_sizes(std::span<const CellId> order,
                                        std::span<const std::size_t> sizes) {
  const std::size_t total =
      std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  if (total != order.size()) {
    throw std::invalid_argument(
        "Strategy: group sizes do not sum to the order length");
  }
  std::vector<std::vector<CellId>> groups;
  groups.reserve(sizes.size());
  std::size_t pos = 0;
  for (const std::size_t size : sizes) {
    if (size == 0) throw std::invalid_argument("Strategy: zero group size");
    groups.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(pos),
                        order.begin() + static_cast<std::ptrdiff_t>(pos + size));
    pos += size;
  }
  return from_groups(std::move(groups), order.size());
}

Strategy Strategy::blanket(std::size_t num_cells) {
  std::vector<CellId> all(num_cells);
  std::iota(all.begin(), all.end(), CellId{0});
  return from_groups({std::move(all)}, num_cells);
}

std::vector<std::size_t> Strategy::group_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(groups_.size());
  for (const auto& group : groups_) sizes.push_back(group.size());
  return sizes;
}

std::size_t Strategy::cells_paged_through(std::size_t round) const {
  if (round >= groups_.size()) {
    throw std::invalid_argument("Strategy: round out of range");
  }
  std::size_t total = 0;
  for (std::size_t r = 0; r <= round; ++r) total += groups_[r].size();
  return total;
}

std::string Strategy::to_string() const {
  std::string out;
  for (std::size_t r = 0; r < groups_.size(); ++r) {
    out += r != 0 ? "|{" : "{";
    for (std::size_t k = 0; k < groups_[r].size(); ++k) {
      if (k != 0) out += ',';
      support::append_uint(out, groups_[r][k]);
    }
    out += '}';
  }
  return out;
}

}  // namespace confcall::core
