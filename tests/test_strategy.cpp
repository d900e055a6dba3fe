// Tests for core::Strategy.
#include "core/strategy.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

namespace confcall::core {
namespace {

TEST(Strategy, FromGroupsBasic) {
  const Strategy s = Strategy::from_groups({{2, 0}, {1}, {3, 4}}, 5);
  EXPECT_EQ(s.num_rounds(), 3u);
  EXPECT_EQ(s.num_cells(), 5u);
  EXPECT_EQ(s.group(0), (std::vector<CellId>{2, 0}));
  EXPECT_EQ(s.group_sizes(), (std::vector<std::size_t>{2, 1, 2}));
}

TEST(Strategy, RoundOf) {
  const Strategy s = Strategy::from_groups({{2, 0}, {1}, {3, 4}}, 5);
  EXPECT_EQ(s.round_of(0), 0u);
  EXPECT_EQ(s.round_of(1), 1u);
  EXPECT_EQ(s.round_of(4), 2u);
}

TEST(Strategy, CellsPagedThrough) {
  const Strategy s = Strategy::from_groups({{2, 0}, {1}, {3, 4}}, 5);
  EXPECT_EQ(s.cells_paged_through(0), 2u);
  EXPECT_EQ(s.cells_paged_through(1), 3u);
  EXPECT_EQ(s.cells_paged_through(2), 5u);
  EXPECT_THROW((void)s.cells_paged_through(3), std::invalid_argument);
}

TEST(Strategy, RejectsNonPartitions) {
  // Missing a cell.
  EXPECT_THROW(Strategy::from_groups({{0}, {1}}, 3), std::invalid_argument);
  // Duplicate cell.
  EXPECT_THROW(Strategy::from_groups({{0, 1}, {1, 2}}, 3),
               std::invalid_argument);
  // Out of range cell.
  EXPECT_THROW(Strategy::from_groups({{0, 3}}, 3), std::invalid_argument);
  // Empty group.
  EXPECT_THROW(Strategy::from_groups({{0, 1, 2}, {}}, 3),
               std::invalid_argument);
  // No groups at all.
  EXPECT_THROW(Strategy::from_groups({}, 3), std::invalid_argument);
}

TEST(Strategy, FromOrderAndSizes) {
  const CellId order[] = {3, 1, 0, 2};
  const std::size_t sizes[] = {1, 3};
  const Strategy s = Strategy::from_order_and_sizes(order, sizes);
  EXPECT_EQ(s.num_rounds(), 2u);
  EXPECT_EQ(s.group(0), (std::vector<CellId>{3}));
  EXPECT_EQ(s.group(1), (std::vector<CellId>{1, 0, 2}));
}

TEST(Strategy, FromOrderAndSizesValidates) {
  const CellId order[] = {0, 1, 2};
  const std::size_t wrong_total[] = {1, 1};
  EXPECT_THROW(Strategy::from_order_and_sizes(order, wrong_total),
               std::invalid_argument);
  const std::size_t zero_group[] = {3, 0};
  EXPECT_THROW(Strategy::from_order_and_sizes(order, zero_group),
               std::invalid_argument);
  const CellId not_permutation[] = {0, 1, 1};
  const std::size_t sizes[] = {1, 2};
  EXPECT_THROW(Strategy::from_order_and_sizes(not_permutation, sizes),
               std::invalid_argument);
}

TEST(Strategy, BlanketPagesEverythingInOneRound) {
  const Strategy s = Strategy::blanket(4);
  EXPECT_EQ(s.num_rounds(), 1u);
  EXPECT_EQ(s.group(0), (std::vector<CellId>{0, 1, 2, 3}));
}

TEST(Strategy, ToStringFormat) {
  const Strategy s = Strategy::from_groups({{1, 0}, {2}}, 3);
  EXPECT_EQ(s.to_string(), "{1,0}|{2}");
}

TEST(Strategy, ToStringMatchesTheStreamRendering) {
  // The ostream rendering to_string used before it appended to a
  // std::string.
  const auto reference = [](const Strategy& strategy) {
    std::ostringstream os;
    for (std::size_t r = 0; r < strategy.groups().size(); ++r) {
      if (r != 0) os << '|';
      os << '{';
      for (std::size_t k = 0; k < strategy.groups()[r].size(); ++k) {
        if (k != 0) os << ',';
        os << strategy.groups()[r][k];
      }
      os << '}';
    }
    return os.str();
  };
  std::vector<CellId> order(1200);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<CellId>(order.size() - 1 - i);
  }
  const std::vector<std::size_t> sizes = {1, 99, 1000, 100};
  const std::vector<Strategy> strategies = {
      Strategy::blanket(1),
      Strategy::blanket(12),
      Strategy::from_groups({{1, 0}, {2}}, 3),
      Strategy::from_order_and_sizes(order, sizes),
  };
  for (const Strategy& strategy : strategies) {
    EXPECT_EQ(strategy.to_string(), reference(strategy));
  }
}

TEST(Strategy, EqualityIsStructural) {
  const Strategy a = Strategy::from_groups({{0}, {1}}, 2);
  const Strategy b = Strategy::from_groups({{0}, {1}}, 2);
  const Strategy c = Strategy::from_groups({{1}, {0}}, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace confcall::core
