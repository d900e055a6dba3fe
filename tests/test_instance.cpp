// Tests for core::Instance and core::RationalInstance.
#include "core/instance.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "prob/rational.h"

namespace confcall::core {
namespace {

using prob::Rational;

TEST(Instance, BasicAccessors) {
  const Instance instance(2, 3, {0.5, 0.25, 0.25, 0.1, 0.2, 0.7});
  EXPECT_EQ(instance.num_devices(), 2u);
  EXPECT_EQ(instance.num_cells(), 3u);
  EXPECT_DOUBLE_EQ(instance.prob(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(instance.prob(1, 2), 0.7);
  const auto row = instance.row(1);
  EXPECT_DOUBLE_EQ(row[0], 0.1);
  EXPECT_DOUBLE_EQ(row[2], 0.7);
}

TEST(Instance, CellWeights) {
  const Instance instance(2, 3, {0.5, 0.25, 0.25, 0.1, 0.2, 0.7});
  EXPECT_DOUBLE_EQ(instance.cell_weight(0), 0.6);
  EXPECT_DOUBLE_EQ(instance.cell_weight(2), 0.95);
  const auto weights = instance.cell_weights();
  EXPECT_DOUBLE_EQ(weights[1], 0.45);
}

TEST(Instance, RejectsBadDimensions) {
  EXPECT_THROW(Instance(0, 3, {}), std::invalid_argument);
  EXPECT_THROW(Instance(1, 0, {}), std::invalid_argument);
  EXPECT_THROW(Instance(1, 3, {0.5, 0.5}), std::invalid_argument);
}

TEST(Instance, RejectsBadProbabilities) {
  EXPECT_THROW(Instance(1, 2, {0.5, 0.6}), std::invalid_argument);   // sum>1
  EXPECT_THROW(Instance(1, 2, {0.5, 0.4}), std::invalid_argument);   // sum<1
  EXPECT_THROW(Instance(1, 2, {-0.1, 1.1}), std::invalid_argument);  // neg
}

TEST(Instance, AllowsZeroEntries) {
  // The paper's own Section 4.3 instance uses zeros.
  EXPECT_NO_THROW(Instance(1, 3, {0.0, 0.0, 1.0}));
}

TEST(Instance, FromRowsRejectsRagged) {
  EXPECT_THROW(Instance::from_rows({{0.5, 0.5}, {1.0}}),
               std::invalid_argument);
  EXPECT_THROW(Instance::from_rows({}), std::invalid_argument);
}

TEST(Instance, UniformFactory) {
  const Instance instance = Instance::uniform(3, 4);
  for (DeviceId i = 0; i < 3; ++i) {
    for (CellId j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(instance.prob(i, j), 0.25);
    }
  }
}

TEST(Instance, SelectDevicesReordersRows) {
  const Instance instance(2, 2, {0.3, 0.7, 0.9, 0.1});
  const DeviceId picks[] = {1, 0, 1};
  const Instance sub = instance.select_devices(picks);
  EXPECT_EQ(sub.num_devices(), 3u);
  EXPECT_DOUBLE_EQ(sub.prob(0, 0), 0.9);
  EXPECT_DOUBLE_EQ(sub.prob(1, 1), 0.7);
  EXPECT_DOUBLE_EQ(sub.prob(2, 0), 0.9);
}

TEST(Instance, SelectDevicesValidates) {
  const Instance instance = Instance::uniform(2, 2);
  const DeviceId bad[] = {5};
  EXPECT_THROW(instance.select_devices(bad), std::invalid_argument);
  EXPECT_THROW(instance.select_devices({}), std::invalid_argument);
}

TEST(Instance, RestrictCellsRenormalizes) {
  const Instance instance(1, 4, {0.1, 0.2, 0.3, 0.4});
  const CellId keep[] = {1, 3};
  const Instance sub = instance.restrict_cells(keep);
  EXPECT_EQ(sub.num_cells(), 2u);
  EXPECT_NEAR(sub.prob(0, 0), 0.2 / 0.6, 1e-12);
  EXPECT_NEAR(sub.prob(0, 1), 0.4 / 0.6, 1e-12);
}

TEST(Instance, RestrictCellsRejectsZeroMass) {
  const Instance instance(1, 3, {0.0, 0.0, 1.0});
  const CellId keep[] = {0, 1};
  EXPECT_THROW(instance.restrict_cells(keep), std::invalid_argument);
}

TEST(Instance, ToStringMentionsDimensions) {
  const Instance instance = Instance::uniform(2, 3);
  const std::string text = instance.to_string();
  EXPECT_NE(text.find("m=2"), std::string::npos);
  EXPECT_NE(text.find("c=3"), std::string::npos);
}

TEST(Instance, ToStringMatchesTheStreamRendering) {
  // The ostream rendering to_string used before it appended to a
  // std::string: default-format doubles (%g, precision 6).
  const auto reference = [](const Instance& instance) {
    std::ostringstream os;
    os << "Instance(m=" << instance.num_devices()
       << ", c=" << instance.num_cells() << ")\n";
    for (std::size_t i = 0; i < instance.num_devices(); ++i) {
      os << "  device " << i << ":";
      for (std::size_t j = 0; j < instance.num_cells(); ++j) {
        os << ' '
           << instance.prob(static_cast<DeviceId>(i), static_cast<CellId>(j));
      }
      os << '\n';
    }
    return os.str();
  };
  const double third = 1.0 / 3.0;
  const std::vector<Instance> instances = {
      Instance::uniform(1, 1),
      Instance::uniform(3, 7),
      Instance(2, 4,
               {third, third, third - 2.5e-12, 2.5e-12,  //
                0.0, 1.0, 0.0, 0.0}),
      Instance(1, 5, {0.123456789, 1e-7, 0.5, 0.25, 0.126543111}),
  };
  for (const Instance& instance : instances) {
    EXPECT_EQ(instance.to_string(), reference(instance));
  }
}

TEST(RationalInstance, ExactRowSumEnforced) {
  EXPECT_NO_THROW(RationalInstance(
      1, 3, {Rational(1, 3), Rational(1, 3), Rational(1, 3)}));
  EXPECT_THROW(RationalInstance(
                   1, 3, {Rational(1, 3), Rational(1, 3), Rational(1, 4)}),
               std::invalid_argument);
  EXPECT_THROW(RationalInstance(
                   1, 2, {Rational(-1, 2), Rational(3, 2)}),
               std::invalid_argument);
}

TEST(RationalInstance, ToDoubleInstanceMatches) {
  const RationalInstance exact(
      2, 2, {Rational(2, 7), Rational(5, 7), Rational(1, 3), Rational(2, 3)});
  const Instance approx = exact.to_double_instance();
  EXPECT_NEAR(approx.prob(0, 0), 2.0 / 7.0, 1e-12);
  EXPECT_NEAR(approx.prob(1, 1), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace confcall::core
