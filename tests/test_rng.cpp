// Tests for the deterministic random generator.
#include "prob/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

namespace confcall::prob {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next_u64() != b.next_u64()) ++differences;
  }
  EXPECT_GT(differences, 28);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(8);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.next_below(10)];
  }
  for (const int count : counts) {
    EXPECT_GT(count, 800);
    EXPECT_LT(count, 1200);
  }
}

/// next_below as it was before the nearly-divisionless form: the
/// rejection threshold is divided out before every draw. Counts the
/// draws it rejected.
std::uint64_t dividing_next_below(Rng& rng, std::uint64_t bound,
                                  std::size_t& rejections) {
  if (bound <= 1) return 0;
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = rng.next_u64();
    const __uint128_t m = static_cast<__uint128_t>(r) * bound;
    if (static_cast<std::uint64_t>(m) >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
    ++rejections;
  }
}

/// Four outputs of a copy: enough to pin all four state words.
std::vector<std::uint64_t> peek(Rng rng) {
  std::vector<std::uint64_t> out(4);
  for (auto& word : out) word = rng.next_u64();
  return out;
}

TEST(Rng, NextBelowMatchesTheDividingForm) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{6}, std::uint64_t{7}, (std::uint64_t{1} << 32) + 1,
        (std::uint64_t{1} << 63) + 1, kMax}) {
    SCOPED_TRACE(bound);
    Rng fast(2024);
    Rng reference(2024);
    std::size_t rejections = 0;
    for (int i = 0; i < 4000; ++i) {
      ASSERT_EQ(fast.next_below(bound),
                dividing_next_below(reference, bound, rejections))
          << "draw " << i;
      ASSERT_EQ(peek(fast), peek(reference)) << "state after draw " << i;
    }
    // Just above 2^63 nearly half the draws are rejected, so the
    // retry loop is exercised, not only the first draw.
    if (bound == (std::uint64_t{1} << 63) + 1) EXPECT_GT(rejections, 1000u);
  }
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(10);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, GammaMeanEqualsShape) {
  Rng rng(12);
  for (const double shape : {0.5, 1.0, 3.0}) {
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.next_gamma(shape);
    EXPECT_NEAR(sum / n, shape, shape * 0.05) << "shape " << shape;
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> items(50);
  std::iota(items.begin(), items.end(), 0);
  auto shuffled = items;
  rng.shuffle(shuffled);
  EXPECT_FALSE(std::equal(items.begin(), items.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, ShuffleUniformFirstPosition) {
  Rng rng(14);
  std::vector<int> counts(5, 0);
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<int> items = {0, 1, 2, 3, 4};
    rng.shuffle(items);
    ++counts[items[0]];
  }
  for (const int count : counts) {
    EXPECT_GT(count, 3600);
    EXPECT_LT(count, 4400);
  }
}

TEST(SplitMix64, KnownStream) {
  // Reference values from the published SplitMix64 algorithm, seed 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

}  // namespace
}  // namespace confcall::prob
