// Deterministic, seedable pseudo-random number generation.
//
// We deliberately avoid std::mt19937 + <random> distributions for anything
// that affects test expectations: libstdc++/libc++ implement the
// distributions differently, so results would not be reproducible across
// platforms. xoshiro256** plus hand-rolled uniform/exponential transforms
// gives bit-identical streams everywhere.
#pragma once

#include <cstdint>
#include <cmath>
#include <limits>

namespace confcall::prob {

/// SplitMix64 — used to seed the main generator from a single 64-bit seed.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators" (OOPSLA'14).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — the library's workhorse generator.
/// Satisfies UniformRandomBitGenerator so it can also feed <random> if a
/// caller insists, but the member helpers below are the supported API.
/// Collapses a (seed, stream) pair into one well-mixed 64-bit sub-seed.
/// Two SplitMix64 finalizations keep distinct streams of the same seed —
/// and the same stream of adjacent seeds — statistically independent.
/// Parallel code derives one sub-seed per TASK INDEX (never per thread),
/// which is what makes sharded results thread-count invariant.
constexpr std::uint64_t mix_seed(std::uint64_t seed,
                                 std::uint64_t stream) noexcept {
  SplitMix64 outer(seed);
  SplitMix64 inner(outer.next() ^
                   (stream * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL));
  return inner.next();
}

class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words through SplitMix64 as recommended by the
  /// xoshiro authors (avoids the all-zero state and correlated seeds).
  explicit Rng(std::uint64_t seed = 0x5eedc0ffee123456ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  /// An independent generator for substream `stream` of `seed`. Shards of
  /// a parallel computation each take substream(seed, shard_index); the
  /// resulting draws depend only on (seed, shard_index), never on which
  /// thread ran the shard.
  [[nodiscard]] static Rng substream(std::uint64_t seed,
                                     std::uint64_t stream) noexcept {
    return Rng(mix_seed(seed, stream));
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias: Lemire's
  /// nearly-divisionless multiply-and-reject. A draw is rejected iff the
  /// low product word is below (2^64 - bound) % bound; that threshold is
  /// below `bound`, so the division runs only when the low word is too,
  /// which for small bounds is almost never. Accepts exactly the draws
  /// the always-dividing form accepts, so every stream is unchanged.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
    if (static_cast<std::uint64_t>(m) < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (static_cast<std::uint64_t>(m) < threshold) {
        m = static_cast<__uint128_t>(next_u64()) * bound;
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Exponential variate with the given rate (inverse of the mean).
  double next_exponential(double rate) noexcept {
    // 1 - next_double() is in (0, 1], so log() is finite.
    return -std::log(1.0 - next_double()) / rate;
  }

  /// Standard normal variate (Marsaglia polar method).
  double next_normal() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * next_double() - 1.0;
      v = 2.0 * next_double() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    has_spare_ = true;
    return u * factor;
  }

  /// Gamma(shape, 1) variate (Marsaglia & Tsang for shape >= 1, boosting
  /// for shape < 1). Used for Dirichlet sampling.
  double next_gamma(double shape) noexcept {
    if (shape < 1.0) {
      const double u = next_double();
      return next_gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double cc = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x, v;
      do {
        x = next_normal();
        v = 1.0 + cc * x;
      } while (v <= 0.0);
      v = v * v * v;
      const double u = next_double();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
      if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
    }
  }

  /// Fisher–Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace confcall::prob
