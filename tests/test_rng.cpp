// Tests for common/rng: determinism, range contracts, distribution sanity,
// and substream independence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace cloudburst {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256StarStar>);
  Xoshiro256StarStar gen(7);
  EXPECT_NE(gen(), gen());
}

TEST(Xoshiro, ZeroSeedStillWellMixed) {
  Xoshiro256StarStar gen(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(gen());
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(123);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroReturnsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  Rng rng(1234);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ExponentialHasCorrectMean) {
  Rng rng(55);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(77);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

/// Rejection-inversion (Hormann & Derflinger) evaluated from scratch on every
/// draw: the reference the sampler must reproduce bit for bit.
std::uint64_t per_call_zipf(Rng& rng, std::uint64_t n, double s) {
  if (n <= 1) return 0;
  const double nd = static_cast<double>(n);
  auto h = [s](double x) {
    return s == 1.0 ? std::log(x) : (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_inv = [s](double x) {
    return s == 1.0 ? std::exp(x) : std::pow(1.0 + x * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double hx0 = h(0.5) - 1.0;
  const double hn = h(nd + 0.5);
  while (true) {
    const double u = hx0 + rng.next_double() * (hn - hx0);
    const double x = h_inv(u);
    const std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    const std::uint64_t clamped = k < 1 ? 1 : (k > n ? n : k);
    const double kd = static_cast<double>(clamped);
    if (u >= h(kd + 0.5) - std::pow(kd, -s)) return clamped - 1;
  }
}

TEST(ZipfSampler, MatchesPerCallFormula) {
  for (const std::uint64_t n : {1u, 2u, 4096u, 4097u, 500000u}) {
    for (const double s : {0.5, 1.0, 1.05, 1.1, 2.0}) {
      const ZipfSampler zipf(n, s);
      Rng a(1234 + n), b(1234 + n);
      std::uint64_t mismatches = 0;
      for (int i = 0; i < 100000; ++i) mismatches += zipf(a) != per_call_zipf(b, n, s);
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << s;
      EXPECT_EQ(a.next_u64(), b.next_u64()) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ZipfSampler, StaysInRange) {
  // s < 1 can put h_inv's base below zero (a NaN rank candidate).
  for (const double s : {1.2, 0.1, 0.0, -1.0, 1e-300}) {
    const ZipfSampler zipf(100, s);
    Rng rng(88);
    for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf(rng), 100u) << s;
  }
}

TEST(ZipfSampler, IsSkewedTowardLowRanks) {
  const ZipfSampler zipf(1000, 1.2);
  Rng rng(99);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) low += zipf(rng) < 10;
  // Rank 0-9 should absorb far more than the uniform 1% share.
  EXPECT_GT(low, n / 5);
}

TEST(ZipfSampler, SingleElement) {
  const ZipfSampler zipf(1, 1.1);
  Rng rng(3), untouched(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf(rng), 0u);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(ZipfSampler, RejectsNonFiniteExponent) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double s : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_THROW(ZipfSampler(1000, s), std::invalid_argument) << s;
    EXPECT_THROW(ZipfSampler(1, s), std::invalid_argument) << s;
  }
}

TEST(ZipfSampler, RejectsOverflowingEnvelope) {
  // 0.5^(1 - s) and (n + 0.5)^(1 - s) overflow; the draw loop would never accept.
  EXPECT_THROW(ZipfSampler(1000, 2000.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(1000, -2000.0), std::invalid_argument);
}

TEST(Rng, SubstreamsAreIndependent) {
  Rng a = Rng::substream(42, 0);
  Rng b = Rng::substream(42, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

TEST(Rng, SubstreamsAreReproducible) {
  Rng a = Rng::substream(42, 3);
  Rng b = Rng::substream(42, 3);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

class RngBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundSweep, NextBelowIsRoughlyUniform) {
  const std::uint64_t bound = GetParam();
  Rng rng(1000 + bound);
  std::vector<int> counts(bound, 0);
  const int n = static_cast<int>(bound) * 1000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(bound)];
  for (std::uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v], 1000, 250) << "value " << v << " of bound " << bound;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallBounds, RngBoundSweep, ::testing::Values(2, 3, 5, 8, 13));

}  // namespace
}  // namespace cloudburst
