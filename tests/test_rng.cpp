// Tests for common/rng: determinism, range contracts, distribution sanity,
// and substream independence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
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

/// Pearson's chi-square of `draws` samples of ZipfSampler(n, s) against the
/// exact pmf k^-s / sum_j j^-s. Adjacent ranks share a bin until the bin
/// expects at least 20 draws; a short last bin joins the one before it.
/// Returns {statistic, degrees of freedom}.
std::pair<double, std::size_t> zipf_chi_square(std::uint64_t n, double s, std::uint64_t draws,
                                               std::uint64_t seed) {
  std::vector<double> weight(n);
  long double total = 0.0L;
  for (std::uint64_t k = n; k >= 1; --k) {  // smallest terms first when s > 0
    weight[k - 1] = std::pow(static_cast<double>(k), -s);
    total += weight[k - 1];
  }
  std::vector<std::uint64_t> count(n, 0);
  const ZipfSampler zipf(n, s);
  Rng rng(seed);
  for (std::uint64_t i = 0; i < draws; ++i) ++count[zipf(rng)];

  constexpr long double kMinExpected = 20.0L;
  std::vector<std::pair<long double, std::uint64_t>> bins;  // {expected, observed}
  long double expected = 0.0L;
  std::uint64_t observed = 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    expected += draws * weight[k] / total;
    observed += count[k];
    if (expected >= kMinExpected) {
      bins.emplace_back(expected, observed);
      expected = 0.0L;
      observed = 0;
    }
  }
  if (bins.empty()) {
    bins.emplace_back(expected, observed);
  } else {
    bins.back().first += expected;
    bins.back().second += observed;
  }
  long double chi2 = 0.0L;
  for (const auto& [e, o] : bins) chi2 += (o - e) * (o - e) / e;
  return {static_cast<double>(chi2), bins.size() - 1};
}

/// Upper 1e-5 quantile of chi-square with `df` degrees of freedom
/// (Wilson-Hilferty approximation). One bin (df = 0) tests nothing.
double chi_square_critical(std::size_t df) {
  if (df == 0) return std::numeric_limits<double>::infinity();
  constexpr double kZ = 4.265;  // standard normal upper 1e-5 quantile
  const double a = 2.0 / (9.0 * static_cast<double>(df));
  return static_cast<double>(df) * std::pow(1.0 - a + kZ * std::sqrt(a), 3.0);
}

TEST(ZipfSampler, MatchesExactPmfByChiSquare) {
  // s = -1 and s = 0 cover k^-s increasing and flat; s = 1.0 takes the
  // log/exp branch; s = 50 puts all but about 2^-50 of the mass on rank 1.
  for (const std::uint64_t n : {2u, 1000u, 4097u, 500000u}) {
    for (const double s : {-1.0, 0.0, 0.5, 1.0, 1.1, 2.0, 10.0, 50.0}) {
      const auto [chi2, df] = zipf_chi_square(n, s, 200000, 1234 + n);
      EXPECT_LE(chi2, chi_square_critical(df)) << "n=" << n << " s=" << s << " df=" << df;
    }
  }
}

TEST(ZipfSampler, ReturnsAtLargeExponent) {
  // An envelope starting at h(0.5) - 1 rejected nearly every draw here.
  const ZipfSampler zipf(1000, 50.0);
  Rng rng(5);
  std::uint64_t above_rank_zero = 0;
  for (int i = 0; i < 1000; ++i) above_rank_zero += zipf(rng) != 0;
  EXPECT_EQ(above_rank_zero, 0u);  // rank 2 has probability below 1e-15
}

TEST(ZipfSampler, StaysInRange) {
  // Exponents below 1, at 0 and next to 0 take h_inv's power branch.
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

// Between -1 and 0, k^-s is concave and the hat undershoots it (at n = 2,
// s = -0.5 rank 1 took 0.41486 of the draws against an exact 0.41421), so
// those exponents are rejected; the convex ends on either side still build.
TEST(ZipfSampler, RejectsExponentsBetweenMinusOneAndZero) {
  const double just_above_minus_one = std::nextafter(-1.0, 0.0);
  const double just_below_zero = -std::numeric_limits<double>::denorm_min();
  for (const double s : {-0.5, -0.999, -1e-9, just_above_minus_one, just_below_zero}) {
    EXPECT_THROW(ZipfSampler(1000, s), std::invalid_argument) << s;
    EXPECT_THROW(ZipfSampler(2, s), std::invalid_argument) << s;
    EXPECT_THROW(ZipfSampler(1, s), std::invalid_argument) << s;
  }
  for (const double s : {-1.0, -1.5, 0.0, -0.0, 1e-9}) {
    EXPECT_NO_THROW(ZipfSampler(1000, s)) << s;
  }
}

TEST(ZipfSampler, RejectsOverflowingEnvelope) {
  // The envelope is h(1.5) - 1 .. h(n + 0.5). For s < 1, (n + 0.5)^(1 - s)
  // overflows once (1 - s) ln(n + 0.5) passes ln(DBL_MAX), about 709.8: at
  // n = 1000 that is s below -101.7.
  EXPECT_NO_THROW(ZipfSampler(1000, -101.0));
  EXPECT_THROW(ZipfSampler(1000, -102.5), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(1000, -2000.0), std::invalid_argument);
  // For s > 1 both ends stay finite (1.5^(1 - s) only underflows), so any
  // finite exponent builds and draws rank 0.
  for (const double s : {2000.0, 1e300}) {
    const ZipfSampler zipf(1000, s);
    Rng rng(6);
    EXPECT_EQ(zipf(rng), 0u) << s;
  }
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
