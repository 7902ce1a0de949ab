// Deterministic random number generation.
//
// All randomness in cloudburst flows through these generators so that
// simulations, data generators, and property tests are exactly reproducible
// from a seed. We provide:
//   * SplitMix64 — seed expansion / cheap stateless hashing,
//   * Xoshiro256StarStar — the workhorse generator (satisfies
//     std::uniform_random_bit_generator, so it plugs into <random>),
//   * Rng — a convenience façade with the distributions we actually use,
//   * ZipfSampler — Zipf ranks by rejection-inversion, built once per (n, s).
#pragma once

#include <cstdint>
#include <limits>

namespace cloudburst {

/// SplitMix64: tiny, fast, passes BigCrush; used to expand one 64-bit seed
/// into the larger state of Xoshiro and to derive independent substreams.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** by Blackman & Vigna. State is seeded via SplitMix64 so any
/// 64-bit seed (including 0) yields a well-mixed state.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256StarStar(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  constexpr result_type operator()() {
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

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
};

/// Convenience façade over Xoshiro with the handful of distributions the
/// project needs. Deliberately *not* <random> distributions: their outputs
/// are not portable across standard library implementations, and we want
/// bit-identical runs everywhere.
class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed) : gen_(seed) {}

  /// Derive an independent substream; `stream_id` namespaces consumers
  /// (e.g. one stream per simulated node) without correlated sequences.
  static constexpr Rng substream(std::uint64_t seed, std::uint64_t stream_id) {
    SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1)));
    return Rng(sm.next());
  }

  constexpr std::uint64_t next_u64() { return gen_(); }

  /// Uniform in [0, bound). bound == 0 returns 0. Uses Lemire's method.
  constexpr std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // 128-bit multiply keeps the rejection zone tiny; loop until unbiased.
    while (true) {
      const std::uint64_t x = gen_();
      const unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
      const std::uint64_t lo = static_cast<std::uint64_t>(m);
      if (lo >= bound || lo >= (std::uint64_t(0) - bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [lo, hi] inclusive.
  constexpr std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Standard normal via Marsaglia polar method (portable, no <cmath> state).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential with the given rate (events per unit time).
  double exponential(double rate);

  /// Bernoulli trial with probability p of true.
  constexpr bool bernoulli(double p) { return next_double() < p; }

 private:
  Xoshiro256StarStar gen_;
};

/// Zipf-distributed integers in [0, n) with exponent `s`, by Hormann &
/// Derflinger's rejection-inversion (ACM TOMACS 1996). The envelope starts
/// at h(1.5) - 1, so rank 1's unit of area is always accepted, and the
/// published squeeze accepts most other draws without evaluating their
/// threshold. The output follows k^-s exactly for s >= 0 and s <= -1, where
/// k^-s is convex; exponents in between are rejected.
class ZipfSampler {
 public:
  /// Throws std::invalid_argument when `s` is not finite, when -1 < s < 0
  /// (the hat would undershoot k^-s), or when the envelope h(1.5) - 1,
  /// h(n + 0.5) is not finite (s below about -101 at n = 1000); the draw
  /// loop could not run. Any finite s >= 1 is accepted.
  ZipfSampler(std::uint64_t n, double s);

  /// Zero-based rank; always 0, drawing nothing, when n <= 1.
  std::uint64_t operator()(Rng& rng) const;

 private:
  double h(double x) const;
  double h_inv(double x) const;

  std::uint64_t n_;
  double s_;
  bool log_branch_;  ///< s == 1: h is log and h_inv is exp
  double one_minus_s_ = 0.0;
  double inv_one_minus_s_ = 0.0;
  double hx0_ = 0.0;      ///< h(1.5) - 1: rank 1's unit of area below h(1.5)
  double span_ = 0.0;     ///< h(n + 0.5) - hx0_
  double squeeze_ = 0.0;  ///< 2 - h_inv(h(2.5) - 2^-s): accept when k - x <= squeeze_
};

}  // namespace cloudburst
