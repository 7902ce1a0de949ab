#include "common/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace cloudburst {

double Rng::normal(double mean, double stddev) {
  // Marsaglia polar method; we discard the second variate to keep the
  // generator stateless w.r.t. caller interleaving.
  while (true) {
    const double u = uniform(-1.0, 1.0);
    const double v = uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return mean + stddev * u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double Rng::exponential(double rate) {
  // Inverse CDF; 1 - U in (0,1] avoids log(0).
  return -std::log(1.0 - next_double()) / rate;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : n_(n), s_(s), log_branch_(s == 1.0) {
  if (!std::isfinite(s)) throw std::invalid_argument("ZipfSampler: exponent must be finite");
  // Between -1 and 0, k^-s is concave: the hat undershoots it and ranks >= 2
  // get too little mass.
  if (s > -1.0 && s < 0.0) {
    throw std::invalid_argument("ZipfSampler: exponent must be <= -1 or >= 0");
  }
  if (n_ <= 1) return;
  if (!log_branch_) {
    one_minus_s_ = 1.0 - s;
    inv_one_minus_s_ = 1.0 / one_minus_s_;
  }
  hx0_ = h(1.5) - 1.0;
  span_ = h(static_cast<double>(n_) + 0.5) - hx0_;
  if (!std::isfinite(hx0_) || !std::isfinite(span_)) {
    throw std::invalid_argument("ZipfSampler: envelope overflows for this exponent");
  }
  // squeeze_ = 2 - h_inv(h(2.5) - 2^-s). Off the log branch h_inv's base is
  // expanded to 2.5^(1-s) - (1-s) 2^-s, which does not cancel at large s.
  // Past s of about 1074 the base underflows to 0 and the squeeze is -inf:
  // it never accepts, and every draw takes the full test.
  squeeze_ = 2.0 - (log_branch_ ? h_inv(h(2.5) - 0.5)
                                : std::pow(std::pow(2.5, one_minus_s_) -
                                               one_minus_s_ * std::pow(2.0, -s_),
                                           inv_one_minus_s_));
}

double ZipfSampler::h(double x) const {
  return log_branch_ ? std::log(x) : (std::pow(x, one_minus_s_) - 1.0) / one_minus_s_;
}

double ZipfSampler::h_inv(double x) const {
  return log_branch_ ? std::exp(x) : std::pow(1.0 + x * one_minus_s_, inv_one_minus_s_);
}

std::uint64_t ZipfSampler::operator()(Rng& rng) const {
  if (n_ <= 1) return 0;
  const double nd = static_cast<double>(n_);
  while (true) {
    const double u = hx0_ + rng.next_double() * span_;
    // Round h_inv(u) to the nearest rank and clamp it to [1, n]. Comparing
    // in double picks the same rank as truncating to an integer, and a NaN
    // clamps to rank 1 instead of reaching an undefined cast.
    const double x = h_inv(u);
    const double rounded = x + 0.5;
    const std::uint64_t k = !(rounded >= 1.0)
                                ? 1
                                : (rounded >= nd + 1.0 ? n_ : static_cast<std::uint64_t>(rounded));
    const double kd = static_cast<double>(k);
    if (kd - x <= squeeze_ || u >= h(kd + 0.5) - std::pow(kd, -s_)) return k - 1;  // zero-based
  }
}

}  // namespace cloudburst
