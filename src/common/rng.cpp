#include "common/rng.hpp"

#include <algorithm>
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
  if (n_ <= 1) return;
  if (!log_branch_) {
    one_minus_s_ = 1.0 - s;
    inv_one_minus_s_ = 1.0 / one_minus_s_;
  }
  hx0_ = h(0.5) - 1.0;
  const double hn = h(static_cast<double>(n_) + 0.5);
  span_ = hn - hx0_;
  if (!std::isfinite(hx0_) || !std::isfinite(span_)) {
    throw std::invalid_argument("ZipfSampler: envelope overflows for this exponent");
  }
  head_.resize(std::min(n_, kZipfHeadRanks));
  for (std::size_t i = 0; i < head_.size(); ++i) {
    const double kd = static_cast<double>(i + 1);
    head_[i] = h(kd + 0.5) - std::pow(kd, -s_);
  }
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
    // (h_inv of a negative base when s < 1) clamps to rank 1 instead of
    // reaching an undefined cast.
    const double x = h_inv(u) + 0.5;
    const std::uint64_t k =
        !(x >= 1.0) ? 1 : (x >= nd + 1.0 ? n_ : static_cast<std::uint64_t>(x));
    const double kd = static_cast<double>(k);
    const double threshold = k <= head_.size() ? head_[k - 1] : h(kd + 0.5) - std::pow(kd, -s_);
    if (u >= threshold) return k - 1;  // zero-based rank
  }
}

}  // namespace cloudburst
