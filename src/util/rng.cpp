#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace commsched {

Rng::Rng(std::uint64_t seed) noexcept {
  // SplitMix64 stream seeded at `seed` (the stateless mixer in rng.hpp is
  // exactly one step of this stream).
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
    s += 0x9e3779b97f4a7c15ULL;
  }
}

double Rng::normal() {
  // Box–Muller; reject u1 == 0 so log() is finite.
  double u1 = 0.0;
  while (u1 == 0.0) u1 = uniform_real(0.0, 1.0);
  const double u2 = uniform_real(0.0, 1.0);
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(mu + sigma * normal());
}

double Rng::exponential(double mean) {
  COMMSCHED_ASSERT(mean > 0.0);
  double u = 0.0;
  while (u == 0.0) u = uniform_real(0.0, 1.0);
  return -mean * std::log(u);
}

double Rng::weibull(double shape, double scale) {
  COMMSCHED_ASSERT(shape > 0.0 && scale > 0.0);
  double u = 0.0;
  while (u == 0.0) u = uniform_real(0.0, 1.0);
  return scale * std::pow(-std::log(u), 1.0 / shape);
}

std::size_t Rng::discrete(std::span<const double> weights) {
  COMMSCHED_ASSERT(!weights.empty());
  double total = 0.0;
  for (const double w : weights) {
    COMMSCHED_ASSERT_MSG(w >= 0.0, "discrete() weights must be non-negative");
    total += w;
  }
  COMMSCHED_ASSERT_MSG(total > 0.0, "discrete() weights must not all be zero");
  double x = uniform_real(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: fell off the end
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  COMMSCHED_ASSERT(k <= n);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher–Yates: after k swaps the first k entries are the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace commsched
