// Deterministic random number generation for workload synthesis and
// experiment sampling.
//
// All randomness in commsched flows through Rng so that every experiment is
// reproducible from a single seed.  The generator is xoshiro256**, seeded via
// SplitMix64, which is both fast and statistically strong — important when a
// single benchmark draws millions of variates for synthetic job logs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace commsched {

/// One SplitMix64 step as a stateless mixer: advance `x` by the golden-gamma
/// increment and return the finalized output. Used to derive decorrelated
/// child seeds from a base seed plus an index (e.g. one SA stream per job:
/// `splitmix64(base ^ splitmix64(job))`), so per-entity randomness is
/// reproducible without any shared generator state.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic PRNG (xoshiro256**) with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator so it can also be handed to
/// <random> distributions, but the built-in helpers below are preferred:
/// they are guaranteed stable across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Next raw 64-bit value.
  std::uint64_t operator()() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Standard normal variate (Box–Muller, stable across platforms).
  double normal();

  /// Lognormal variate: exp(mu + sigma * N(0,1)).
  double lognormal(double mu, double sigma);

  /// Exponential variate with the given mean. Requires mean > 0.
  double exponential(double mean);

  /// Weibull variate with given shape k and scale lambda.
  double weibull(double shape, double scale);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Index drawn from the discrete distribution given by `weights`
  /// (non-negative, not all zero).
  std::size_t discrete(std::span<const double> weights);

  /// Fisher–Yates shuffle (stable across platforms, unlike std::shuffle).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Draw k distinct indices from [0, n) in random order. Requires k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

// The per-draw helpers below are defined here so they inline: the
// simulated-annealing allocator draws several variates per proposal.

inline std::uint64_t Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

inline std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  COMMSCHED_ASSERT(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire-style rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % range);
  std::uint64_t x;
  do {
    x = (*this)();
  } while (x > limit);
  return lo + static_cast<std::int64_t>(x % range);
}

inline double Rng::uniform_real(double lo, double hi) {
  COMMSCHED_ASSERT(lo <= hi);
  // 53 random bits -> [0, 1) double.
  const double u = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

// hot-path: no-alloc
inline bool Rng::bernoulli(double p) {
  COMMSCHED_ASSERT(p >= 0.0 && p <= 1.0);
  return uniform_real(0.0, 1.0) < p;
}

}  // namespace commsched
