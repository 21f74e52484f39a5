#include "util/rng.hpp"

#include <cmath>

namespace qolsr::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
  // A state of all zeros is the one fixed point of xoshiro; SplitMix64
  // cannot produce four zero outputs in a row, but be defensive anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
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

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  // Lemire 2019: multiply-shift with rejection for exact uniformity.
  __uint128_t m = static_cast<__uint128_t>(next()) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(next()) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::poisson(double lambda) {
  if (lambda <= 0) return 0;
  if (lambda < 30.0) {
    // Knuth: count exponential arrivals until the product drops below e^-λ.
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double product = uniform01();
    while (product > limit) {
      ++k;
      product *= uniform01();
    }
    return k;
  }
  // Hörmann's PTRS transformed rejection (valid for lambda >= 10).
  const double b = 0.931 + 2.53 * std::sqrt(lambda);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    double u = uniform01() - 0.5;
    const double v = uniform01();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + lambda + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0 || (us < 0.013 && v > us)) continue;
    // lgamma_r, not std::lgamma: std::lgamma writes libm's process-global
    // signgam, a data race when sweep workers sample deployments at once.
    int sign = 0;
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        k * std::log(lambda) - lambda - ::lgamma_r(k + 1.0, &sign)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

double Rng::normal() {
  // Box–Muller; draw until u1 is nonzero so the log is finite.
  double u1 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();
  const double u2 = uniform01();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

}  // namespace qolsr::util
