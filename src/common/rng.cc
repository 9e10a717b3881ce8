#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace flood {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  FLOOD_DCHECK(lo <= hi);
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (range == std::numeric_limits<uint64_t>::max()) {
    return static_cast<int64_t>(Next());
  }
  // Debiased modulo (Lemire-style rejection).
  const uint64_t span = range + 1;
  const uint64_t limit = std::numeric_limits<uint64_t>::max() -
                         std::numeric_limits<uint64_t>::max() % span;
  uint64_t x = Next();
  while (x >= limit) x = Next();
  // Offset from lo in uint64: [lo, hi] may span all of int64.
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + x % span);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller transform.
  double u1 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Lognormal(double mu, double sigma) {
  return std::exp(Gaussian(mu, sigma));
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(Next()); }

ZipfGenerator::ZipfGenerator(size_t n, double s) {
  FLOOD_CHECK(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& v : cdf_) v /= total;
}

size_t ZipfGenerator::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace flood
