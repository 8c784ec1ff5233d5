#include "support/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace tanglefl {
namespace {

constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += kSplitMixGamma;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // Expand the seed into four non-degenerate state words.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() noexcept {
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

Rng Rng::split(std::uint64_t key) const noexcept {
  // Mix every state word with the key through SplitMix64 so that child
  // streams for different keys are decorrelated from each other and from
  // the parent stream.
  std::uint64_t acc = key ^ 0xd1b54a32d192ed03ULL;
  for (const auto word : state_) {
    acc ^= word;
    (void)splitmix64(acc);
  }
  std::uint64_t seed = acc ^ (key * kSplitMixGamma);
  return Rng{splitmix64(seed)};
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  assert(n > 0);
  // Lemire-style rejection-free-in-practice bounded draw with a rejection
  // loop to remove modulo bias exactly.
  const std::uint64_t threshold = (~n + 1) % n;  // = 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() noexcept {
  // Box-Muller; draw until u1 is nonzero so log() is finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::size_t Rng::weighted_choice(std::span<const double> weights) noexcept {
  assert(!weights.empty());
  return weighted_choice(weights.size(),
                         [weights](std::size_t i) { return weights[i]; });
}

std::vector<std::size_t> Rng::permutation(std::size_t n) noexcept {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  shuffle(perm);
  return perm;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) noexcept {
  assert(k <= n);
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform_index(n - i));
    using std::swap;
    swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

double Rng::gamma(double shape) noexcept {
  assert(shape > 0.0);
  // Marsaglia-Tsang for shape >= 1; boost trick for shape < 1.
  if (shape < 1.0) {
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u > 0.0 ? u : 1e-300, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::dirichlet(double alpha, std::size_t k) noexcept {
  std::vector<double> sample(k);
  double total = 0.0;
  for (auto& s : sample) {
    s = gamma(alpha);
    total += s;
  }
  if (total <= 0.0) {
    for (auto& s : sample) s = 1.0 / static_cast<double>(k);
    return sample;
  }
  for (auto& s : sample) s /= total;
  return sample;
}

std::vector<double> Rng::dirichlet(std::span<const double> alphas) noexcept {
  std::vector<double> sample(alphas.size());
  double total = 0.0;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    sample[i] = alphas[i] > 0.0 ? gamma(alphas[i]) : 0.0;
    total += sample[i];
  }
  if (total <= 0.0) {
    for (auto& s : sample) s = 1.0 / static_cast<double>(sample.size());
    return sample;
  }
  for (auto& s : sample) s /= total;
  return sample;
}

}  // namespace tanglefl
