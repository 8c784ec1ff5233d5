// Deterministic, splittable random number generation.
//
// All randomness in the library flows from a single 64-bit master seed
// through `Rng`. An `Rng` can be `split()` into statistically independent
// child streams keyed by an integer, which makes parallel simulations
// reproducible regardless of thread scheduling: every node / round / walk
// derives its own stream from (master seed, node id, round, purpose).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tanglefl {

/// xoshiro256** seeded via SplitMix64. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose stream is fully determined by `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64 random bits.
  result_type operator()() noexcept;

  /// Derives an independent child stream keyed by `key`. Children with
  /// different keys (or from parents with different states) do not overlap
  /// for any practical sample count.
  [[nodiscard]] Rng split(std::uint64_t key) const noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal deviate (Box-Muller, no cached spare for determinism).
  double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Bernoulli trial with probability `p` of returning true.
  bool bernoulli(double p) noexcept;

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// Non-positive weights are treated as zero; if all weights are zero the
  /// choice is uniform. Requires weights to be non-empty.
  std::size_t weighted_choice(std::span<const double> weights) noexcept;

  /// The same draw over the weights `weight_at(0), ..., weight_at(n - 1)`,
  /// without storing them: each is asked for once to total them and again
  /// while scanning for the target, so `weight_at` must return the same
  /// value for an index every time. Requires n > 0.
  template <typename WeightAt>
  std::size_t weighted_choice(std::size_t n, WeightAt&& weight_at) noexcept {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = weight_at(i);
      total += (w > 0.0 ? w : 0.0);
    }
    if (total <= 0.0) return static_cast<std::size_t>(uniform_index(n));
    double target = uniform() * total;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = weight_at(i);
      const double clamped = w > 0.0 ? w : 0.0;
      if (target < clamped) return i;
      target -= clamped;
    }
    return n - 1;  // numerical slack
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Random permutation of [0, n).
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n) noexcept;

  /// Samples `k` distinct indices from [0, n) uniformly (partial
  /// Fisher-Yates). Requires k <= n. Result order is random.
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(
      std::size_t n, std::size_t k) noexcept;

  /// Samples from a symmetric Dirichlet distribution with concentration
  /// `alpha` over `k` categories (used for non-IID label partitioning).
  [[nodiscard]] std::vector<double> dirichlet(double alpha, std::size_t k) noexcept;

  /// Samples from an asymmetric Dirichlet with per-category concentrations
  /// (used to give the synthetic language Zipfian symbol frequencies).
  [[nodiscard]] std::vector<double> dirichlet(std::span<const double> alphas) noexcept;

 private:
  /// Gamma(shape, 1) sample; used by dirichlet().
  double gamma(double shape) noexcept;

  std::uint64_t state_[4];
};

}  // namespace tanglefl
