// Deterministic pseudo-random number generation.
//
// Every stochastic component of HypDB (permutation tests, Patefield
// sampling, synthetic data generators, random DAGs) takes an explicit
// Rng& so experiments are reproducible bit-for-bit from a seed. The
// generator is xoshiro256**, hand-rolled to avoid platform differences in
// std::mt19937 distributions.

#ifndef HYPDB_UTIL_RNG_H_
#define HYPDB_UTIL_RNG_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hypdb {

/// xoshiro256** generator with convenience sampling helpers.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit output (UniformRandomBitGenerator interface).
  uint64_t operator()() { return Next(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ull; }

  /// Inline: the permutation test draws one per AS-159 cell step.
  uint64_t Next() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Standard normal via Box-Muller.
  double Normal();

  /// Gamma(shape, 1) via Marsaglia-Tsang; shape > 0.
  double Gamma(double shape);

  /// Samples an index in [0, weights.size()) proportionally to
  /// non-negative `weights`. Returns 0 if all weights are zero.
  int WeightedIndex(const std::vector<double>& weights);

  /// Dirichlet(alpha, ..., alpha) vector of length k; sums to 1.
  std::vector<double> Dirichlet(int k, double alpha);

  /// Bernoulli with success probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = NextBounded(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Splits off an independently-seeded child generator (for parallel or
  /// per-dataset streams).
  Rng Split();

 private:
  uint64_t s_[4];
};

}  // namespace hypdb

#endif  // HYPDB_UTIL_RNG_H_
