// Deterministic pseudo-random generators used by workload generation and the
// simulated disk. We do not use std::mt19937 directly in public interfaces so
// that workloads are reproducible across standard-library versions.
#ifndef MMJOIN_UTIL_RANDOM_H_
#define MMJOIN_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mmjoin {

/// xoshiro256** PRNG seeded via SplitMix64. Deterministic across platforms.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). n must be > 0. Uses rejection to avoid modulo bias.
  uint64_t Uniform(uint64_t n);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  uint64_t s_[4];
};

/// Zipf-distributed values over {0, .., n-1} with parameter theta >= 0,
/// theta != 1. theta = 0 degenerates to uniform. Uses the standard
/// CDF-inversion approximation of Gray et al. (precomputed harmonic
/// normalizer). The inversion's exponent 1/(1-theta) is singular only at
/// theta = 1; for theta > 1 it turns negative and still yields density
/// ∝ v^-theta (the workloads use theta = 1.1).
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta, uint64_t seed);

  uint64_t Next();

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2_;
  Rng rng_;
};

/// In-place Fisher-Yates shuffle driven by the given generator.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(rng->Uniform(i));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

}  // namespace mmjoin

#endif  // MMJOIN_UTIL_RANDOM_H_
