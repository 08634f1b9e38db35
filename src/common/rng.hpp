#pragma once
// Deterministic random number generation.
//
// Every stochastic component in the repository (dataset synthesis, weight
// init, cell-current variation, ADC noise) draws from an explicitly seeded
// Rng so that experiments are bit-reproducible across runs. The engine is
// xoshiro256** (public-domain algorithm by Blackman & Vigna), which is
// fast, has 256 bits of state and passes BigCrush.
//
// Counter-keyed draws (fault patterns, analog read noise) use no stream
// at all: a key is hash-chained from the draw's coordinates and mixed
// once, so any draw can be made in any order on any thread.

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace yoloc {

/// SplitMix64 output function (Steele, Lea & Flood): a bijective 64-bit
/// mix of `x` plus the golden-ratio increment.
inline std::uint64_t hash64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Fold coordinate `v` into hash key `h`.
inline std::uint64_t hash_chain(std::uint64_t h, std::uint64_t v) {
  return hash64(h ^ v);
}

/// Counter-free deterministic PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi);
  /// Standard normal via Marsaglia polar method.
  double normal();
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);
  /// Bernoulli draw.
  bool bernoulli(double p_true);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(uniform_int(0, static_cast<int>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream (e.g. one per dataset split).
  Rng fork();

 private:
  std::array<std::uint64_t, 4> state_{};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace yoloc
