// Deterministic random-number utilities.
//
// Every stochastic component in the library (trace generators, the mobility
// simulator, randomized property tests) draws from dpg::Rng so that a single
// 64-bit seed reproduces an experiment bit-for-bit.  Rng wraps SplitMix64 for
// seeding and xoshiro256** for the stream; both are small, fast and of
// well-studied quality for simulation workloads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dpg {

/// SplitMix64 step; used to expand one seed into full generator state.
/// Public because tests and stream-splitting also use it directly.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// The discrete inverse CDF as a linear scan: subtracts weights from
/// u·Σweights left to right and returns the first index that takes it below
/// zero (the last index if none does; 0 for no weights).  This exact
/// floating-point chain defines Rng::next_weighted's answer, and it is the
/// oracle WeightedTable reproduces.
[[nodiscard]] std::size_t weighted_index(std::span<const double> weights,
                                         double u) noexcept;

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// Satisfies `std::uniform_random_bit_generator`, so it can also feed
/// `std::shuffle` and standard distributions when convenient, but the
/// member helpers below are the preferred, reproducible interface.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; equal seeds yield equal streams on every platform.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }
  result_type operator()() noexcept { return next_u64(); }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, bound). `bound` must be > 0. Unbiased (rejection).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in the closed range [lo, hi].
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) noexcept;

  /// Standard-normal variate (Box–Muller, cached pair).
  double next_gaussian() noexcept;

  /// Exponential variate with the given rate (mean 1/rate).
  double next_exponential(double rate) noexcept;

  /// Bernoulli trial.
  bool next_bool(double probability_true) noexcept;

  /// Index drawn from the discrete distribution proportional to `weights`:
  /// weighted_index(weights, next_double()), O(k) per draw.  Weights must be
  /// non-negative with a positive sum.  Many draws from one weight vector
  /// should use WeightedTable, which returns the same index.
  std::size_t next_weighted(std::span<const double> weights) noexcept;

  /// Zipf-distributed rank in [0, n) with exponent `s` (s = 0 is uniform).
  /// Uses inverse-CDF over precomputable weights; O(n) per call by design
  /// (callers that need many draws should use trace::ZipfSampler).
  std::size_t next_zipf(std::size_t n, double s) noexcept;

  /// Fisher–Yates shuffle of a vector-like span.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Derives an independent child generator; used to give each parallel
  /// worker its own stream while keeping the whole run a function of one seed.
  [[nodiscard]] Rng split() noexcept;

 private:
  std::uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Many draws from one fixed weight vector in O(log k) each: the left-to-
/// right prefix sums are built once and binary-searched.  draw() consumes
/// exactly one next_double() and returns exactly next_weighted's index —
/// the prefix sums round the same way the linear scan does up to a
/// band of 4(k+1)·ε·Σw, and a target inside that band of a boundary (or at
/// or past the last one) falls back to the linear scan itself.
class WeightedTable {
 public:
  /// Weights must be non-empty and non-negative with a positive sum.
  explicit WeightedTable(std::span<const double> weights);

  /// weighted_index(weights, u) for u in [0, 1).
  [[nodiscard]] std::size_t index_of(double u) const noexcept;

  std::size_t draw(Rng& rng) const noexcept {
    return index_of(rng.next_double());
  }

 private:
  std::vector<double> weights_;
  std::vector<double> prefix_;  // prefix_[i] = fl(w0 + … + wi), in order
  double band_ = 0.0;
};

}  // namespace dpg
