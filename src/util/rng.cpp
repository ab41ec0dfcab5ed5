#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "util/error.hpp"

namespace dpg {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
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

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire-style rejection to avoid modulo bias.
  if (bound <= 1) return 0;
  const std::uint64_t threshold = (~bound + 1) % bound;  // = 2^64 mod bound
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  // 53 uniform mantissa bits.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

double Rng::next_gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = next_double();
  while (u1 <= 0.0) u1 = next_double();
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::next_exponential(double rate) noexcept {
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return -std::log(u) / rate;
}

bool Rng::next_bool(double probability_true) noexcept {
  return next_double() < probability_true;
}

std::size_t weighted_index(std::span<const double> weights,
                           double u) noexcept {
  double total = 0.0;
  for (const double w : weights) total += w;
  double target = u * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

std::size_t Rng::next_weighted(std::span<const double> weights) noexcept {
  return weighted_index(weights, next_double());
}

std::size_t Rng::next_zipf(std::size_t n, double s) noexcept {
  if (n <= 1) return 0;
  double norm = 0.0;
  for (std::size_t i = 1; i <= n; ++i) norm += std::pow(static_cast<double>(i), -s);
  double target = next_double() * norm;
  for (std::size_t i = 1; i <= n; ++i) {
    target -= std::pow(static_cast<double>(i), -s);
    if (target < 0.0) return i - 1;
  }
  return n - 1;
}

Rng Rng::split() noexcept {
  // A child seeded from two fresh outputs is statistically independent for
  // simulation purposes and still a pure function of the parent seed.
  const std::uint64_t a = next_u64();
  const std::uint64_t b = next_u64();
  return Rng(a ^ rotl(b, 31));
}

WeightedTable::WeightedTable(std::span<const double> weights)
    : weights_(weights.begin(), weights.end()) {
  require(!weights_.empty(), "WeightedTable: no weights");
  prefix_.reserve(weights_.size());
  double total = 0.0;
  for (const double w : weights_) {
    require(w >= 0.0, "WeightedTable: weights must be non-negative");
    total += w;
    prefix_.push_back(total);
  }
  require(total > 0.0, "WeightedTable: weights must have a positive sum");
  // The scan's running remainder after index i and target − prefix_[i]
  // differ by at most (2k+1)·ε/2·Σw (one rounding per subtraction and per
  // addition); the band is about four times that.
  band_ = 4.0 * static_cast<double>(weights_.size() + 1) *
          std::numeric_limits<double>::epsilon() * total;
}

std::size_t WeightedTable::index_of(double u) const noexcept {
  // Same product as weighted_index: prefix_.back() is its `total`.
  const double target = u * prefix_.back();
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), target);
  const auto i = static_cast<std::size_t>(it - prefix_.begin());
  // Far from both neighbouring boundaries, the scan's remainder has the
  // sign the prefix sums say; otherwise let the scan decide.
  if (i < prefix_.size() && prefix_[i] - target > band_ &&
      (i == 0 || target - prefix_[i - 1] > band_)) {
    return i;
  }
  return weighted_index(weights_, u);
}

}  // namespace dpg
