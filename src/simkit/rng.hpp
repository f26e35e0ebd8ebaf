// simkit/rng.hpp
//
// Deterministic pseudo-random number generation for the simulation.
// We use xoshiro256** seeded through splitmix64. Determinism is a core
// design requirement (see DESIGN.md): every figure in EXPERIMENTS.md must be
// exactly reproducible from a seed, so std::random_device and
// implementation-defined std:: distributions are avoided.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace sym::sim {

/// splitmix64: used to expand a single 64-bit seed into xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** deterministic generator with distribution helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5EEDC0DEULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
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

  /// Uniform integer in [0, bound). bound == 0 returns 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Lemire's multiply-shift rejection-free approximation is fine here;
    // statistical bias of 2^-64 is irrelevant to the simulation.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + uniform(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Exponentially distributed double with the given mean.
  double exponential(double mean) noexcept {
    double u = uniform01();
    // Guard against log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// True with probability p.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// 64-bit FNV-1a hash, used for RPC name hashing across the stack. Passing
/// the hash of a prefix as `h` continues it: the result equals the hash of
/// the prefix followed by `data`.
constexpr std::uint64_t fnv1a64(
    const char* data, std::size_t len,
    std::uint64_t h = 0xCBF29CE484222325ULL) noexcept {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<std::uint8_t>(data[i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace sym::sim
