// Deterministic pseudo-random number generation for tests, benches and
// samplers. xoshiro256** — fast, high quality, reproducible across
// platforms (unlike std::mt19937 distributions).
#pragma once

#include <cstdint>

namespace cryptopim {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept {
    std::uint64_t x = seed;
    for (auto& s : state_) {
      // splitmix64 step
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      s = z ^ (z >> 31);
    }
  }

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

  /// next_below(bound) rejects draws at or above this limit, so the
  /// draws it keeps cover every residue mod bound equally often.
  static constexpr std::uint64_t rejection_limit(std::uint64_t bound) noexcept {
    return ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  }

  /// Uniform value in [0, bound). Precondition bound > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Rejection-free is fine here: bias is negligible for our bounds
    // (all < 2^32) but we reject to keep tests distribution-clean.
    const std::uint64_t limit = rejection_limit(bound);
    std::uint64_t v = next();
    while (v >= limit) v = next();
    return v % bound;
  }

  /// Uniform value with exactly `bits` significant bits available
  /// (i.e. in [0, 2^bits)).
  std::uint64_t next_bits(unsigned bits) noexcept {
    return bits >= 64 ? next() : (next() & ((std::uint64_t{1} << bits) - 1));
  }

  /// Non-advancing fold of the internal state — a position fingerprint
  /// for snapshot cross-checks. Two generators with equal digests have
  /// consumed the same stream prefix from the same seed.
  std::uint64_t digest() const noexcept {
    std::uint64_t d = 0x243f6a8885a308d3ull;
    for (const std::uint64_t s : state_) {
      d ^= s;
      d *= 0x100000001b3ull;
      d = rotl(d, 29);
    }
    return d;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace cryptopim
