// Bit-manipulation helpers shared across the CryptoPIM stack.
//
// All functions are constexpr and operate on unsigned 64-bit values; they
// are used both by the software NTT (bit-reversed addressing) and by the
// PIM circuit generators (shift-add decompositions of constants).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace cryptopim {

/// True iff `x` is a non-zero power of two.
constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// floor(log2(x)); precondition x > 0.
constexpr unsigned ilog2(std::uint64_t x) noexcept {
  assert(x > 0);
  return 63u - static_cast<unsigned>(std::countl_zero(x));
}

/// Number of bits needed to represent `x` (bit_width); 0 for x == 0.
constexpr unsigned bit_length(std::uint64_t x) noexcept {
  return static_cast<unsigned>(std::bit_width(x));
}

/// Reverse the lowest `bits` bits of `x` (the rest must be zero).
constexpr std::uint64_t bit_reverse(std::uint64_t x, unsigned bits) noexcept {
  assert(bits <= 64);
  std::uint64_t r = 0;
  for (unsigned i = 0; i < bits; ++i) {
    r = (r << 1) | (x & 1u);
    x >>= 1;
  }
  return r;
}

/// A signed-digit term of a shift-add decomposition: value contribution is
/// `sign * 2^shift`.
struct ShiftAddTerm {
  unsigned shift = 0;
  int sign = +1;  // +1 or -1
};

/// Decompose `c` into a minimal-ish signed-digit (NAF) representation:
/// c = sum(sign_i * 2^shift_i). Used to turn constant multiplications into
/// shift-and-add/subtract chains (Algorithm 3 of the paper).
inline std::vector<ShiftAddTerm> naf_decompose(std::uint64_t c) {
  std::vector<ShiftAddTerm> terms;
  unsigned shift = 0;
  while (c != 0) {
    if (c & 1u) {
      // NAF digit: choose +1 when c ≡ 1 (mod 4), else -1.
      const int digit = (c & 3u) == 1u ? +1 : -1;
      terms.push_back({shift, digit});
      c -= static_cast<std::uint64_t>(static_cast<std::int64_t>(digit));
    }
    c >>= 1;
    ++shift;
  }
  return terms;
}

/// Evaluate a shift-add decomposition (for tests): sum(sign * (x << shift)).
constexpr std::uint64_t eval_shift_add(std::uint64_t x,
                                       const ShiftAddTerm* terms,
                                       std::size_t count) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t t = x << terms[i].shift;
    acc = terms[i].sign > 0 ? acc + t : acc - t;
  }
  return acc;
}

}  // namespace cryptopim
