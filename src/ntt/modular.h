// Generic modular arithmetic over Z_q for q < 2^31.
//
// These routines back the software (CPU-baseline) NTT and serve as the
// scalar oracle against which every in-memory PIM circuit is verified.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace cryptopim::ntt {

/// a + b mod q; preconditions a,b in [0,q).
constexpr std::uint32_t add_mod(std::uint32_t a, std::uint32_t b,
                                std::uint32_t q) noexcept {
  const std::uint32_t s = a + b;
  return s >= q ? s - q : s;
}

/// a - b mod q; preconditions a,b in [0,q).
constexpr std::uint32_t sub_mod(std::uint32_t a, std::uint32_t b,
                                std::uint32_t q) noexcept {
  return a >= b ? a - b : a + q - b;
}

/// a * b mod q for q < 2^31 (the 64-bit product cannot overflow).
constexpr std::uint32_t mul_mod(std::uint32_t a, std::uint32_t b,
                                std::uint32_t q) noexcept {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(a) * b) % q);
}

/// The Shoup reciprocal floor(c * 2^32 / q) of a constant c < q.
constexpr std::uint32_t shoup_reciprocal(std::uint32_t c,
                                         std::uint32_t q) noexcept {
  return static_cast<std::uint32_t>((static_cast<std::uint64_t>(c) << 32) /
                                    q);
}

/// x * c mod q in [0, 2q), valid for any x < 2^32 and constant c < q
/// with c_shoup = shoup_reciprocal(c, q). The quotient estimate is off by
/// at most one, so the 32-bit wrapping subtraction recovers a value
/// r == x*c (mod q) with r < q * (x / 2^32 + 1) < 2q.
constexpr std::uint32_t mul_shoup_lazy(std::uint32_t x, std::uint32_t c,
                                       std::uint32_t c_shoup,
                                       std::uint32_t q) noexcept {
  const auto quot = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(x) * c_shoup) >> 32);
  return x * c - quot * q;
}

/// The Barrett reciprocal floor((2^64 - 1) / q), which equals
/// floor(2^64 / q) for every odd q.
constexpr std::uint64_t barrett_reciprocal(std::uint32_t q) noexcept {
  return ~std::uint64_t{0} / q;
}

/// v mod q in [0, 2q), valid for any v < 2^64 with
/// mu = barrett_reciprocal(q). v * mu / 2^64 falls short of v / q by
/// v * (2^64 - mu * q) / (q * 2^64) <= v / 2^64 < 1, so the quotient
/// estimate is off by at most one.
constexpr std::uint64_t reduce_barrett_lazy(std::uint64_t v, std::uint32_t q,
                                            std::uint64_t mu) noexcept {
  const auto quot = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(v) * mu) >> 64);
  return v - quot * q;
}

/// a^e mod q by square-and-multiply.
constexpr std::uint32_t pow_mod(std::uint32_t a, std::uint64_t e,
                                std::uint32_t q) noexcept {
  std::uint64_t base = a % q;
  std::uint64_t acc = 1;
  while (e != 0) {
    if (e & 1u) acc = (acc * base) % q;
    base = (base * base) % q;
    e >>= 1;
  }
  return static_cast<std::uint32_t>(acc);
}

/// Multiplicative inverse mod prime q (Fermat). Precondition: q prime,
/// a != 0 mod q.
constexpr std::uint32_t inv_mod(std::uint32_t a, std::uint32_t q) noexcept {
  assert(a % q != 0);
  return pow_mod(a, q - 2, q);
}

/// Inverse of odd `a` modulo 2^bits (Hensel/Newton lifting). Used to derive
/// Montgomery constants q' = -q^{-1} mod R.
constexpr std::uint64_t inv_mod_pow2(std::uint64_t a, unsigned bits) noexcept {
  assert((a & 1u) != 0 && bits >= 1 && bits <= 64);
  std::uint64_t x = 1;  // correct mod 2^1
  for (unsigned prec = 1; prec < bits; prec *= 2) {
    x = x * (2 - a * x);  // doubles precision each step (mod 2^64 arithmetic)
  }
  if (bits < 64) x &= (std::uint64_t{1} << bits) - 1;
  return x;
}

/// Distinct prime factors of n (trial division; n is small in this library).
std::vector<std::uint32_t> prime_factors(std::uint32_t n);

/// True iff q is prime (deterministic trial division; q < 2^31).
bool is_prime(std::uint32_t q);

/// Smallest generator of the multiplicative group Z_q^* (q prime).
std::uint32_t find_generator(std::uint32_t q);

/// A primitive k-th root of unity mod prime q, i.e. an element of
/// multiplicative order exactly k. Requires k | q-1; returns nullopt
/// otherwise.
std::optional<std::uint32_t> primitive_root_of_unity(std::uint32_t k,
                                                     std::uint32_t q);

}  // namespace cryptopim::ntt
