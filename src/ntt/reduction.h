// Shift-add modular reduction, specialised to the paper's three moduli
// (Algorithm 3) and generalised to arbitrary odd prime q.
//
// The paper replaces division-based Barrett / Montgomery reduction with
// chains of constant shifts and add/subtracts, because in a ReRAM crossbar
// a shift-by-constant is free (column re-addressing) while adds are cheap
// and row-parallel. The same ShiftAddTerm decompositions exposed here are
// consumed by the PIM reduction circuits (src/pim/circuits/reduction.*),
// so the scalar and in-memory implementations share one source of truth.
//
// NOTE on fidelity: Algorithm 3 as printed in the paper has sign typos in
// the q = 7681 and q = 786433 branches (e.g. it multiplies by
// 2^13 - 2^9 - 1 = 7679 where the value 7681 is required, and vice versa
// for the Montgomery q'). We implement the mathematically correct
// constants — verified by the identity q * q' ≡ -1 (mod R) in unit tests —
// and keep the paper's structure (two shift-add stages, a power-of-two
// mask, a final add + shift). See DESIGN.md §3.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitutil.h"

namespace cryptopim::ntt {

/// Barrett reduction with a shift-add quotient approximation:
///   u = (sum_i sign_i * (a << shift_i)) >> quotient_shift   (~ floor(a/q))
///   r = a - u * q                                           (u*q via shift-add)
/// The result lies in [0, slack_bound) with slack_bound a small multiple of
/// q; reduce_canonical() finishes with conditional subtracts.
class BarrettShiftAdd {
 public:
  /// The paper's specialisation for q in {7681, 12289, 786433}.
  static BarrettShiftAdd paper_spec(std::uint32_t q);
  /// Generic construction for any q: m = floor(2^k / q), k chosen so the
  /// approximation error stays below one q for inputs < max_input.
  static BarrettShiftAdd generic(std::uint32_t q, std::uint64_t max_input);

  std::uint32_t q() const noexcept { return q_; }
  /// Largest input for which reduce() is guaranteed < 2q.
  std::uint64_t max_input() const noexcept { return max_input_; }
  unsigned quotient_shift() const noexcept { return quotient_shift_; }
  const std::vector<ShiftAddTerm>& quotient_terms() const noexcept {
    return quotient_terms_;
  }
  const std::vector<ShiftAddTerm>& q_terms() const noexcept {
    return q_terms_;
  }

  /// One-shot reduction; result in [0, 2q) for inputs <= max_input().
  std::uint64_t reduce(std::uint64_t a) const noexcept;
  /// Full reduction into [0, q).
  std::uint32_t reduce_canonical(std::uint64_t a) const noexcept;

 private:
  std::uint32_t q_ = 0;
  unsigned quotient_shift_ = 0;
  std::vector<ShiftAddTerm> quotient_terms_;
  std::vector<ShiftAddTerm> q_terms_;
  std::uint64_t max_input_ = 0;
};

/// Montgomery reduction with shift-add constant multiplications:
///   m = (a * q') mod R,  q' = -q^{-1} mod R,  R = 2^r_bits
///   t = (a + m * q) >> r_bits            == a * R^{-1} (mod q)
/// Both q' and q multiplications are realised as shift-add chains.
class MontgomeryShiftAdd {
 public:
  /// The paper's specialisation: R = 2^18 for q in {7681, 12289},
  /// R = 2^32 for q = 786433.
  static MontgomeryShiftAdd paper_spec(std::uint32_t q);
  /// Generic construction for odd q with a caller-chosen R = 2^r_bits > q.
  static MontgomeryShiftAdd generic(std::uint32_t q, unsigned r_bits);

  std::uint32_t q() const noexcept { return q_; }
  unsigned r_bits() const noexcept { return r_bits_; }
  std::uint64_t R() const noexcept { return std::uint64_t{1} << r_bits_; }
  std::uint32_t q_prime() const noexcept { return q_prime_; }
  const std::vector<ShiftAddTerm>& qprime_terms() const noexcept {
    return qprime_terms_;
  }
  const std::vector<ShiftAddTerm>& q_terms() const noexcept {
    return q_terms_;
  }
  /// Largest a with reduce(a) < 2q (i.e. a + mq must not overflow the
  /// guarantee); equals q*R - 1 mathematically, we report q*R - 1.
  std::uint64_t max_input() const noexcept {
    return static_cast<std::uint64_t>(q_) * R() - 1;
  }

  /// t = a * R^{-1} mod q, result in [0, 2q) for a < q*R.
  std::uint64_t reduce(std::uint64_t a) const noexcept;
  /// Full reduction into [0, q).
  std::uint32_t reduce_canonical(std::uint64_t a) const noexcept;

  /// x -> x * R mod q (enter the Montgomery domain).
  std::uint32_t to_mont(std::uint32_t x) const noexcept;
  /// Montgomery product: a,b in [0,q), one of them in the Montgomery
  /// domain; returns the plain product in [0, q).
  std::uint32_t mul(std::uint32_t a, std::uint32_t b) const noexcept;

 private:
  std::uint32_t q_ = 0;
  unsigned r_bits_ = 0;
  std::uint32_t q_prime_ = 0;
  std::vector<ShiftAddTerm> qprime_terms_;
  std::vector<ShiftAddTerm> q_terms_;
};

}  // namespace cryptopim::ntt
