#include "ntt/reduction.h"

#include <cassert>

#include "ntt/modular.h"

namespace cryptopim::ntt {

namespace {

std::uint64_t eval_terms(std::uint64_t x,
                         const std::vector<ShiftAddTerm>& terms) noexcept {
  return eval_shift_add(x, terms.data(), terms.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// BarrettShiftAdd
// ---------------------------------------------------------------------------

BarrettShiftAdd BarrettShiftAdd::paper_spec(std::uint32_t q) {
  BarrettShiftAdd b;
  b.q_ = q;
  switch (q) {
    case 7681:  // q = 2^13 - 2^9 + 1; u = a >> 13
      b.quotient_terms_ = {{0, +1}};
      b.quotient_shift_ = 13;
      b.q_terms_ = {{13, +1}, {9, -1}, {0, +1}};
      // a = 8192b + s  =>  r = 511b + s < 2q  iff  b <= 14.
      b.max_input_ = 15ull * 8192 - 1;
      break;
    case 12289:  // q = 2^13 + 2^12 + 1; u = (5a) >> 16
      b.quotient_terms_ = {{2, +1}, {0, +1}};
      b.quotient_shift_ = 16;
      b.q_terms_ = {{13, +1}, {12, +1}, {0, +1}};
      // r <= 4091b + 16383 < 2q  iff  b <= 2  (a = 65536b + s).
      b.max_input_ = 3ull * 65536 - 1;
      break;
    case 786433:  // q = 2^19 + 2^18 + 1; u = a >> 20
      b.quotient_terms_ = {{0, +1}};
      b.quotient_shift_ = 20;
      b.q_terms_ = {{19, +1}, {18, +1}, {0, +1}};
      // r = 262143b + s < 2q  iff  b <= 1  (a = 2^20 b + s).
      b.max_input_ = (1ull << 21) - 1;
      break;
    default:
      assert(false && "paper_spec only defined for q in {7681,12289,786433}");
  }
  assert(eval_terms(1, b.q_terms_) == q);
  return b;
}

BarrettShiftAdd BarrettShiftAdd::generic(std::uint32_t q,
                                         std::uint64_t max_input) {
  assert(q >= 2);
  BarrettShiftAdd b;
  b.q_ = q;
  b.max_input_ = max_input;
  // m = floor(2^k / q) with 2^k > max_input keeps the quotient
  // approximation within one of the true quotient, so reduce() < 2q.
  const unsigned k = bit_length(max_input);
  b.quotient_shift_ = k;
  const std::uint64_t m = (std::uint64_t{1} << k) / q;
  b.quotient_terms_ = naf_decompose(m);
  b.q_terms_ = naf_decompose(q);
  return b;
}

std::uint64_t BarrettShiftAdd::reduce(std::uint64_t a) const noexcept {
  assert(a <= max_input_);
  const std::uint64_t u = eval_terms(a, quotient_terms_) >> quotient_shift_;
  const std::uint64_t uq = eval_terms(u, q_terms_);
  assert(a >= uq);
  return a - uq;
}

std::uint32_t BarrettShiftAdd::reduce_canonical(std::uint64_t a) const noexcept {
  std::uint64_t r = reduce(a);
  if (r >= q_) r -= q_;
  assert(r < q_);
  return static_cast<std::uint32_t>(r);
}

// ---------------------------------------------------------------------------
// MontgomeryShiftAdd
// ---------------------------------------------------------------------------

MontgomeryShiftAdd MontgomeryShiftAdd::paper_spec(std::uint32_t q) {
  // R = 2^18 for the 16-bit moduli, 2^32 for the 32-bit modulus, matching
  // the masks in Algorithm 3. The q' constants are the corrected values
  // satisfying q*q' ≡ -1 (mod R); the shift patterns mirror the paper's.
  MontgomeryShiftAdd m;
  m.q_ = q;
  switch (q) {
    case 7681:
      m.r_bits_ = 18;
      m.q_prime_ = 7679;  // 2^13 - 2^9 - 1
      m.qprime_terms_ = {{13, +1}, {9, -1}, {0, -1}};
      m.q_terms_ = {{13, +1}, {9, -1}, {0, +1}};
      break;
    case 12289:
      m.r_bits_ = 18;
      m.q_prime_ = 12287;  // 2^13 + 2^12 - 1 (as printed in the paper)
      m.qprime_terms_ = {{13, +1}, {12, +1}, {0, -1}};
      m.q_terms_ = {{13, +1}, {12, +1}, {0, +1}};
      break;
    case 786433:
      m.r_bits_ = 32;
      m.q_prime_ = 786431;  // 2^19 + 2^18 - 1
      m.qprime_terms_ = {{19, +1}, {18, +1}, {0, -1}};
      m.q_terms_ = {{19, +1}, {18, +1}, {0, +1}};
      break;
    default:
      assert(false && "paper_spec only defined for q in {7681,12289,786433}");
  }
  assert(eval_terms(1, m.q_terms_) == q);
  assert(eval_terms(1, m.qprime_terms_) == m.q_prime_);
  return m;
}

MontgomeryShiftAdd MontgomeryShiftAdd::generic(std::uint32_t q,
                                               unsigned r_bits) {
  assert((q & 1u) != 0 && r_bits >= bit_length(q) && r_bits <= 32);
  MontgomeryShiftAdd m;
  m.q_ = q;
  m.r_bits_ = r_bits;
  const std::uint64_t R = std::uint64_t{1} << r_bits;
  const std::uint64_t inv = inv_mod_pow2(q, r_bits);
  m.q_prime_ = static_cast<std::uint32_t>((R - inv) & (R - 1));
  m.qprime_terms_ = naf_decompose(m.q_prime_);
  m.q_terms_ = naf_decompose(q);
  return m;
}

std::uint64_t MontgomeryShiftAdd::reduce(std::uint64_t a) const noexcept {
  assert(a <= max_input());
  const std::uint64_t mask = R() - 1;
  // Only the low r_bits of a matter for m; keeps the product in 64 bits.
  const std::uint64_t m = ((a & mask) * q_prime_) & mask;
  const std::uint64_t t = (a + m * q_) >> r_bits_;
  return t;  // < 2q for a < qR
}

std::uint32_t MontgomeryShiftAdd::reduce_canonical(
    std::uint64_t a) const noexcept {
  std::uint64_t t = reduce(a);
  if (t >= q_) t -= q_;
  assert(t < q_);
  return static_cast<std::uint32_t>(t);
}

std::uint32_t MontgomeryShiftAdd::to_mont(std::uint32_t x) const noexcept {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(x) << r_bits_) % q_);
}

std::uint32_t MontgomeryShiftAdd::mul(std::uint32_t a,
                                      std::uint32_t b) const noexcept {
  return reduce_canonical(static_cast<std::uint64_t>(a) * b);
}

}  // namespace cryptopim::ntt
