// Tests for the shift-add Barrett / Montgomery reductions (Algorithm 3,
// corrected constants) — see src/ntt/reduction.*.
#include "ntt/reduction.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ntt/modular.h"
#include "ntt/params.h"

namespace cryptopim::ntt {
namespace {

constexpr std::uint32_t kPaperModuli[] = {7681, 12289, 786433};

class BarrettPaperSpec : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BarrettPaperSpec, QTermsEvaluateToQ) {
  const auto b = BarrettShiftAdd::paper_spec(GetParam());
  EXPECT_EQ(eval_shift_add(1, b.q_terms().data(), b.q_terms().size()),
            GetParam());
}

TEST_P(BarrettPaperSpec, ReducesExhaustivelyOverAdditionDomain) {
  // Barrett is applied after additions: inputs < 2q. Check every value.
  const std::uint32_t q = GetParam();
  const auto b = BarrettShiftAdd::paper_spec(q);
  for (std::uint64_t a = 0; a < 2ull * q; ++a) {
    const std::uint64_t r = b.reduce(a);
    EXPECT_LT(r, 2ull * q);
    EXPECT_EQ(r % q, a % q);
    EXPECT_EQ(b.reduce_canonical(a), a % q);
  }
}

TEST_P(BarrettPaperSpec, ReducesAtMaxInputBoundary) {
  const std::uint32_t q = GetParam();
  const auto b = BarrettShiftAdd::paper_spec(q);
  for (std::uint64_t a :
       {b.max_input(), b.max_input() - 1, b.max_input() / 2}) {
    EXPECT_LT(b.reduce(a), 2ull * q) << "a=" << a;
    EXPECT_EQ(b.reduce_canonical(a), a % q);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperModuli, BarrettPaperSpec,
                         ::testing::ValuesIn(kPaperModuli));

class MontgomeryPaperSpec : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MontgomeryPaperSpec, QPrimeIsNegatedInverse) {
  // The defining Montgomery identity: q * q' ≡ -1 (mod R). The paper's
  // printed constants for 7681/786433 violate this; ours must not.
  const auto m = MontgomeryShiftAdd::paper_spec(GetParam());
  const std::uint64_t mask = m.R() - 1;
  EXPECT_EQ((static_cast<std::uint64_t>(m.q()) * m.q_prime()) & mask, mask);
}

TEST_P(MontgomeryPaperSpec, PaperRBits) {
  const auto m = MontgomeryShiftAdd::paper_spec(GetParam());
  EXPECT_EQ(m.r_bits(), GetParam() == 786433 ? 32u : 18u);
}

TEST_P(MontgomeryPaperSpec, ReduceIsTimesRInverse) {
  const std::uint32_t q = GetParam();
  const auto m = MontgomeryShiftAdd::paper_spec(q);
  const std::uint32_t r_mod_q =
      static_cast<std::uint32_t>(m.R() % q);
  Xoshiro256 rng(q);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng.next_below(m.max_input() + 1);
    const std::uint32_t t = m.reduce_canonical(a);
    // t * R ≡ a (mod q)
    EXPECT_EQ(mul_mod(t, r_mod_q, q), a % q);
    EXPECT_LT(m.reduce(a), 2ull * q);
  }
}

TEST_P(MontgomeryPaperSpec, MontgomeryMultiplication) {
  const std::uint32_t q = GetParam();
  const auto m = MontgomeryShiftAdd::paper_spec(q);
  Xoshiro256 rng(q + 1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(q));
    const auto b = static_cast<std::uint32_t>(rng.next_below(q));
    // One operand lifted to the Montgomery domain -> plain product out.
    EXPECT_EQ(m.mul(a, m.to_mont(b)), mul_mod(a, b, q));
  }
}

TEST_P(MontgomeryPaperSpec, TermsEvaluateToConstants) {
  const auto m = MontgomeryShiftAdd::paper_spec(GetParam());
  EXPECT_EQ(eval_shift_add(1, m.q_terms().data(), m.q_terms().size()), m.q());
  EXPECT_EQ(
      eval_shift_add(1, m.qprime_terms().data(), m.qprime_terms().size()),
      m.q_prime());
}

INSTANTIATE_TEST_SUITE_P(PaperModuli, MontgomeryPaperSpec,
                         ::testing::ValuesIn(kPaperModuli));

TEST(BarrettGeneric, WorksForArbitraryModuli) {
  Xoshiro256 rng(42);
  for (std::uint32_t q : {17u, 97u, 7681u, 12289u, 40961u, 786433u, 8380417u}) {
    const std::uint64_t max_input = 4ull * q;
    const auto b = BarrettShiftAdd::generic(q, max_input);
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t a = rng.next_below(max_input + 1);
      EXPECT_EQ(b.reduce_canonical(a), a % q) << "q=" << q;
      EXPECT_LT(b.reduce(a), 2ull * q);
    }
  }
}

TEST(MontgomeryGeneric, MatchesPaperSpecConstants) {
  // The generic construction must derive the same q' the paper_spec
  // hardcodes (modulo representation).
  for (std::uint32_t q : kPaperModuli) {
    const auto paper = MontgomeryShiftAdd::paper_spec(q);
    const auto gen = MontgomeryShiftAdd::generic(q, paper.r_bits());
    EXPECT_EQ(gen.q_prime(), paper.q_prime()) << "q=" << q;
  }
}

TEST(MontgomeryGeneric, WorksForArbitraryOddModuli) {
  Xoshiro256 rng(43);
  for (std::uint32_t q : {17u, 97u, 40961u, 8380417u}) {
    const unsigned r_bits = bit_length(q) + 2;
    const auto m = MontgomeryShiftAdd::generic(q, r_bits);
    const auto r_mod_q = static_cast<std::uint32_t>(m.R() % q);
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t a = rng.next_below(m.max_input() + 1);
      EXPECT_EQ(mul_mod(m.reduce_canonical(a), r_mod_q, q), a % q);
    }
  }
}

TEST(ShiftAddDecomposition, NafRoundTrip) {
  Xoshiro256 rng(45);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t c = rng.next_bits(40);
    const auto terms = naf_decompose(c);
    EXPECT_EQ(eval_shift_add(1, terms.data(), terms.size()), c);
    // NAF property: no two adjacent non-zero digits.
    for (std::size_t t = 1; t < terms.size(); ++t) {
      EXPECT_GE(terms[t].shift, terms[t - 1].shift + 2);
    }
  }
}

TEST(ShiftAddDecomposition, PaperConstantsAreThreeTerms) {
  // Algorithm 3 realises each constant with three shift-add terms; the
  // corrected constants keep that cost.
  for (std::uint32_t q : kPaperModuli) {
    EXPECT_EQ(BarrettShiftAdd::paper_spec(q).q_terms().size(), 3u);
    EXPECT_EQ(MontgomeryShiftAdd::paper_spec(q).qprime_terms().size(), 3u);
  }
}

}  // namespace
}  // namespace cryptopim::ntt
