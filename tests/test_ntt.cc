// Tests for the Gentleman–Sande NTT engine (src/ntt/ntt.*): the Algorithm 2
// schedule, the forward/inverse round trip, the convolution theorem against
// a schoolbook oracle, and the classic DIF/DIT cross-checks.
#include "ntt/ntt.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "ntt/modular.h"
#include "ntt/params.h"
#include "ntt/poly.h"

namespace cryptopim::ntt {
namespace {

// Direct O(n^2) DFT over Z_q: X_k = sum_i x_i w^{ik}.
std::vector<std::uint32_t> dft_direct(std::span<const std::uint32_t> x,
                                      std::uint32_t omega, std::uint32_t q) {
  const std::size_t n = x.size();
  std::vector<std::uint32_t> out(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc = add_mod(acc, mul_mod(x[i], pow_mod(omega, i * k, q), q), q);
    }
    out[k] = acc;
  }
  return out;
}

TEST(BitrevPermute, SmallVector) {
  std::vector<std::uint32_t> v{0, 1, 2, 3, 4, 5, 6, 7};
  bitrev_permute(v);
  EXPECT_EQ(v, (std::vector<std::uint32_t>{0, 4, 2, 6, 1, 5, 3, 7}));
  bitrev_permute(v);  // involution
  EXPECT_EQ(v, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(GsNtt, Algorithm2MatchesDirectDFT) {
  // transform_gs on bit-reversed input must equal the plain DFT in normal
  // order, for several small degrees.
  for (std::uint32_t n : {4u, 8u, 16u, 64u, 256u}) {
    const auto p = NttParams::make(n, 7681);
    GsNttEngine eng(p);
    Xoshiro256 rng(n);
    auto x = sample_uniform(n, p.q, rng);
    const auto expected = dft_direct(x, p.omega, p.q);

    auto a = x;
    bitrev_permute(a);
    eng.transform_gs(a, eng.forward_twiddles());
    EXPECT_EQ(a, expected) << "n=" << n;
  }
}

TEST(GsNtt, MatchesClassicDif) {
  // Algorithm 2 must be the bit-reversal conjugate of the classic DIF.
  const auto p = NttParams::make(128, 7681);
  GsNttEngine eng(p);
  Xoshiro256 rng(7);
  const auto x = sample_uniform(p.n, p.q, rng);

  auto via_gs = x;
  bitrev_permute(via_gs);
  eng.transform_gs(via_gs, eng.forward_twiddles());

  auto via_dif = x;
  ntt_dif_classic(via_dif, p.omega, p.q);
  bitrev_permute(via_dif);  // DIF emits bit-reversed order

  EXPECT_EQ(via_gs, via_dif);
}

TEST(GsNtt, DitClassicInvertsDif) {
  const auto p = NttParams::make(64, 7681);
  Xoshiro256 rng(9);
  const auto x = sample_uniform(p.n, p.q, rng);

  auto a = x;
  ntt_dif_classic(a, p.omega, p.q);        // bitrev order
  ntt_dit_classic(a, p.omega_inv, p.q);    // back to normal order, scaled n
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], mul_mod(x[i], p.n % p.q, p.q));
  }
}

class NttRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(NttRoundTrip, InverseOfForwardIsIdentity) {
  const std::uint32_t n = GetParam();
  const auto p = NttParams::for_degree(n);
  GsNttEngine eng(p);
  Xoshiro256 rng(n + 17);
  const auto x = sample_uniform(n, p.q, rng);
  auto a = x;
  eng.forward(a);
  eng.inverse(a);
  EXPECT_EQ(a, x) << "n=" << n;
}

TEST_P(NttRoundTrip, ForwardChangesInput) {
  const std::uint32_t n = GetParam();
  const auto p = NttParams::for_degree(n);
  GsNttEngine eng(p);
  Xoshiro256 rng(n + 29);
  auto a = sample_uniform(n, p.q, rng);
  const auto x = a;
  eng.forward(a);
  EXPECT_NE(a, x);
}

INSTANTIATE_TEST_SUITE_P(PaperAndSmallDegrees, NttRoundTrip,
                         ::testing::Values(4u, 16u, 64u, 256u, 512u, 1024u,
                                           2048u, 4096u));

class NegacyclicMultiply : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(NegacyclicMultiply, MatchesSchoolbook) {
  const std::uint32_t n = GetParam();
  const auto p = NttParams::for_degree(n);
  GsNttEngine eng(p);
  Xoshiro256 rng(n + 43);
  const auto a = sample_uniform(n, p.q, rng);
  const auto b = sample_uniform(n, p.q, rng);
  EXPECT_EQ(eng.negacyclic_multiply(a, b), schoolbook_negacyclic(a, b, p.q))
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(PaperDegreesUpTo2k, NegacyclicMultiply,
                         ::testing::Values(8u, 32u, 256u, 512u, 1024u, 2048u));

TEST(NegacyclicMultiply, NegacyclicWrapSign) {
  // (x^{n-1}) * x = x^n = -1 in the ring.
  const auto p = NttParams::for_degree(256);
  GsNttEngine eng(p);
  Poly a(p.n, 0), b(p.n, 0);
  a[p.n - 1] = 1;
  b[1] = 1;
  const auto c = eng.negacyclic_multiply(a, b);
  EXPECT_EQ(c[0], p.q - 1);  // -1 mod q
  for (std::size_t i = 1; i < c.size(); ++i) EXPECT_EQ(c[i], 0u);
}

TEST(NegacyclicMultiply, MultiplicationByOne) {
  const auto p = NttParams::for_degree(512);
  GsNttEngine eng(p);
  Xoshiro256 rng(5);
  const auto a = sample_uniform(p.n, p.q, rng);
  Poly one(p.n, 0);
  one[0] = 1;
  EXPECT_EQ(eng.negacyclic_multiply(a, one), a);
}

TEST(NegacyclicMultiply, Distributivity) {
  // (a + b) * c == a*c + b*c — property over random inputs.
  const auto p = NttParams::for_degree(256);
  GsNttEngine eng(p);
  Xoshiro256 rng(11);
  for (int rep = 0; rep < 5; ++rep) {
    const auto a = sample_uniform(p.n, p.q, rng);
    const auto b = sample_uniform(p.n, p.q, rng);
    const auto c = sample_uniform(p.n, p.q, rng);
    const auto lhs = eng.negacyclic_multiply(poly_add(a, b, p.q), c);
    const auto rhs = poly_add(eng.negacyclic_multiply(a, c),
                              eng.negacyclic_multiply(b, c), p.q);
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(NegacyclicMultiply, LargeDegree32k) {
  // The headline HE-scale degree; verified against a ternary-input
  // schoolbook shortcut is too slow, so we check ring identities instead:
  // x^k * x^m = x^{k+m} with negacyclic wrap.
  const auto p = NttParams::for_degree(32768);
  GsNttEngine eng(p);
  Poly a(p.n, 0), b(p.n, 0);
  a[20000] = 3;
  b[20000] = 5;
  const auto c = eng.negacyclic_multiply(a, b);
  // x^40000 = x^{40000-32768} * (-1) = -x^7232
  EXPECT_EQ(c[7232], p.q - 15);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i != 7232) {
      ASSERT_EQ(c[i], 0u) << i;
    }
  }
}

TEST(NttParams, PaperModuli) {
  EXPECT_EQ(paper_modulus_for_degree(256), 7681u);
  EXPECT_EQ(paper_modulus_for_degree(512), 12289u);
  EXPECT_EQ(paper_modulus_for_degree(1024), 12289u);
  EXPECT_EQ(paper_modulus_for_degree(2048), 786433u);
  EXPECT_EQ(paper_modulus_for_degree(32768), 786433u);
  EXPECT_EQ(paper_bitwidth_for_degree(1024), 16u);
  EXPECT_EQ(paper_bitwidth_for_degree(2048), 32u);
}

TEST(NttParams, InvalidParametersThrow) {
  EXPECT_THROW(NttParams::make(100, 7681), std::invalid_argument);  // not pow2
  EXPECT_THROW(NttParams::make(256, 7680), std::invalid_argument);  // not prime
  EXPECT_THROW(NttParams::make(512, 7681), std::invalid_argument);  // no root
}

TEST(NttParams, RejectsModulusAtOrAbove2To30) {
  // From 2^30 the word engine's lazy [0, 4q) butterflies wrap 32 bits,
  // and from 2^31 add_mod / sub_mod wrap too, so make() refuses such a
  // modulus rather than let the engines compute wrong products.
  EXPECT_THROW(NttParams::make(4, 1073741833u),  // first above 2^30
               std::invalid_argument);
  EXPECT_THROW(NttParams::make(4, 3221225473u), std::invalid_argument);
  // The largest NTT-friendly prime below 2^30 for n = 4 is accepted.
  EXPECT_EQ(NttParams::make(4, 1073741689u).q, 1073741689u);
}

TEST(NttParams, RootProperties) {
  for (std::uint32_t n : paper_degrees()) {
    const auto p = NttParams::for_degree(n);
    EXPECT_EQ(pow_mod(p.psi, 2 * n, p.q), 1u);
    EXPECT_EQ(pow_mod(p.psi, n, p.q), p.q - 1);  // psi^n = -1
    EXPECT_EQ(mul_mod(p.psi, p.psi_inv, p.q), 1u);
    EXPECT_EQ(mul_mod(p.omega, p.omega_inv, p.q), 1u);
    EXPECT_EQ(mul_mod(static_cast<std::uint32_t>(n % p.q), p.n_inv, p.q), 1u);
  }
}

}  // namespace
}  // namespace cryptopim::ntt
