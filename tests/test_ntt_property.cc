// Algebraic property tests of the NTT stack: transform linearity, the
// shift (monomial) theorem, multiplicative structure of the ring, and
// cross-engine consistency — each property over randomized inputs and
// multiple parameter sets.
#include <gtest/gtest.h>

#include <ostream>

#include "common/bitutil.h"
#include "common/rng.h"
#include "ntt/modular.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "ntt/word_ntt.h"

namespace cryptopim::ntt {
namespace {

class NttAlgebra : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    params_ = NttParams::for_degree(GetParam());
    engine_ = std::make_unique<GsNttEngine>(params_);
    rng_ = std::make_unique<Xoshiro256>(GetParam() * 7 + 1);
  }
  Poly random_poly() { return sample_uniform(params_.n, params_.q, *rng_); }

  NttParams params_;
  std::unique_ptr<GsNttEngine> engine_;
  std::unique_ptr<Xoshiro256> rng_;
};

TEST_P(NttAlgebra, ForwardIsLinear) {
  const auto a = random_poly();
  const auto b = random_poly();
  const std::uint32_t k = static_cast<std::uint32_t>(rng_->next_below(params_.q));

  // NTT(a + k*b) == NTT(a) + k*NTT(b)
  Poly akb(params_.n);
  for (std::size_t i = 0; i < params_.n; ++i) {
    akb[i] = add_mod(a[i], mul_mod(k, b[i], params_.q), params_.q);
  }
  auto lhs = akb;
  engine_->forward(lhs);

  auto fa = a;
  auto fb = b;
  engine_->forward(fa);
  engine_->forward(fb);
  for (std::size_t i = 0; i < params_.n; ++i) {
    ASSERT_EQ(lhs[i],
              add_mod(fa[i], mul_mod(k, fb[i], params_.q), params_.q));
  }
}

TEST_P(NttAlgebra, MonomialShiftTheorem) {
  // a(x) * x^k rotates coefficients with a sign flip on wrap-around.
  const auto a = random_poly();
  const std::uint32_t k =
      static_cast<std::uint32_t>(rng_->next_below(params_.n - 1)) + 1;
  Poly xk(params_.n, 0);
  xk[k] = 1;
  const auto rotated = engine_->negacyclic_multiply(a, xk);
  for (std::size_t i = 0; i < params_.n; ++i) {
    const std::size_t src = (i + params_.n - k) % params_.n;
    const bool wrapped = i < k;
    const std::uint32_t expect =
        wrapped ? sub_mod(0, a[src], params_.q) : a[src];
    ASSERT_EQ(rotated[i], expect) << "i=" << i << " k=" << k;
  }
}

TEST_P(NttAlgebra, MultiplicationCommutes) {
  const auto a = random_poly();
  const auto b = random_poly();
  EXPECT_EQ(engine_->negacyclic_multiply(a, b),
            engine_->negacyclic_multiply(b, a));
}

TEST_P(NttAlgebra, MultiplicationAssociates) {
  const auto a = random_poly();
  const auto b = random_poly();
  const auto c = random_poly();
  EXPECT_EQ(
      engine_->negacyclic_multiply(engine_->negacyclic_multiply(a, b), c),
      engine_->negacyclic_multiply(a, engine_->negacyclic_multiply(b, c)));
}

TEST_P(NttAlgebra, ScalarsFactorOut) {
  const auto a = random_poly();
  const auto b = random_poly();
  const std::uint32_t k =
      static_cast<std::uint32_t>(rng_->next_below(params_.q - 1)) + 1;
  Poly ka(params_.n);
  for (std::size_t i = 0; i < params_.n; ++i) {
    ka[i] = mul_mod(k, a[i], params_.q);
  }
  const auto lhs = engine_->negacyclic_multiply(ka, b);
  auto rhs = engine_->negacyclic_multiply(a, b);
  for (auto& c : rhs) c = mul_mod(k, c, params_.q);
  EXPECT_EQ(lhs, rhs);
}

TEST_P(NttAlgebra, ForwardOfDeltaIsPsiTwist) {
  // NTT(delta_0) = (1,1,...,1) up to the psi pre-twist: delta_0 scaled by
  // psi^0 = 1, so the spectrum is all ones.
  Poly delta(params_.n, 0);
  delta[0] = 1;
  engine_->forward(delta);
  for (const auto v : delta) ASSERT_EQ(v, 1u);
}

TEST_P(NttAlgebra, PointwiseSquareMatchesSelfMultiply) {
  const auto a = random_poly();
  auto fa = a;
  engine_->forward(fa);
  for (auto& v : fa) v = mul_mod(v, v, params_.q);
  engine_->inverse(fa);
  EXPECT_EQ(fa, engine_->negacyclic_multiply(a, a));
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttAlgebra,
                         ::testing::Values(16u, 256u, 512u, 2048u));

// ---------------------------------------------------------------------------
// Lazy-reduction invariants of the word-level engine
// ---------------------------------------------------------------------------
// The WordNttEngine keeps intermediates in the redundant [0, 2q) range
// through the whole transform and normalizes exactly once at the end.
// These properties pin the contract: no intermediate ever escapes 2q,
// the final normalize is canonical, and the lazy round trip is the
// identity (n^{-1} is folded into the inverse's last stage, so
// forward ∘ inverse == id exactly, no residual scale factor). They run on
// the paper moduli and on 30-bit primes, whose [0, 4q) butterfly
// intermediates reach just below the 32-bit wrap.

struct WordCase {
  std::uint32_t n;
  std::uint32_t q;
};

/// Prints the degree, plus q unless it is the paper modulus; ctest names
/// each case by this value.
void PrintTo(const WordCase& c, std::ostream* os) {
  *os << c.n;
  if (c.q != paper_modulus_for_degree(c.n)) *os << "_q" << c.q;
}

class WordLazy : public ::testing::TestWithParam<WordCase> {
 protected:
  void SetUp() override {
    params_ = NttParams::make(GetParam().n, GetParam().q);
    word_ = std::make_unique<WordNttEngine>(params_);
    gs_ = std::make_unique<GsNttEngine>(params_);
    rng_ = std::make_unique<Xoshiro256>(GetParam().n * 31 + 7);
  }
  Poly random_poly() { return sample_uniform(params_.n, params_.q, *rng_); }

  /// Probe asserting the partial-domain invariant at every phase.
  WordNttEngine::StageProbe bound_probe(const char* where) {
    return [this, where](std::span<const std::uint32_t> a) {
      for (const auto v : a) {
        ASSERT_LT(v, word_->two_q()) << where << ": intermediate escaped 2q";
      }
    };
  }

  NttParams params_;
  std::unique_ptr<WordNttEngine> word_;
  std::unique_ptr<GsNttEngine> gs_;
  std::unique_ptr<Xoshiro256> rng_;
};

TEST_P(WordLazy, EveryIntermediateStaysBelowTwoQ) {
  for (int round = 0; round < 10; ++round) {
    auto a = random_poly();
    auto b = random_poly();
    word_->forward_lazy(a, bound_probe("forward"));
    word_->forward_lazy(b, bound_probe("forward"));
    word_->pointwise_lazy(a, b);
    for (const auto v : a) ASSERT_LT(v, word_->two_q()) << "pointwise";
    word_->inverse_lazy(a, bound_probe("inverse"));
  }
}

TEST_P(WordLazy, IntermediatesStayBoundedFromPartialDomainInputs) {
  // Both transforms must hold the invariant when fed the extreme of the
  // redundant representation (all coefficients 2q-1).
  Poly a(params_.n, word_->two_q() - 1);
  word_->forward_lazy(a, bound_probe("forward[2q-1]"));
  Poly b(params_.n, word_->two_q() - 1);
  word_->inverse_lazy(b, bound_probe("inverse[2q-1]"));
}

TEST_P(WordLazy, FinalNormalizeLandsCanonical) {
  for (int round = 0; round < 10; ++round) {
    auto a = random_poly();
    word_->forward_lazy(a);
    word_->inverse_lazy(a);
    word_->normalize(a);
    for (const auto v : a) ASSERT_LT(v, params_.q);
  }
  // The normalize pass itself: 2q-1 -> q-1, q -> 0, q-1 unchanged.
  Poly edge = {word_->two_q() - 1, params_.q, params_.q - 1, 0};
  word_->normalize(edge);
  EXPECT_EQ(edge, (Poly{params_.q - 1, 0, params_.q - 1, 0}));
}

TEST_P(WordLazy, ForwardInverseRoundTripIsIdentity) {
  // NTT ∘ INTT == identity; the n^{-1} scaling of the raw transform pair
  // is already folded into the inverse, so the round trip is exact.
  const auto orig = random_poly();
  auto a = orig;
  word_->forward_lazy(a);
  word_->inverse_lazy(a);
  word_->normalize(a);
  EXPECT_EQ(a, orig);
}

TEST_P(WordLazy, LazyForwardMatchesCanonicalEngine) {
  // The merged forward transform emits the spectrum in bit-reversed
  // order: normalized output i is GsNttEngine::forward's entry brv(i).
  auto a = random_poly();
  auto ref = a;
  word_->forward_lazy(a);
  word_->normalize(a);
  gs_->forward(ref);
  for (std::size_t i = 0; i < params_.n; ++i) {
    ASSERT_EQ(a[i], ref[bit_reverse(i, params_.log2n)]) << "i=" << i;
  }
}

TEST_P(WordLazy, NegacyclicProductMatchesCanonicalEngine) {
  const auto a = random_poly();
  const auto b = random_poly();
  EXPECT_EQ(word_->negacyclic_multiply(a, b), gs_->negacyclic_multiply(a, b));
}

// The three paper moduli across their degree ranges (including the 32-bit
// datapath points), plus the largest NTT-friendly primes below 2^30
// (RnsBasis::generate(n, 1, 30)) at n = 4, 1024 and 4096.
INSTANTIATE_TEST_SUITE_P(
    Degrees, WordLazy,
    ::testing::Values(WordCase{16, 7681}, WordCase{256, 7681},
                      WordCase{512, 12289}, WordCase{1024, 12289},
                      WordCase{2048, 786433}, WordCase{8192, 786433},
                      WordCase{4, 1073741689}, WordCase{1024, 1073707009},
                      WordCase{4096, 1073692673}));

// ---------------------------------------------------------------------------
// Sampler distributions
// ---------------------------------------------------------------------------

TEST(Samplers, UniformCoversRange) {
  Xoshiro256 rng(5);
  const auto p = sample_uniform(4096, 7681, rng);
  std::uint32_t lo = 7681, hi = 0;
  for (const auto c : p) {
    ASSERT_LT(c, 7681u);
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_LT(lo, 100u);    // both tails hit with overwhelming probability
  EXPECT_GT(hi, 7580u);
}

TEST(Samplers, CbdIsCenteredAndBounded) {
  Xoshiro256 rng(6);
  const unsigned eta = 3;
  const auto p = sample_cbd(8192, 12289, eta, rng);
  std::int64_t sum = 0;
  for (const auto c : p) {
    const auto v = centered(c, 12289);
    ASSERT_LE(std::llabs(v), static_cast<std::int64_t>(eta));
    sum += v;
  }
  // Mean ~0 with std ~ sqrt(n * eta/2): |sum| < 5 sigma.
  EXPECT_LT(std::llabs(sum), 5 * 110);
}

TEST(Samplers, TernaryValues) {
  Xoshiro256 rng(7);
  const auto p = sample_ternary(4096, 786433, rng);
  std::size_t counts[3] = {0, 0, 0};
  for (const auto c : p) {
    const auto v = centered(c, 786433);
    ASSERT_LE(std::llabs(v), 1);
    ++counts[v + 1];
  }
  // Roughly balanced thirds.
  for (const auto n : counts) {
    EXPECT_GT(n, 4096u / 3 - 200);
    EXPECT_LT(n, 4096u / 3 + 200);
  }
}

TEST(Centered, Bounds) {
  EXPECT_EQ(centered(0, 7681), 0);
  EXPECT_EQ(centered(1, 7681), 1);
  EXPECT_EQ(centered(7680, 7681), -1);
  EXPECT_EQ(centered(3840, 7681), 3840);   // q/2 floor stays positive
  EXPECT_EQ(centered(3841, 7681), -3840);  // first negative representative
}

}  // namespace
}  // namespace cryptopim::ntt
