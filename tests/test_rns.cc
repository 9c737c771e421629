// Tests for the RNS/CRT layer (src/ntt/rns.*): basis generation, CRT
// round trips, and negacyclic multiplication mod a multi-limb Q verified
// against a 128-bit schoolbook oracle.
#include "ntt/rns.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ntt/modular.h"

namespace cryptopim::ntt {
namespace {

std::vector<U128> random_wide(std::uint32_t n, U128 bound, Xoshiro256& rng) {
  std::vector<U128> v(n);
  for (auto& x : v) {
    const U128 r = (static_cast<U128>(rng.next()) << 64) | rng.next();
    x = r % bound;
  }
  return v;
}

// Ground truth: negacyclic schoolbook with 128-bit coefficients mod Q.
std::vector<U128> schoolbook_wide(std::span<const U128> a,
                                  std::span<const U128> b, U128 q) {
  const std::size_t n = a.size();
  std::vector<U128> c(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const U128 prod = mulmod_u128(a[i], b[j], q);
      const std::size_t k = i + j;
      if (k < n) {
        c[k] = c[k] + prod;
        if (c[k] >= q) c[k] -= q;
      } else {
        c[k - n] = c[k - n] >= prod ? c[k - n] - prod : c[k - n] + q - prod;
      }
    }
  }
  return c;
}

TEST(MulModU128, MatchesNativeForSmallOperands) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng.next_bits(30);
    const std::uint64_t b = rng.next_bits(30);
    const std::uint64_t m = rng.next_bits(31) | 1u;
    EXPECT_EQ(static_cast<std::uint64_t>(mulmod_u128(a, b, m)),
              (a * b) % m);
  }
}

TEST(MulModU128, WideOperands) {
  // (2^100) * (2^20) mod (2^120 + 1) == 2^120 mod (2^120+1) == 2^120.
  const U128 m = (U128{1} << 120) + 1;
  EXPECT_EQ(mulmod_u128(U128{1} << 100, U128{1} << 20, m), U128{1} << 120);
  // a * (m-1) mod m == m - a.
  const U128 a = 123456789;
  EXPECT_EQ(mulmod_u128(a, m - 1, m), m - a);
}

TEST(RnsBasis, GeneratesDistinctNttFriendlyPrimes) {
  const auto basis = RnsBasis::generate(1024, 4, 20);
  ASSERT_EQ(basis.size(), 4u);
  U128 product = 1;
  for (std::size_t i = 0; i < basis.size(); ++i) {
    const std::uint32_t q = basis.prime(i);
    EXPECT_TRUE(is_prime(q));
    EXPECT_EQ((q - 1) % (2 * 1024), 0u) << q;
    EXPECT_LT(q, 1u << 20);
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(q, basis.prime(j));
    product *= q;
  }
  EXPECT_EQ(basis.modulus(), product);
}

TEST(RnsBasis, ErrorsOnBadRequests) {
  EXPECT_THROW(RnsBasis::generate(1024, 0), std::invalid_argument);
  EXPECT_THROW(RnsBasis::generate(1024, 4, 40), std::invalid_argument);
  // Too few 12-bit primes ≡ 1 mod 2048.
  EXPECT_THROW(RnsBasis::generate(1024, 8, 12), std::runtime_error);
}

TEST(RnsBasis, CrtRoundTrip) {
  const auto basis = RnsBasis::generate(256, 5, 20);
  Xoshiro256 rng(7);
  const auto coeffs = random_wide(256, basis.modulus(), rng);
  const auto rns = basis.decompose(coeffs);
  EXPECT_EQ(basis.reconstruct(rns), coeffs);
}

TEST(RnsBasis, ReconstructionIsCanonical) {
  const auto basis = RnsBasis::generate(64, 3, 18);
  Xoshiro256 rng(8);
  const auto coeffs = random_wide(64, basis.modulus(), rng);
  for (const auto c : basis.reconstruct(basis.decompose(coeffs))) {
    EXPECT_LT(c, basis.modulus());
  }
}

TEST(RnsMultiply, MatchesWideSchoolbook) {
  const auto basis = RnsBasis::generate(64, 3, 20);
  Xoshiro256 rng(9);
  const auto a = random_wide(64, basis.modulus(), rng);
  const auto b = random_wide(64, basis.modulus(), rng);
  const auto prod = basis.multiply(basis.decompose(a), basis.decompose(b));
  EXPECT_EQ(basis.reconstruct(prod),
            schoolbook_wide(a, b, basis.modulus()));
}

TEST(RnsMultiply, SingleLimbDegeneratesToPlainNtt) {
  const auto basis = RnsBasis::generate(256, 1, 20);
  const auto p = NttParams::make(256, basis.prime(0));
  GsNttEngine eng(p);
  Xoshiro256 rng(10);
  const auto a = sample_uniform(256, p.q, rng);
  const auto b = sample_uniform(256, p.q, rng);
  std::vector<U128> wa(a.begin(), a.end()), wb(b.begin(), b.end());
  const auto prod = basis.multiply(basis.decompose(wa), basis.decompose(wb));
  const auto expect = eng.negacyclic_multiply(a, b);
  ASSERT_EQ(prod.residues.size(), 1u);
  EXPECT_EQ(prod.residues[0], expect);
}

TEST(RnsMultiply, RingIdentity) {
  // x^{n-1} * x = -1 must survive the CRT round trip.
  const auto basis = RnsBasis::generate(128, 2, 20);
  std::vector<U128> a(128, 0), b(128, 0);
  a[127] = 1;
  b[1] = 1;
  const auto got = basis.reconstruct(
      basis.multiply(basis.decompose(a), basis.decompose(b)));
  EXPECT_EQ(got[0], basis.modulus() - 1);
  for (std::size_t i = 1; i < 128; ++i) EXPECT_EQ(got[i], U128{0});
}

}  // namespace
}  // namespace cryptopim::ntt
