// Tests for the BGV-style homomorphic encryption layer (src/he/bgv.*):
// encryption round trips, homomorphic addition and multiplication (tensor
// + relinearization), noise budget behaviour, and the pluggable-multiplier
// hook the accelerator integration relies on.
#include "he/bgv.h"

#include <gtest/gtest.h>

#include "ntt/modular.h"
#include "ntt/rns.h"
#include "runtime/backend.h"
#include "runtime/protocol_ops.h"
#include "sim/simulator.h"

namespace cryptopim::he {
namespace {

ntt::Poly random_plaintext(std::uint32_t n, std::uint32_t t,
                           Xoshiro256& rng) {
  ntt::Poly m(n);
  for (auto& c : m) c = static_cast<std::uint32_t>(rng.next_below(t));
  return m;
}

TEST(Bgv, EncryptDecryptRoundTrip) {
  BgvContext ctx(BgvParams::paper_small(), 1);
  ctx.keygen();
  Xoshiro256 rng(2);
  for (int rep = 0; rep < 5; ++rep) {
    const auto m = random_plaintext(256, 2, rng);
    EXPECT_EQ(ctx.decrypt(ctx.encrypt(m)), m);
  }
}

TEST(Bgv, LargerPlaintextModulus) {
  BgvParams p;
  p.t = 257;  // additions only at this size
  BgvContext ctx(p, 3);
  ctx.keygen();
  Xoshiro256 rng(4);
  const auto m = random_plaintext(p.n, p.t, rng);
  EXPECT_EQ(ctx.decrypt(ctx.encrypt(m)), m);
}

TEST(Bgv, HomomorphicAddition) {
  BgvContext ctx(BgvParams::paper_small(), 5);
  ctx.keygen();
  Xoshiro256 rng(6);
  const auto a = random_plaintext(256, 2, rng);
  const auto b = random_plaintext(256, 2, rng);
  const auto sum = ctx.add(ctx.encrypt(a), ctx.encrypt(b));
  // (a + b) mod t, coefficient-wise.
  ntt::Poly want(256);
  for (std::size_t i = 0; i < 256; ++i) want[i] = (a[i] + b[i]) % 2;
  EXPECT_EQ(ctx.decrypt(sum), want);
}

TEST(Bgv, ManyAdditionsAccumulate) {
  BgvParams p;
  p.t = 97;
  BgvContext ctx(p, 7);
  ctx.keygen();
  Xoshiro256 rng(8);
  ntt::Poly acc_plain(p.n, 0);
  auto acc = ctx.encrypt(acc_plain);
  for (int k = 0; k < 50; ++k) {
    const auto m = random_plaintext(p.n, p.t, rng);
    for (std::size_t i = 0; i < p.n; ++i) {
      acc_plain[i] = (acc_plain[i] + m[i]) % p.t;
    }
    acc = ctx.add(acc, ctx.encrypt(m));
  }
  EXPECT_EQ(ctx.decrypt(acc), acc_plain);
}

ntt::Poly plain_product(const ntt::Poly& a, const ntt::Poly& b,
                        std::uint32_t t) {
  // Negacyclic product of the plaintexts, mod t.
  const auto wide = ntt::schoolbook_negacyclic(a, b, 786433);
  ntt::Poly out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int64_t c = ntt::centered(wide[i], 786433);
    out[i] = static_cast<std::uint32_t>(((c % t) + t) % t);
  }
  return out;
}

TEST(Bgv, HomomorphicMultiplicationDegree2) {
  BgvContext ctx(BgvParams::paper_small(), 9);
  ctx.keygen();
  Xoshiro256 rng(10);
  const auto a = random_plaintext(256, 2, rng);
  const auto b = random_plaintext(256, 2, rng);
  const auto prod = ctx.multiply(ctx.encrypt(a), ctx.encrypt(b));
  EXPECT_EQ(ctx.decrypt(prod), plain_product(a, b, 2));
}

TEST(Bgv, RelinearizationPreservesProduct) {
  BgvContext ctx(BgvParams::paper_small(), 11);
  ctx.keygen();
  Xoshiro256 rng(12);
  const auto a = random_plaintext(256, 2, rng);
  const auto b = random_plaintext(256, 2, rng);
  const auto relined = ctx.relinearize(ctx.multiply(ctx.encrypt(a),
                                                    ctx.encrypt(b)));
  EXPECT_EQ(ctx.decrypt(relined), plain_product(a, b, 2));
}

TEST(Bgv, MultiplyThenAdd) {
  BgvContext ctx(BgvParams::paper_small(), 13);
  ctx.keygen();
  Xoshiro256 rng(14);
  const auto a = random_plaintext(256, 2, rng);
  const auto b = random_plaintext(256, 2, rng);
  const auto c = random_plaintext(256, 2, rng);
  // a*b + c, one multiplicative level.
  const auto result =
      ctx.add(ctx.relinearize(ctx.multiply(ctx.encrypt(a), ctx.encrypt(b))),
              ctx.encrypt(c));
  ntt::Poly want = plain_product(a, b, 2);
  for (std::size_t i = 0; i < want.size(); ++i) {
    want[i] = (want[i] + c[i]) % 2;
  }
  EXPECT_EQ(ctx.decrypt(result), want);
}

TEST(Bgv, NoiseBudgetShrinksWithOperations) {
  BgvContext ctx(BgvParams::paper_small(), 15);
  ctx.keygen();
  Xoshiro256 rng(16);
  const auto a = random_plaintext(256, 2, rng);
  const auto b = random_plaintext(256, 2, rng);
  const auto ca = ctx.encrypt(a);
  const double fresh = ctx.noise_budget_bits(ca);
  EXPECT_GT(fresh, 8.0);  // comfortable margin at these parameters
  const auto prod = ctx.relinearize(ctx.multiply(ca, ctx.encrypt(b)));
  const double after = ctx.noise_budget_bits(prod);
  EXPECT_LT(after, fresh);
  EXPECT_GT(after, 0.0);  // still decryptable
}

TEST(Bgv, MultiplicationsAreCounted) {
  BgvContext ctx(BgvParams::paper_small(), 17);
  ctx.keygen();
  const auto after_keygen = ctx.multiplications();
  EXPECT_GT(after_keygen, 0u);  // s^2 and the relin key
  Xoshiro256 rng(18);
  const auto a = random_plaintext(256, 2, rng);
  (void)ctx.encrypt(a);
  EXPECT_EQ(ctx.multiplications(), after_keygen + 1);  // a*s
}

TEST(Bgv, PluggableMultiplierIsUsed) {
  BgvContext ctx(BgvParams::paper_small(), 19);
  std::uint64_t hook_calls = 0;
  const ntt::GsNttEngine eng(ctx.ring());
  ctx.set_multiplier([&](const ntt::Poly& x, const ntt::Poly& y) {
    ++hook_calls;
    return eng.negacyclic_multiply(x, y);
  });
  ctx.keygen();
  Xoshiro256 rng(20);
  const auto m = random_plaintext(256, 2, rng);
  EXPECT_EQ(ctx.decrypt(ctx.encrypt(m)), m);
  EXPECT_EQ(hook_calls, ctx.multiplications());
}

TEST(Bgv, RunsOnSimulatedCryptoPim) {
  // The full HE flow with every ring multiplication in simulated
  // crossbars.
  BgvContext ctx(BgvParams::paper_small(), 21);
  sim::CryptoPimSimulator simu(ctx.ring());
  ctx.set_multiplier([&simu](const ntt::Poly& x, const ntt::Poly& y) {
    return simu.multiply(x, y);
  });
  ctx.keygen();
  Xoshiro256 rng(22);
  const auto a = random_plaintext(256, 2, rng);
  const auto b = random_plaintext(256, 2, rng);
  const auto prod = ctx.relinearize(ctx.multiply(ctx.encrypt(a),
                                                 ctx.encrypt(b)));
  EXPECT_EQ(ctx.decrypt(prod), plain_product(a, b, 2));
}

TEST(Bgv, RnsLimbMultiplyMatchesEngineBitExact) {
  // The per-RNS-limb multiply the protocol serving path fans across
  // lanes: decompose mod each small prime, one word-backend NTT multiply
  // per limb, CRT reconstruct — must equal the direct engine product.
  const BgvParams params = BgvParams::paper_small();
  const ntt::GsNttEngine eng(ntt::NttParams::make(params.n, params.q));
  const auto backend = runtime::make_backend("word");
  ASSERT_TRUE(backend);
  const ntt::RnsBasis& basis = runtime::bgv_rns_basis();
  Xoshiro256 rng(31);
  for (int rep = 0; rep < 4; ++rep) {
    ntt::Poly a(params.n), b(params.n);
    for (auto& c : a) c = static_cast<std::uint32_t>(rng.next_below(params.q));
    for (auto& c : b) c = static_cast<std::uint32_t>(rng.next_below(params.q));
    EXPECT_EQ(runtime::rns_limb_multiply(*backend, basis, params.q, a, b),
              eng.negacyclic_multiply(a, b));
  }
}

TEST(Bgv, MultiplyThroughWordBackendMatchesHostBitExact) {
  // The BGV tensor multiply with every ring multiplication through the
  // RNS limb fan-out on the word backend, against a same-seed pure-host
  // context: identical keys and randomness, so d0/d1/d2 must match bit
  // for bit and the product must decrypt to the plaintext product.
  const BgvParams params = BgvParams::paper_small();
  Xoshiro256 rng(33);
  const auto ma = random_plaintext(params.n, params.t, rng);
  const auto mb = random_plaintext(params.n, params.t, rng);

  BgvContext accel(params, 34);
  accel.keygen();
  const Ciphertext ca = accel.encrypt(ma);
  const Ciphertext cb = accel.encrypt(mb);
  const auto backend = runtime::make_backend("word");
  ASSERT_TRUE(backend);
  const ntt::RnsBasis& basis = runtime::bgv_rns_basis();
  const std::uint32_t q = params.q;
  accel.set_multiplier(
      [&backend, &basis, q](const ntt::Poly& x, const ntt::Poly& y) {
        return runtime::rns_limb_multiply(*backend, basis, q, x, y);
      });
  const Ciphertext2 prod = accel.multiply(ca, cb);

  BgvContext hostctx(params, 34);
  hostctx.keygen();
  const Ciphertext hca = hostctx.encrypt(ma);
  const Ciphertext hcb = hostctx.encrypt(mb);
  const Ciphertext2 hprod = hostctx.multiply(hca, hcb);
  EXPECT_EQ(prod.d0, hprod.d0);
  EXPECT_EQ(prod.d1, hprod.d1);
  EXPECT_EQ(prod.d2, hprod.d2);
  EXPECT_EQ(accel.decrypt(prod), plain_product(ma, mb, params.t));
}

TEST(Bgv, ThresholdSharesRecombineToTheJointDecryption) {
  // K-party threshold decryption by linearity: partial decryptions of
  // each share sum to the joint-secret decryption, for any K in range.
  const BgvParams params = BgvParams::paper_small();
  for (unsigned k : {2u, 3u, 7u}) {
    BgvContext ctx(params, 40 + k);
    const std::vector<ntt::Poly> shares = ctx.keygen_threshold(k);
    ASSERT_EQ(shares.size(), k);
    Xoshiro256 rng(50 + k);
    const auto m = random_plaintext(params.n, params.t, rng);
    const Ciphertext ct = ctx.encrypt(m);
    std::vector<ntt::Poly> partials;
    for (const auto& s : shares) {
      partials.push_back(ctx.partial_decryption(ct, s));
    }
    EXPECT_EQ(ctx.aggregate_decrypt(ct, partials), m);
    EXPECT_EQ(ctx.decrypt(ct), m);
  }
}

TEST(Bgv, InvalidParametersThrow) {
  BgvParams bad;
  bad.t = 786433;  // not coprime to q
  EXPECT_THROW(BgvContext(bad, 1), std::invalid_argument);
  BgvParams bad_base;
  bad_base.relin_base = 1;
  EXPECT_THROW(BgvContext(bad_base, 1), std::invalid_argument);
}

}  // namespace
}  // namespace cryptopim::he
