// Known-answer regression tests: golden values pinned from a verified
// build. They guard the whole stack against silent cross-platform or
// refactoring drift — any change to root selection, twiddle layout,
// reduction constants, micro-op sequences or the deterministic RNG breaks
// these before it can skew an experiment.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/kem.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "ntt/reduction.h"
#include "runtime/backend.h"
#include "sim/simulator.h"

namespace cryptopim {
namespace {

std::uint64_t fnv1a(const ntt::Poly& p) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto c : p) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Golden {
  std::uint32_t n;
  std::uint32_t psi, omega;
  std::uint64_t forward_fnv, mul_fnv;
  std::uint32_t c0, c_last;
};

// Pinned from the verified build (seed 2020 uniform inputs).
constexpr Golden kGolden[] = {
    {256, 7146, 2028, 0x630030c0e039ec67ull, 0x890ec25de234b26bull, 6814,
     6743},
    {1024, 1945, 10302, 0x379cf8dad2bb1e04ull, 0xf6fa20a709416d71ull, 8052,
     7902},
    {4096, 406601, 427941, 0x751348d5865ab03eull, 0x27d109e39796ad67ull,
     168675, 461591},
};

TEST(Kat, RootSelectionIsStable) {
  // Deterministic generator search: the chosen roots must never change,
  // or every pre-computed table in a deployed system would be invalidated.
  for (const auto& g : kGolden) {
    const auto p = ntt::NttParams::for_degree(g.n);
    EXPECT_EQ(p.psi, g.psi) << "n=" << g.n;
    EXPECT_EQ(p.omega, g.omega) << "n=" << g.n;
  }
}

TEST(Kat, ForwardTransformChecksum) {
  for (const auto& g : kGolden) {
    const auto p = ntt::NttParams::for_degree(g.n);
    const ntt::GsNttEngine eng(p);
    Xoshiro256 rng(2020);
    auto a = ntt::sample_uniform(g.n, p.q, rng);
    (void)ntt::sample_uniform(g.n, p.q, rng);
    eng.forward(a);
    EXPECT_EQ(fnv1a(a), g.forward_fnv) << "n=" << g.n;
  }
}

TEST(Kat, MultiplicationChecksum) {
  for (const auto& g : kGolden) {
    const auto p = ntt::NttParams::for_degree(g.n);
    const ntt::GsNttEngine eng(p);
    Xoshiro256 rng(2020);
    const auto a = ntt::sample_uniform(g.n, p.q, rng);
    const auto b = ntt::sample_uniform(g.n, p.q, rng);
    const auto c = eng.negacyclic_multiply(a, b);
    EXPECT_EQ(fnv1a(c), g.mul_fnv) << "n=" << g.n;
    EXPECT_EQ(c[0], g.c0) << "n=" << g.n;
    EXPECT_EQ(c[g.n - 1], g.c_last) << "n=" << g.n;
  }
}

TEST(Kat, ReductionConstants) {
  // Algorithm-3 constants pinned (typo corrections included).
  EXPECT_EQ(ntt::MontgomeryShiftAdd::paper_spec(7681).q_prime(), 7679u);
  EXPECT_EQ(ntt::MontgomeryShiftAdd::paper_spec(12289).q_prime(), 12287u);
  EXPECT_EQ(ntt::MontgomeryShiftAdd::paper_spec(786433).q_prime(), 786431u);
  EXPECT_EQ(ntt::BarrettShiftAdd::paper_spec(12289).quotient_shift(), 16u);
  EXPECT_EQ(ntt::BarrettShiftAdd::paper_spec(786433).quotient_shift(), 20u);
}

TEST(Kat, SimulatorCycleAndMicroOpCounts) {
  // The accelerator's measured behaviour at n=256: cycles are a model
  // output quoted in EXPERIMENTS.md; micro-op and cell-event counts pin
  // the exact gate sequences (any micro-code change shows up here).
  const auto p = ntt::NttParams::for_degree(256);
  sim::CryptoPimSimulator simu(p);
  Xoshiro256 rng(2020);
  const auto a = ntt::sample_uniform(256, p.q, rng);
  const auto b = ntt::sample_uniform(256, p.q, rng);
  simu.multiply(a, b);
  EXPECT_EQ(simu.report().wall_cycles, 44321u);
  EXPECT_EQ(simu.report().totals.micro_ops, 32780u);
  EXPECT_EQ(simu.report().totals.cell_events, 9206784u);
}

TEST(Kat, KemRoundTripThroughWordBackend) {
  // Full KEM handshake with every ring multiplication on the word-level
  // execution backend, bit-exact against the pure-host reference: same
  // ciphertext, same shared key on both sides.
  const crypto::KemScheme host;
  crypto::Seed ks{}, es{};
  ks.fill(0x20);
  es.fill(0x06);
  const auto [hpk, hsk] = host.keygen(ks);
  const auto [hct, hkey] = host.encapsulate(hpk, es);

  crypto::KemScheme accel;
  const auto backend = runtime::make_backend("word");
  ASSERT_TRUE(backend);
  const crypto::PkeParams& pp = host.pke().params();
  const ntt::NttParams ring = ntt::NttParams::make(pp.n, pp.q);
  accel.pke().set_multiplier(
      [&backend, ring](const ntt::Poly& a, const ntt::Poly& b) {
        return backend->execute(ring, a, b).product;
      });
  const auto [pk, sk] = accel.keygen(ks);
  const auto [ct, key_enc] = accel.encapsulate(pk, es);
  const auto key_dec = accel.decapsulate(sk, ct);
  EXPECT_EQ(ct.u, hct.u);
  EXPECT_EQ(ct.v, hct.v);
  EXPECT_EQ(key_enc, hkey);
  EXPECT_EQ(key_dec, hkey);
  EXPECT_EQ(host.decapsulate(hsk, hct), hkey);
}

TEST(Kat, RngStream) {
  // The deterministic RNG every KAT depends on: reproducible streams,
  // seed-sensitive, and platform-independent (pure 64-bit ops).
  Xoshiro256 fresh(42);
  const auto v1 = fresh.next();
  const auto v2 = fresh.next();
  EXPECT_NE(v1, v2);
  Xoshiro256 again(42);
  EXPECT_EQ(again.next(), v1);
  EXPECT_EQ(again.next(), v2);
  Xoshiro256 other(43);
  EXPECT_NE(other.next(), v1);
}

}  // namespace
}  // namespace cryptopim
