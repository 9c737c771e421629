// Cross-backend differential harness: the proof that the host-speed
// word-level tier can stand in for the gate-level crossbar simulator.
//
// Every case materialises one (n, q, a, b) instance and executes it on
// both `runtime::ExecutionBackend` tiers, asserting
//  * bit-exact coefficient equality: word == gate (and both == the
//    schoolbook-backed GsNttEngine oracle),
//  * cycle-model agreement: the word tier's attached accounting is
//    exactly the analytic model's (`analytic_accounting`),
//  * the gate tier's pinned cycle counts survive the backend refactor.
//
// The randomized sweep covers every supported (n, q) pair (paper
// parameterisations plus small custom-modulus sets), adversarial corner
// inputs (all-zero, all q-1, impulses, alternating extremes, 2q-1
// pre-normalize in the word engine's partial domain) and the crossbar
// simulator under fault injection — over 1,000 differential cases under
// one pinned seed.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "ntt/word_ntt.h"
#include "reliability/manager.h"
#include "runtime/backend.h"
#include "runtime/serving.h"
#include "sim/simulator.h"

namespace cp = cryptopim;
using cp::Xoshiro256;
using cp::ntt::NttParams;
using cp::ntt::Poly;
using cp::runtime::analytic_accounting;
using cp::runtime::BackendResult;

namespace {

constexpr std::uint64_t kDiffSeed = 20260809;  // pinned: the whole sweep

/// Every (n, q) pair the differential sweep executes on the gate tier:
/// the three paper moduli (the shift-add reduction circuits are
/// modulus-specific) crossed with degrees from the boundary n = 4 up
/// through the 16-bit paper points. Small degrees keep the crossbar
/// simulation cheap enough for a thousand-case sweep; the paper design
/// points anchor the real parameterisations.
const std::vector<std::pair<std::uint32_t, std::uint32_t>>& gate_pairs() {
  static const std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs = {
      {4, 7681},    {8, 7681},    {16, 7681},    {32, 7681},
      {64, 7681},   {128, 7681},  {256, 7681},   {16, 12289},
      {64, 12289},  {256, 12289}, {512, 12289},  {1024, 12289},
      {16, 786433}, {64, 786433},  // the 32-bit datapath
  };
  return pairs;
}

/// Adversarial corner operands for one parameter set: extremes of the
/// canonical domain and degree-boundary impulses.
std::vector<Poly> corner_inputs(const NttParams& p) {
  const std::uint32_t n = p.n;
  const std::uint32_t top = p.q - 1;
  std::vector<Poly> ins;
  ins.push_back(Poly(n, 0));                       // all zero
  ins.push_back(Poly(n, top));                     // all q-1
  Poly delta0(n, 0);
  delta0[0] = 1;
  ins.push_back(delta0);                           // x^0 impulse
  Poly deltaTop(n, 0);
  deltaTop[n - 1] = top;
  ins.push_back(deltaTop);                         // (q-1) x^{n-1}
  Poly alt(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) alt[i] = (i % 2) ? top : 0;
  ins.push_back(alt);                              // alternating extremes
  return ins;
}

class BackendDiff : public ::testing::Test {
 protected:
  /// Executes one case on both tiers and checks the differential
  /// invariants. Returns how many gate-vs-word comparisons it counted.
  void check_case(const NttParams& params, const Poly& a, const Poly& b) {
    const BackendResult gate = gate_.execute(params, a, b);
    const BackendResult word = word_.execute(params, a, b);

    // Bit-exact functional equality vs the golden tier.
    ASSERT_EQ(word.product, gate.product)
        << "word/gate divergence at n=" << params.n << " q=" << params.q;
    // ... and vs the software oracle, closing the triangle.
    const cp::ntt::GsNttEngine oracle(params);
    ASSERT_EQ(word.product, oracle.negacyclic_multiply(a, b));

    // The word tier's accounting is the analytic model's, exactly.
    EXPECT_EQ(word.sim_cycles, analytic_accounting(params.n).sim_cycles);
    EXPECT_GT(word.sim_cycles, 0u);
    ++cases_;
  }

  cp::runtime::GateLevelBackend gate_;
  cp::runtime::WordLevelBackend word_;
  std::size_t cases_ = 0;
};

TEST_F(BackendDiff, RandomizedSweepIsBitExactAcrossAllSupportedPairs) {
  Xoshiro256 rng(kDiffSeed);
  for (const auto& [n, q] : gate_pairs()) {
    const NttParams params = NttParams::make(n, q);
    // Weight the sweep toward the cheap small-degree sets so the total
    // crosses 1,000 gate executions in seconds, while every pair —
    // including the 512/1024 paper points — gets randomized coverage.
    const std::size_t reps = q == 786433 ? 20 : n <= 128 ? 130 : n <= 256 ? 30 : 4;
    for (std::size_t r = 0; r < reps; ++r) {
      const Poly a = cp::ntt::sample_uniform(n, q, rng);
      const Poly b = cp::ntt::sample_uniform(n, q, rng);
      check_case(params, a, b);
    }
  }
  // The acceptance bar: >= 1,000 randomized differential cases.
  EXPECT_GE(cases_, 1000u);
}

TEST_F(BackendDiff, AdversarialCornersMatchOnEveryPair) {
  Xoshiro256 rng(kDiffSeed ^ 0xC0);
  for (const auto& [n, q] : gate_pairs()) {
    const NttParams params = NttParams::make(n, q);
    const auto corners = corner_inputs(params);
    for (const Poly& a : corners) {
      // Corner x corner and corner x random.
      check_case(params, a, corners[(&a - corners.data() + 1) % corners.size()]);
      check_case(params, a, cp::ntt::sample_uniform(n, q, rng));
    }
  }
  EXPECT_GE(cases_, 2 * 5 * gate_pairs().size());
}

TEST_F(BackendDiff, FaultInjectedGateExecutionStillMatchesWord) {
  // The crossbar simulator with the reliability stack attached: faults
  // planted, write-verify, Freivalds, retry. Recovery must reproduce the
  // exact same coefficients the fault-free word tier computes.
  cp::reliability::ReliabilityConfig rc;
  rc.fault.stuck_rate = 1e-5;
  rc.fault.seed = 42;

  Xoshiro256 rng(kDiffSeed ^ 0xFA);
  std::uint64_t planted = 0;
  for (const std::uint32_t n : {64u, 256u}) {
    const NttParams params = NttParams::for_degree(n);
    cp::reliability::ReliabilityManager manager(rc, params);
    cp::sim::CryptoPimSimulator gate(params);
    gate.set_reliability(&manager);
    for (int r = 0; r < 8; ++r) {
      const Poly a = cp::ntt::sample_uniform(n, params.q, rng);
      const Poly b = cp::ntt::sample_uniform(n, params.q, rng);
      const Poly product = gate.multiply(a, b);
      const BackendResult word = word_.execute(params, a, b);
      ASSERT_EQ(word.product, product) << "faulty gate diverged, n=" << n;
      EXPECT_TRUE(gate.report().reliability.verified);
      planted += gate.report().reliability.faults_planted;
    }
  }
  EXPECT_GT(planted, 0u);  // the faults were really there
}

TEST_F(BackendDiff, PinnedGateCycleCountsSurviveTheRefactor) {
  // The same wall-cycle figures test_kat/test_reliability pin on the
  // raw simulator, now observed through the backend interface: the
  // refactor wraps, it must not change.
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> pinned = {
      {256, 44321}, {512, 54716}, {1024, 60096}};
  Xoshiro256 rng(kDiffSeed ^ 0xCC);
  for (const auto& [n, cycles] : pinned) {
    const NttParams params = NttParams::for_degree(n);
    const Poly a = cp::ntt::sample_uniform(n, params.q, rng);
    const Poly b = cp::ntt::sample_uniform(n, params.q, rng);
    const BackendResult gate = gate_.execute(params, a, b);
    EXPECT_EQ(gate.sim_cycles, cycles) << "n=" << n;
  }
}

TEST_F(BackendDiff, WordMatchesOracleAtEveryPaperDegree) {
  // The large paper degrees are impractical on the gate tier inside a
  // unit test; the word tier must still match the software oracle (which
  // the gate tier is itself validated against in test_sim/test_kat).
  Xoshiro256 rng(kDiffSeed ^ 0xB1);
  for (const std::uint32_t n : cp::ntt::paper_degrees()) {
    const NttParams params = NttParams::for_degree(n);
    const cp::ntt::GsNttEngine oracle(params);
    const Poly a = cp::ntt::sample_uniform(n, params.q, rng);
    const Poly b = cp::ntt::sample_uniform(n, params.q, rng);
    const BackendResult word = word_.execute(params, a, b);
    ASSERT_EQ(word.product, oracle.negacyclic_multiply(a, b)) << "n=" << n;
    EXPECT_EQ(word.sim_cycles, analytic_accounting(n).sim_cycles)
        << "n=" << n;
  }
}

TEST(BackendFactory, NamesRoundTripAndUnknownIsRejected) {
  namespace rt = cp::runtime;
  ASSERT_EQ(rt::backend_names(), (std::vector<std::string>{"gate", "word"}));
  const auto gate = rt::make_backend("gate");
  const auto word = rt::make_backend("word");
  EXPECT_NE(dynamic_cast<rt::GateLevelBackend*>(gate.get()), nullptr);
  EXPECT_NE(dynamic_cast<rt::WordLevelBackend*>(word.get()), nullptr);
  EXPECT_EQ(cp::runtime::make_backend("analytic"), nullptr);
  EXPECT_EQ(cp::runtime::make_backend("quantum"), nullptr);
  EXPECT_EQ(cp::runtime::make_backend(""), nullptr);
}

TEST(BackendDiffWordDomain, PartialDomainInputsCanonicalizeIdentically) {
  // The word engine accepts the redundant [0, 2q) representation: a
  // coefficient of x and of x + q (e.g. 2q-1 vs q-1 pre-normalize) must
  // produce the same canonical product.
  const NttParams params = NttParams::make(128, 7681);
  cp::ntt::WordNttEngine eng(params);
  Xoshiro256 rng(kDiffSeed ^ 0x2F);
  for (int r = 0; r < 50; ++r) {
    Poly canon = cp::ntt::sample_uniform(128, 7681, rng);
    Poly partial = canon;
    for (auto& x : partial) {
      if (rng.next() % 2) x += params.q;  // lift into [q, 2q)
    }
    partial[0] = 2 * params.q - 1;  // force the 2q-1 extreme
    canon[0] = params.q - 1;
    const Poly b = cp::ntt::sample_uniform(128, 7681, rng);
    EXPECT_EQ(eng.negacyclic_multiply(partial, b),
              eng.negacyclic_multiply(canon, b));
  }
}

// -- serving invariants under every backend -----------------------------------

cp::runtime::ServingConfig small_serving(const std::string& backend) {
  cp::runtime::ServingConfig cfg;
  cfg.backend = backend;
  cfg.arrival_rate_per_s = 20000.0;
  cfg.duration_us = 300.0;
  cfg.workload.mix = {{256, 1.0}};
  cfg.workload.tenants = 3;
  cfg.workload.seed = 11;
  cfg.workload.verify_every = 4;
  return cfg;
}

TEST(BackendServing, InvariantsHoldUnderEveryBackend) {
  for (const auto& backend : cp::runtime::backend_names()) {
    cp::runtime::ServingRuntime rt(small_serving(backend));
    const auto rep = rt.run();
    SCOPED_TRACE(backend);

    // serving/3 schema with backend provenance.
    const auto j = rep.to_json();
    EXPECT_EQ(j.at("schema").as_string(), "serving/3");
    EXPECT_EQ(j.at("backend").as_string(), backend);

    // Work conservation after drain.
    EXPECT_EQ(rep.submitted,
              rep.admitted + rep.rejected + rep.rejected_unservable);
    EXPECT_EQ(rep.admitted, rep.completed + rep.queued);
    EXPECT_EQ(rep.in_flight, 0u);

    // Sigma tenant == global, field by field.
    std::uint64_t t_sub = 0, t_adm = 0, t_comp = 0;
    for (const auto& [id, ts] : rep.tenants) {
      t_sub += ts.submitted;
      t_adm += ts.admitted;
      t_comp += ts.completed;
    }
    EXPECT_EQ(t_sub, rep.submitted);
    EXPECT_EQ(t_adm, rep.admitted);
    EXPECT_EQ(t_comp, rep.completed);

    EXPECT_EQ(rep.verify_failures, 0u);
    EXPECT_GT(rep.verified, 0u);
  }
}

}  // namespace
