// End-to-end tests of the functional CryptoPIM simulator (src/sim/*):
// full polynomial multiplications executed in simulated crossbars must be
// bit-exact against the software NTT engine (itself verified against a
// schoolbook oracle), across degrees, moduli and bank configurations.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "model/performance.h"
#include "ntt/poly.h"

namespace cryptopim::sim {
namespace {

class SimDegrees : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SimDegrees, MatchesSoftwareNtt) {
  const std::uint32_t n = GetParam();
  const auto p = ntt::NttParams::for_degree(n);
  CryptoPimSimulator simu(p);
  ntt::GsNttEngine eng(p);
  Xoshiro256 rng(n + 1);
  const auto a = ntt::sample_uniform(n, p.q, rng);
  const auto b = ntt::sample_uniform(n, p.q, rng);
  EXPECT_EQ(simu.multiply(a, b), eng.negacyclic_multiply(a, b));
}

INSTANTIATE_TEST_SUITE_P(UpTo4k, SimDegrees,
                         ::testing::Values(16u, 64u, 256u, 512u, 1024u, 2048u,
                                           4096u));

TEST(Sim, MatchesSchoolbookOracle) {
  const auto p = ntt::NttParams::for_degree(256);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(99);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  EXPECT_EQ(simu.multiply(a, b), ntt::schoolbook_negacyclic(a, b, p.q));
}

TEST(Sim, MultiBankDegree8k) {
  // 16 banks, butterfly strides crossing bank boundaries.
  const auto p = ntt::NttParams::for_degree(8192);
  CryptoPimSimulator simu(p);
  ntt::GsNttEngine eng(p);
  Xoshiro256 rng(7);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  EXPECT_EQ(simu.multiply(a, b), eng.negacyclic_multiply(a, b));
}

TEST(Sim, RingIdentities) {
  const auto p = ntt::NttParams::for_degree(512);
  CryptoPimSimulator simu(p);
  // x^{n-1} * x = -1.
  ntt::Poly a(p.n, 0), b(p.n, 0);
  a[p.n - 1] = 1;
  b[1] = 1;
  const auto c = simu.multiply(a, b);
  EXPECT_EQ(c[0], p.q - 1);
  for (std::size_t i = 1; i < c.size(); ++i) ASSERT_EQ(c[i], 0u);
  // Multiplication by the unit polynomial.
  Xoshiro256 rng(3);
  const auto r = ntt::sample_uniform(p.n, p.q, rng);
  ntt::Poly one(p.n, 0);
  one[0] = 1;
  EXPECT_EQ(simu.multiply(r, one), r);
  // Zero annihilates.
  const ntt::Poly zero(p.n, 0);
  EXPECT_EQ(simu.multiply(r, zero), zero);
}

TEST(Sim, StageCountMatchesStructure) {
  // psi-scale (x2 polys) + 2*log2n butterflies (x2 until pointwise ...):
  // total accumulated stage programs = 2 + 2*log2n + 1 + log2n + 1.
  const auto p = ntt::NttParams::for_degree(256);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(5);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  simu.multiply(a, b);
  EXPECT_EQ(simu.report().stages, 2u + 2 * 8 + 1 + 8 + 1);
}

TEST(Sim, WallCyclesWithinModelBand) {
  // The functional simulation executes real (trimmed) micro-code; its
  // critical path must land near the analytic non-pipelined model built
  // from the paper's formulas.
  for (const std::uint32_t n : {256u, 1024u}) {
    const auto p = ntt::NttParams::for_degree(n);
    CryptoPimSimulator simu(p);
    Xoshiro256 rng(n);
    const auto a = ntt::sample_uniform(n, p.q, rng);
    const auto b = ntt::sample_uniform(n, p.q, rng);
    simu.multiply(a, b);
    const auto np = model::cryptopim_non_pipelined(n);
    const double ratio =
        simu.report().latency_us / np.latency_us;
    EXPECT_GT(ratio, 0.6) << "n=" << n;
    EXPECT_LT(ratio, 1.4) << "n=" << n;
  }
}

TEST(Sim, EnergyScalesWithDegree) {
  double prev = 0;
  for (const std::uint32_t n : {256u, 512u, 1024u}) {
    const auto p = ntt::NttParams::for_degree(n);
    CryptoPimSimulator simu(p);
    Xoshiro256 rng(n);
    const auto a = ntt::sample_uniform(n, p.q, rng);
    const auto b = ntt::sample_uniform(n, p.q, rng);
    simu.multiply(a, b);
    EXPECT_GT(simu.report().energy_uj, prev);
    prev = simu.report().energy_uj;
  }
}

TEST(Sim, ReportIsResetBetweenRuns) {
  const auto p = ntt::NttParams::for_degree(64);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(1);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  simu.multiply(a, b);
  const auto first = simu.report().wall_cycles;
  simu.multiply(a, b);
  EXPECT_EQ(simu.report().wall_cycles, first);  // deterministic, not summed
}

TEST(Sim, CommutativityUnderDomainAsymmetry) {
  // A flows plain, B flows in the Montgomery domain — the product must
  // still be symmetric.
  const auto p = ntt::NttParams::for_degree(256);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(17);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  EXPECT_EQ(simu.multiply(a, b), simu.multiply(b, a));
}

SimReport report_of_random_multiply(std::uint32_t n, Xoshiro256& rng) {
  const auto p = ntt::NttParams::for_degree(n);
  CryptoPimSimulator simu(p);
  const auto a = ntt::sample_uniform(n, p.q, rng);
  const auto b = ntt::sample_uniform(n, p.q, rng);
  simu.multiply(a, b);
  return simu.report();
}

std::uint64_t slowest_stage(const SimReport& rep) {
  return *std::max_element(rep.stage_cycles.begin(), rep.stage_cycles.end());
}

TEST(Sim, StageTraceIsDataIndependent) {
  // The controller broadcasts fixed stage programs, so the per-stage
  // cycle trace cannot depend on the operands. Lock-step pipelining rests
  // on this: one product per slowest-stage beat after a depth x beat
  // fill, the law model::lane_timing schedules lanes by.
  const auto p = ntt::NttParams::for_degree(256);
  CryptoPimSimulator simu(p);
  Xoshiro256 rng(2);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 4; ++i) {
    const auto a = ntt::sample_uniform(p.n, p.q, rng);
    const auto b = ntt::sample_uniform(p.n, p.q, rng);
    simu.multiply(a, b);
    if (i == 0) {
      first = simu.report().stage_cycles;
      ASSERT_FALSE(first.empty());
    } else {
      EXPECT_EQ(simu.report().stage_cycles, first) << "pair " << i;
    }
  }
}

// The Pipelined suite checks the pipelined design's timing law on the one
// simulator's stage trace: a lock-step pipeline's beat is the slowest
// stage and its depth is the number of stages on the wall path.

TEST(Pipelined, ThroughputWithinBandOfAnalyticModel) {
  // The functional stage programs (width-trimmed, q-width datapath) put
  // the pipelined beat within 2.5x of the paper-formula model's.
  Xoshiro256 rng(5);
  const SimReport rep = report_of_random_multiply(512, rng);
  const auto model_beat = model::cryptopim_pipelined(512).slowest_stage_cycles;
  const double ratio = static_cast<double>(model_beat) /
                       static_cast<double>(slowest_stage(rep));
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.5);
}

TEST(Pipelined, ThroughputBeatsNonPipelinedByLargeFactor) {
  // Fig. 5's pipelining gain: one traversal takes more than ten beats, so
  // a full pipeline delivers over ten times the non-pipelined rate.
  Xoshiro256 rng(3);
  const SimReport rep = report_of_random_multiply(256, rng);
  EXPECT_GT(rep.wall_cycles, 10 * slowest_stage(rep));
}

TEST(Pipelined, DepthMatchesNonPipelinedStageTrace) {
  // The pipeline's depth is the wall path: psi, 10 forward levels,
  // pointwise, 10 inverse levels, psi-inverse at n = 1024.
  Xoshiro256 rng(6);
  EXPECT_EQ(report_of_random_multiply(1024, rng).stage_cycles.size(), 23u);
}

TEST(Sim, StageCyclesSumToWallCycles) {
  // SimReport invariant across moduli and degrees: the per-stage ledger
  // accounts for every wall cycle, with names parallel to the cycles.
  // (q = 7681 only supports n <= 256: 7680 = 2^9 * 15 has no 2048th
  // root, so that combination must be rejected at construction.)
  for (const std::uint32_t q : {7681u, 12289u, 786433u}) {
    for (const std::uint32_t n : {256u, 1024u}) {
      if ((q - 1) % (2 * n) != 0) {
        EXPECT_THROW(ntt::NttParams::make(n, q), std::invalid_argument)
            << "n=" << n << " q=" << q;
        continue;
      }
      const auto p = ntt::NttParams::make(n, q);
      CryptoPimSimulator simu(p);
      Xoshiro256 rng(n ^ q);
      const auto a = ntt::sample_uniform(n, q, rng);
      const auto b = ntt::sample_uniform(n, q, rng);
      simu.multiply(a, b);
      const auto& rep = simu.report();
      ASSERT_FALSE(rep.stage_cycles.empty());
      ASSERT_EQ(rep.stage_names.size(), rep.stage_cycles.size());
      std::uint64_t sum = 0;
      for (const auto c : rep.stage_cycles) sum += c;
      EXPECT_EQ(sum, rep.wall_cycles) << "n=" << n << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace cryptopim::sim
