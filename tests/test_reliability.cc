// Reliability layer: fault model determinism, Freivalds verification,
// program-verify detection, retry/remap recovery, chip degradation, and
// campaign reproducibility.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arch/chip.h"
#include "common/rng.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "reliability/campaign.h"
#include "reliability/fault_model.h"
#include "reliability/manager.h"
#include "reliability/verifier.h"
#include "sim/simulator.h"

namespace cryptopim::reliability {
namespace {

ntt::Poly random_poly(std::uint32_t n, std::uint32_t q, Xoshiro256& rng) {
  ntt::Poly p(n);
  for (auto& c : p) c = static_cast<std::uint32_t>(rng.next_below(q));
  return p;
}

// ---------------------------------------------------------------------------
// FaultModel

TEST(FaultModel, StuckFaultsAreAPureFunctionOfSeedAndBlock) {
  FaultConfig cfg;
  cfg.stuck_rate = 1e-4;
  cfg.seed = 99;
  FaultModel m1(cfg), m2(cfg);
  for (std::uint32_t id : {0u, 1u, 63u, 64u, 1000u}) {
    const auto f1 = m1.faults_for_block(id);
    const auto f2 = m2.faults_for_block(id);
    ASSERT_EQ(f1.size(), f2.size());
    for (std::size_t i = 0; i < f1.size(); ++i) {
      EXPECT_EQ(f1[i].col, f2[i].col);
      EXPECT_EQ(f1[i].row, f2[i].row);
      EXPECT_EQ(f1[i].value, f2[i].value);
    }
    // Repeated queries of the same model agree too (no hidden state).
    const auto f3 = m1.faults_for_block(id);
    EXPECT_EQ(f1.size(), f3.size());
  }
}

TEST(FaultModel, DifferentSeedsDifferentFaults) {
  FaultConfig a, b;
  a.stuck_rate = b.stuck_rate = 1e-4;
  a.seed = 1;
  b.seed = 2;
  FaultModel ma(a), mb(b);
  // With ~26 expected faults per block, identical placements across 8
  // blocks would be astronomically unlikely.
  bool any_diff = false;
  for (std::uint32_t id = 0; id < 8 && !any_diff; ++id) {
    const auto fa = ma.faults_for_block(id);
    const auto fb = mb.faults_for_block(id);
    if (fa.size() != fb.size()) {
      any_diff = true;
      break;
    }
    for (std::size_t i = 0; i < fa.size(); ++i) {
      if (fa[i].col != fb[i].col || fa[i].row != fb[i].row) any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultModel, PoissonCountTracksRate) {
  FaultConfig cfg;
  cfg.stuck_rate = 1e-4;  // expect ~26.2 faults per 512x512 block
  cfg.seed = 5;
  FaultModel m(cfg);
  std::uint64_t total = 0;
  const unsigned kBlocks = 64;
  for (std::uint32_t id = 0; id < kBlocks; ++id) {
    total += m.faults_for_block(id).size();
  }
  const double mean = static_cast<double>(total) / kBlocks;
  EXPECT_GT(mean, 26.2 * 0.7);
  EXPECT_LT(mean, 26.2 * 1.3);
}

TEST(FaultModel, ZeroRateIsFaultFree) {
  FaultModel m(FaultConfig{});
  for (std::uint32_t id = 0; id < 16; ++id) {
    EXPECT_TRUE(m.faults_for_block(id).empty());
  }
  EXPECT_FALSE(m.transient_flip());  // rate 0 never flips
}

TEST(FaultModel, WearOutGrowsAStuckFault) {
  FaultConfig cfg;
  cfg.endurance_limit = 10;
  FaultModel m(cfg);
  EXPECT_TRUE(m.faults_for_block(3).empty());
  bool crossed = false;
  for (int i = 0; i < 10; ++i) crossed = m.note_wear(3, 7) || crossed;
  EXPECT_TRUE(crossed);
  const auto faults = m.faults_for_block(3);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].col, 7u);
  // Further wear on the same column does not duplicate the fault.
  m.note_wear(3, 7, 100);
  EXPECT_EQ(m.faults_for_block(3).size(), 1u);
}

TEST(FaultModel, TargetedFaultsStack) {
  FaultModel m(FaultConfig{});
  m.add_stuck_at(2, 11, 5, true);
  m.add_stuck_at(2, 12, 6, false);
  EXPECT_EQ(m.faults_for_block(2).size(), 2u);
  EXPECT_TRUE(m.faults_for_block(1).empty());
}

// ---------------------------------------------------------------------------
// ResultVerifier (Freivalds)

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : params_(ntt::NttParams::for_degree(256)), engine_(params_) {}
  ntt::NttParams params_;
  ntt::GsNttEngine engine_;
};

TEST_F(VerifierTest, AcceptsCorrectProducts) {
  ResultVerifier v(params_, VerifyConfig{2, 7});
  Xoshiro256 rng(3);
  for (int i = 0; i < 20; ++i) {
    const auto a = random_poly(params_.n, params_.q, rng);
    const auto b = random_poly(params_.n, params_.q, rng);
    const auto c = engine_.negacyclic_multiply(a, b);
    EXPECT_TRUE(v.check(a, b, c));
  }
  EXPECT_EQ(v.failures(), 0u);
  EXPECT_EQ(v.checks(), 20u);
}

TEST_F(VerifierTest, CatchesSingleCoefficientCorruption) {
  // e = eps * x^k never vanishes at a root of x^n + 1 (roots are nonzero),
  // so one corrupted coefficient is caught by every evaluation point.
  ResultVerifier v(params_, VerifyConfig{1, 11});
  Xoshiro256 rng(4);
  for (int i = 0; i < 20; ++i) {
    const auto a = random_poly(params_.n, params_.q, rng);
    const auto b = random_poly(params_.n, params_.q, rng);
    auto c = engine_.negacyclic_multiply(a, b);
    const auto k = static_cast<std::size_t>(rng.next_below(params_.n));
    c[k] = (c[k] + 1 + static_cast<std::uint32_t>(
                            rng.next_below(params_.q - 1))) % params_.q;
    EXPECT_FALSE(v.check(a, b, c)) << "corruption at x^" << k << " escaped";
  }
}

TEST_F(VerifierTest, CatchesDenseCorruption) {
  ResultVerifier v(params_, VerifyConfig{2, 13});
  Xoshiro256 rng(5);
  for (int i = 0; i < 20; ++i) {
    const auto a = random_poly(params_.n, params_.q, rng);
    const auto b = random_poly(params_.n, params_.q, rng);
    const auto c = random_poly(params_.n, params_.q, rng);  // garbage
    EXPECT_FALSE(v.check(a, b, c));
  }
}

TEST_F(VerifierTest, HornerEvalMatchesDirectSum) {
  // p(x) = 3 + 2x + x^2 at x = 10 mod q.
  const ntt::Poly p = {3, 2, 1};
  EXPECT_EQ(ResultVerifier::eval(p, 10, params_.q), (3 + 20 + 100) % params_.q);
  EXPECT_EQ(ResultVerifier::eval(ntt::Poly{}, 10, params_.q), 0u);
}

TEST_F(VerifierTest, CycleCostScalesWithPointsAndStaysUnderTenPercent) {
  ResultVerifier v1(params_, VerifyConfig{1, 1});
  ResultVerifier v2(params_, VerifyConfig{2, 1});
  EXPECT_EQ(v2.cycles_per_check(), 2 * v1.cycles_per_check());

  // Acceptance bound: t = 2 verification under 10% of fault-free wall
  // cycles, at both the small and the large paper degree.
  for (const std::uint32_t n : {256u, 1024u}) {
    const auto params = ntt::NttParams::for_degree(n);
    sim::CryptoPimSimulator simu(params);
    Xoshiro256 rng(9);
    const auto a = random_poly(n, params.q, rng);
    const auto b = random_poly(n, params.q, rng);
    simu.multiply(a, b);
    const auto wall = simu.report().wall_cycles;
    ResultVerifier v(params, VerifyConfig{2, 1});
    EXPECT_LT(v.cycles_per_check() * 10, wall)
        << "verify overhead >= 10% at n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Simulator integration: detection, recovery, zero-cost-when-off

class SimRecoveryTest : public ::testing::Test {
 protected:
  SimRecoveryTest()
      : params_(ntt::NttParams::for_degree(256)), engine_(params_) {}

  ntt::Poly multiply_checked(sim::CryptoPimSimulator& simu,
                             std::uint64_t input_seed) {
    Xoshiro256 rng(input_seed);
    a_ = random_poly(params_.n, params_.q, rng);
    b_ = random_poly(params_.n, params_.q, rng);
    want_ = engine_.negacyclic_multiply(a_, b_);
    return simu.multiply(a_, b_);
  }

  ntt::NttParams params_;
  ntt::GsNttEngine engine_;
  ntt::Poly a_, b_, want_;
};

TEST_F(SimRecoveryTest, NoManagerMeansLegacyCyclesAndEmptyLedger) {
  sim::CryptoPimSimulator simu(params_);
  const auto got = multiply_checked(simu, 7);
  EXPECT_EQ(got, want_);
  // Pinned: the reliability layer must not perturb the fault-free
  // cycle model. This is the pre-reliability wall_cycles value for
  // n = 256, q = 7681.
  EXPECT_EQ(simu.report().wall_cycles, 44321u);
  EXPECT_FALSE(simu.report().reliability.enabled);
  EXPECT_EQ(simu.report().reliability.overhead_cycles(), 0u);
}

TEST(SimBaseline, WallCyclesPinnedAcrossDegreesWithoutManager) {
  // Pre-reliability wall_cycles for the other paper degrees the fault
  // campaign sweeps: the rel_ == nullptr path must stay exactly legacy.
  const struct {
    std::uint32_t n;
    std::uint64_t wall;
  } pins[] = {{512, 54716}, {1024, 60096}};
  for (const auto& pin : pins) {
    const auto params = ntt::NttParams::for_degree(pin.n);
    sim::CryptoPimSimulator simu(params);
    Xoshiro256 rng(1);
    const auto a = random_poly(pin.n, params.q, rng);
    const auto b = random_poly(pin.n, params.q, rng);
    simu.multiply(a, b);
    EXPECT_EQ(simu.report().wall_cycles, pin.wall) << "n=" << pin.n;
  }
}

TEST_F(SimRecoveryTest, FaultFreeManagerVerifiesFirstAttempt) {
  ReliabilityConfig rc;
  rc.verify.points = 2;
  ReliabilityManager rm(rc, params_);
  sim::CryptoPimSimulator simu(params_);
  simu.set_reliability(&rm);
  const auto got = multiply_checked(simu, 7);
  EXPECT_EQ(got, want_);
  const auto& s = simu.report().reliability;
  EXPECT_TRUE(s.enabled);
  EXPECT_TRUE(s.verified);
  EXPECT_EQ(s.attempts, 1u);
  EXPECT_EQ(s.faults_planted, 0u);
  EXPECT_EQ(s.verify_checks, 1u);
  EXPECT_EQ(s.verify_failures, 0u);
  EXPECT_EQ(s.repair_cycles, 0u);
  EXPECT_EQ(s.retry_cycles, 0u);
  // Overhead is the verify cost alone, and under the 10% bound.
  EXPECT_EQ(s.overhead_cycles(), s.verify_cycles);
  EXPECT_LT(s.verify_cycles * 10, simu.report().wall_cycles);
}

TEST_F(SimRecoveryTest, StuckFaultDetectedRemappedAndCorrected) {
  ReliabilityConfig rc;
  rc.verify.points = 2;
  ReliabilityManager rm(rc, params_);
  // Stage-2 block of bank 0 (first butterfly stage), data column 11,
  // row 5: corrupts the computation, must be caught and remapped.
  rm.fault_model().add_stuck_at(2, 11, 5, true);
  sim::CryptoPimSimulator simu(params_);
  simu.set_reliability(&rm);
  const auto got = multiply_checked(simu, 7);
  EXPECT_EQ(got, want_);
  const auto& s = simu.report().reliability;
  EXPECT_TRUE(s.verified);
  EXPECT_EQ(s.attempts, 2u);  // one dirty attempt, one clean retry
  EXPECT_GT(s.parity_mismatches + s.write_verify_failures, 0u);
  EXPECT_GE(s.columns_remapped, 1u);
  EXPECT_EQ(s.banks_remapped, 0u);
  EXPECT_GT(s.retry_cycles, 0u);   // the abandoned attempt's wall time
  EXPECT_GT(s.repair_cycles, 0u);  // BIST + remap
}

TEST_F(SimRecoveryTest, RemapsPersistAcrossRuns) {
  ReliabilityConfig rc;
  rc.verify.points = 2;
  ReliabilityManager rm(rc, params_);
  rm.fault_model().add_stuck_at(2, 11, 5, true);
  sim::CryptoPimSimulator simu(params_);
  simu.set_reliability(&rm);
  EXPECT_EQ(multiply_checked(simu, 7), want_);
  EXPECT_EQ(simu.report().reliability.attempts, 2u);
  // Second multiply: the column mux is already programmed around the
  // stuck cell, so the first attempt is clean.
  EXPECT_EQ(multiply_checked(simu, 8), want_);
  EXPECT_EQ(simu.report().reliability.attempts, 1u);
  EXPECT_EQ(simu.report().reliability.columns_remapped, 0u);
}

TEST_F(SimRecoveryTest, SpareExhaustionThrowsUnrecoverable) {
  ReliabilityConfig rc;
  rc.verify.points = 2;
  rc.spare_cols_per_block = 2;
  rc.spare_banks = 0;
  ReliabilityManager rm(rc, params_);
  // More faulty data columns in one block than the block has spares; with
  // no spare banks the superbank is lost.
  for (pim::Col col : {pim::Col{8}, pim::Col{9}, pim::Col{10}, pim::Col{11}}) {
    rm.fault_model().add_stuck_at(2, col, 5, true);
    rm.fault_model().add_stuck_at(2, col, 6, false);
  }
  sim::CryptoPimSimulator simu(params_);
  simu.set_reliability(&rm);
  EXPECT_THROW(multiply_checked(simu, 7), UnrecoverableFault);
  EXPECT_FALSE(simu.report().reliability.verified);
  EXPECT_GE(simu.report().reliability.banks_remapped, 1u);
}

TEST_F(SimRecoveryTest, BankFailoverRecoversWhenChipSparesRemain) {
  ReliabilityConfig rc;
  rc.verify.points = 2;
  rc.spare_cols_per_block = 2;
  rc.spare_banks = 2;
  ReliabilityManager rm(rc, params_);
  for (pim::Col col : {pim::Col{8}, pim::Col{9}, pim::Col{10}, pim::Col{11}}) {
    rm.fault_model().add_stuck_at(2, col, 5, true);
    rm.fault_model().add_stuck_at(2, col, 6, false);
  }
  sim::CryptoPimSimulator simu(params_);
  simu.set_reliability(&rm);
  const auto got = multiply_checked(simu, 7);
  EXPECT_EQ(got, want_);
  const auto& s = simu.report().reliability;
  EXPECT_TRUE(s.verified);
  EXPECT_GE(s.banks_remapped, 1u);
  EXPECT_EQ(rm.spare_banks_left(), 1u);
  EXPECT_EQ(rm.failed_banks(), 1u);
}

TEST_F(SimRecoveryTest, TransientFlipsClearOnRetryWithoutRemap) {
  ReliabilityConfig rc;
  rc.verify.points = 2;
  // This (rate, seed) pair deterministically flips one in-flight bit on
  // the first attempt; the retry draws fresh randomness and comes back
  // clean — the transient recovery path, no hardware repair involved.
  rc.fault.transient_rate = 5e-6;
  rc.fault.seed = 8;
  ReliabilityManager rm(rc, params_);
  sim::CryptoPimSimulator simu(params_);
  simu.set_reliability(&rm);
  const auto got = multiply_checked(simu, 7);
  EXPECT_EQ(got, want_);
  const auto& s = simu.report().reliability;
  EXPECT_TRUE(s.verified);
  EXPECT_EQ(s.attempts, 2u);
  EXPECT_GT(s.transient_flips, 0u);
  // Transients are not endurance failures: nothing to remap.
  EXPECT_EQ(s.columns_remapped, 0u);
  EXPECT_EQ(s.banks_remapped, 0u);
}

// ---------------------------------------------------------------------------
// Chip-level degradation

TEST(ChipDegradation, SparesCoverFailuresUntilExhausted) {
  const auto chip = arch::ChipConfig::paper_chip();
  const auto healthy = chip.plan_for_degree(1024);
  // Failures within the spare pool: same superbank count, flagged used.
  const auto covered = chip.plan_for_degree(1024, chip.spare_banks);
  EXPECT_EQ(covered.superbanks, healthy.superbanks);
  EXPECT_EQ(covered.spares_used, chip.spare_banks);
  EXPECT_FALSE(covered.degraded);
  // One more failure than spares: capacity degrades.
  const auto degraded = chip.plan_for_degree(1024, chip.spare_banks + 1);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_LE(degraded.superbanks, healthy.superbanks);
}

TEST(ChipDegradation, OneArgOverloadIsZeroFailures) {
  const auto chip = arch::ChipConfig::paper_chip();
  const auto a = chip.plan_for_degree(4096);
  const auto b = chip.plan_for_degree(4096, 0);
  EXPECT_EQ(a.superbanks, b.superbanks);
  EXPECT_EQ(b.failed_banks, 0u);
  EXPECT_FALSE(b.degraded);
}

TEST(ChipDegradation, ThrowsWhenNoSuperbankCanForm) {
  const auto chip = arch::ChipConfig::paper_chip();
  EXPECT_THROW(chip.plan_for_degree(1024, 100000), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Campaign

TEST(FaultCampaign, BitReproducibleAndZeroEscapes) {
  CampaignConfig cfg;
  cfg.stuck_rates = {0.0, 1e-5};
  cfg.trials_per_rate = 2;
  cfg.seed = 42;
  const auto r1 = run_fault_campaign(cfg);
  const auto r2 = run_fault_campaign(cfg);
  ASSERT_EQ(r1.cells.size(), r2.cells.size());
  for (std::size_t i = 0; i < r1.cells.size(); ++i) {
    EXPECT_EQ(r1.cells[i].injected, r2.cells[i].injected);
    EXPECT_EQ(r1.cells[i].clean, r2.cells[i].clean);
    EXPECT_EQ(r1.cells[i].recovered, r2.cells[i].recovered);
    EXPECT_EQ(r1.cells[i].attempts, r2.cells[i].attempts);
    EXPECT_EQ(r1.cells[i].wall_cycles, r2.cells[i].wall_cycles);
    EXPECT_EQ(r1.cells[i].overhead_cycles, r2.cells[i].overhead_cycles);
  }
  EXPECT_EQ(r1.total_escaped(), 0u);
  // The zero-rate cell is all-clean with no injected faults.
  EXPECT_EQ(r1.cells[0].injected, 0u);
  EXPECT_EQ(r1.cells[0].clean, r1.cells[0].trials);
  // The faulty cell actually exercised injection.
  EXPECT_GT(r1.cells[1].injected, 0u);
}

}  // namespace
}  // namespace cryptopim::reliability
