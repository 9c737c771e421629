// Tests for pipeline construction and the configurable chip
// (src/arch/pipeline.*, src/arch/chip.*).
#include <gtest/gtest.h>

#include "arch/chip.h"
#include "arch/pipeline.h"
#include "ntt/params.h"

namespace cryptopim::arch {
namespace {

TEST(Pipeline, CryptoPimDepthMatchesTableII) {
  // 38 / 42 / 46 stages for 256 / 512 / 1024 (reverse-engineered from the
  // Table II latencies), and 4*log2(n)+6 in general.
  EXPECT_EQ(PipelineSpec::build(256, PipelineVariant::kCryptoPim).depth(),
            38u);
  EXPECT_EQ(PipelineSpec::build(512, PipelineVariant::kCryptoPim).depth(),
            42u);
  EXPECT_EQ(PipelineSpec::build(1024, PipelineVariant::kCryptoPim).depth(),
            46u);
  EXPECT_EQ(PipelineSpec::build(32768, PipelineVariant::kCryptoPim).depth(),
            66u);
}

TEST(Pipeline, VariantDepths) {
  // Per butterfly level: 1 stage (area-efficient), 5 (naive),
  // 2 (CryptoPIM); plus 3 scale/pointwise phases of 1/2/2 stages.
  const unsigned log2n = 8;  // n = 256
  EXPECT_EQ(PipelineSpec::build(256, PipelineVariant::kAreaEfficient).depth(),
            2 * log2n + 3);
  EXPECT_EQ(PipelineSpec::build(256, PipelineVariant::kNaive).depth(),
            10 * log2n + 6);
  EXPECT_EQ(PipelineSpec::build(256, PipelineVariant::kCryptoPim).depth(),
            4 * log2n + 6);
}

TEST(Pipeline, ParametersFollowDegree) {
  const auto p16 = PipelineSpec::build(1024, PipelineVariant::kCryptoPim);
  EXPECT_EQ(p16.bitwidth, 16u);
  EXPECT_EQ(p16.q, 12289u);
  const auto p32 = PipelineSpec::build(2048, PipelineVariant::kCryptoPim);
  EXPECT_EQ(p32.bitwidth, 32u);
  EXPECT_EQ(p32.q, 786433u);
}

TEST(Pipeline, EveryStageStartsWithATransfer) {
  for (const auto v : {PipelineVariant::kAreaEfficient,
                       PipelineVariant::kNaive, PipelineVariant::kCryptoPim}) {
    const auto spec = PipelineSpec::build(512, v);
    for (const auto& stage : spec.stages) {
      ASSERT_FALSE(stage.ops.empty());
      EXPECT_EQ(stage.ops.front(), StageOp::kTransferIn) << stage.name;
    }
  }
}

TEST(Pipeline, OpMultisetIsVariantIndependent) {
  // The three variants regroup the same work; total op counts must match.
  auto count = [](const PipelineSpec& s, StageOp op) {
    std::size_t c = 0;
    for (const auto& st : s.stages) {
      for (const auto o : st.ops) {
        if (o == op) ++c;
      }
    }
    return c;
  };
  const auto a = PipelineSpec::build(256, PipelineVariant::kAreaEfficient);
  const auto b = PipelineSpec::build(256, PipelineVariant::kNaive);
  const auto c = PipelineSpec::build(256, PipelineVariant::kCryptoPim);
  for (const auto op : {StageOp::kAdd, StageOp::kSub, StageOp::kMult,
                        StageOp::kBarrett, StageOp::kMontgomery}) {
    EXPECT_EQ(count(a, op), count(b, op));
    EXPECT_EQ(count(a, op), count(c, op));
  }
  // n=256: 8 fwd + 8 inv levels = 16 butterflies, + 3 coefficient
  // multiplies (psi, pointwise, psi-inv).
  EXPECT_EQ(count(c, StageOp::kMult), 19u);
  EXPECT_EQ(count(c, StageOp::kAdd), 16u);
  EXPECT_EQ(count(c, StageOp::kMontgomery), 19u);
}

TEST(Chip, PaperConfiguration) {
  const auto chip = ChipConfig::paper_chip();
  EXPECT_EQ(chip.blocks_per_bank, 49u);
  EXPECT_EQ(chip.total_banks, 128u);
}

TEST(Chip, PlanFor32k) {
  const auto plan = ChipConfig::paper_chip().plan_for_degree(32768);
  EXPECT_EQ(plan.banks_per_softbank, 64u);   // 64 banks per polynomial
  EXPECT_EQ(plan.banks_per_superbank, 128u); // 128 per multiplication
  EXPECT_EQ(plan.superbanks, 1u);
  EXPECT_EQ(plan.segments, 1u);
}

TEST(Chip, SmallDegreesPartitionIntoManySuperbanks) {
  const auto chip = ChipConfig::paper_chip();
  const auto p512 = chip.plan_for_degree(512);
  EXPECT_EQ(p512.banks_per_softbank, 1u);
  EXPECT_EQ(p512.superbanks, 64u);  // 64 parallel multiplications
  const auto p4k = chip.plan_for_degree(4096);
  EXPECT_EQ(p4k.banks_per_softbank, 8u);
  EXPECT_EQ(p4k.superbanks, 8u);
}

TEST(Chip, AboveDesignPointSegments) {
  const auto plan = ChipConfig::paper_chip().plan_for_degree(131072);
  EXPECT_EQ(plan.segments, 4u);  // 128k = 4 x 32k
  EXPECT_EQ(plan.superbanks, 1u);
}

TEST(Chip, InvalidDegreeThrows) {
  EXPECT_THROW(ChipConfig::paper_chip().plan_for_degree(1000),
               std::invalid_argument);
}

TEST(Chip, CapacityAccounting) {
  const auto chip = ChipConfig::paper_chip();
  EXPECT_EQ(chip.total_blocks(), 49ull * 128);
  EXPECT_EQ(chip.total_cells(), 49ull * 128 * 512 * 512);
}

}  // namespace
}  // namespace cryptopim::arch
