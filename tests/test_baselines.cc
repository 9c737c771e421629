// Tests for the Fig. 6 PIM baselines (src/baselines/pim_baselines.*): the
// BP-1 -> BP-2 -> BP-3 -> CryptoPIM improvement cascade must reproduce the
// paper's ordering and factor bands.
#include "baselines/pim_baselines.h"

#include <gtest/gtest.h>

#include "model/paper_constants.h"
#include "ntt/params.h"

namespace cryptopim::baselines {
namespace {

TEST(RectMult, SquareCaseMatchesPublishedFormulas) {
  EXPECT_EQ(mult_cycles_rect_cryptopim(16, 16), 1483u);
  EXPECT_EQ(mult_cycles_rect_cryptopim(32, 32), 6291u);
  EXPECT_EQ(mult_cycles_rect_hajali(16, 16), 3110u);
  EXPECT_EQ(mult_cycles_rect_hajali(32, 32), 12870u);
}

TEST(RectMult, CryptoPimAlwaysFaster) {
  for (unsigned w : {8u, 16u, 32u, 64u}) {
    for (unsigned v : {8u, 16u, 32u}) {
      EXPECT_LT(mult_cycles_rect_cryptopim(w, v),
                mult_cycles_rect_hajali(w, v));
    }
  }
}

class BaselineCascade : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BaselineCascade, StrictOrdering) {
  const std::uint32_t n = GetParam();
  const double bp1 = evaluate_baseline(PimBaseline::kBp1, n).latency_us;
  const double bp2 = evaluate_baseline(PimBaseline::kBp2, n).latency_us;
  const double bp3 = evaluate_baseline(PimBaseline::kBp3, n).latency_us;
  const double cp = evaluate_baseline(PimBaseline::kCryptoPim, n).latency_us;
  EXPECT_GT(bp1, bp2);
  EXPECT_GT(bp2, bp3);
  EXPECT_GT(bp3, cp);
}

TEST_P(BaselineCascade, FactorBands) {
  // Paper averages: BP-2 = 1.9x over BP-1 is reported the other way
  // around — BP-2 is 1.9x *faster*; BP-3 5.5x faster than BP-2; CryptoPIM
  // 1.2x faster than BP-3; 12.7x total. Our reconstruction lands at
  // ~2.0x / 3.1-4.5x / 1.2-1.4x / 8-11x (see EXPERIMENTS.md).
  const std::uint32_t n = GetParam();
  const double bp1 = evaluate_baseline(PimBaseline::kBp1, n).latency_us;
  const double bp2 = evaluate_baseline(PimBaseline::kBp2, n).latency_us;
  const double bp3 = evaluate_baseline(PimBaseline::kBp3, n).latency_us;
  const double cp = evaluate_baseline(PimBaseline::kCryptoPim, n).latency_us;
  EXPECT_NEAR(bp1 / bp2, model::paper::kBp1OverBp2, 0.4) << "n=" << n;
  EXPECT_GT(bp2 / bp3, 2.5) << "n=" << n;
  EXPECT_LT(bp2 / bp3, model::paper::kBp2OverBp3 + 1.0) << "n=" << n;
  EXPECT_GT(bp3 / cp, 1.05) << "n=" << n;
  EXPECT_LT(bp3 / cp, 1.6) << "n=" << n;
  EXPECT_GT(bp1 / cp, 7.0) << "n=" << n;
  EXPECT_LT(bp1 / cp, model::paper::kBp1OverCryptoPim + 2.0) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, BaselineCascade,
                         ::testing::ValuesIn(ntt::paper_degrees()));

TEST(BaselineLatencySets, ReductionStylesDiffer) {
  const auto bp1 = baseline_latency(PimBaseline::kBp1, 1024);
  const auto bp2 = baseline_latency(PimBaseline::kBp2, 1024);
  const auto bp3 = baseline_latency(PimBaseline::kBp3, 1024);
  const auto cp = baseline_latency(PimBaseline::kCryptoPim, 1024);
  // BP-1/BP-2 pay multiplication-based reductions.
  EXPECT_GT(bp1.barrett, 10 * cp.barrett);
  EXPECT_GT(bp2.barrett, 5 * cp.barrett);
  // BP-3's untrimmed chains sit between.
  EXPECT_GT(bp3.barrett, cp.barrett);
  EXPECT_LT(bp3.barrett, bp2.barrett);
  // Adds/subs/transfers identical across the board.
  EXPECT_EQ(bp1.add, cp.add);
  EXPECT_EQ(bp1.sub, cp.sub);
  EXPECT_EQ(bp1.transfer, cp.transfer);
  // BP-1's multiplier is the [35] one; the rest use CryptoPIM's.
  EXPECT_GT(bp1.mult, bp2.mult);
  EXPECT_EQ(bp2.mult, cp.mult);
}

TEST(BaselineNames, Strings) {
  EXPECT_STREQ(to_string(PimBaseline::kBp1), "BP-1");
  EXPECT_STREQ(to_string(PimBaseline::kCryptoPim), "CryptoPIM");
}

}  // namespace
}  // namespace cryptopim::baselines
