// Tests for the shared utilities (src/common/*): bit manipulation, the
// deterministic RNG, and the table/format helpers the bench harness
// renders the paper's tables with.
#include <gtest/gtest.h>

#include <sstream>

#include "common/bitutil.h"
#include "common/rng.h"
#include "common/table.h"

namespace cryptopim {
namespace {

TEST(BitUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(512));
  EXPECT_TRUE(is_pow2(1ull << 63));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1536));
}

TEST(BitUtil, Ilog2AndBitLength) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(512), 9u);
  EXPECT_EQ(ilog2(1023), 9u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(bit_length(0), 0u);
  EXPECT_EQ(bit_length(1), 1u);
  EXPECT_EQ(bit_length(7681), 13u);
  EXPECT_EQ(bit_length(786433), 20u);
}

TEST(BitUtil, BitReverse) {
  EXPECT_EQ(bit_reverse(0b001, 3), 0b100u);
  EXPECT_EQ(bit_reverse(0b110, 3), 0b011u);
  EXPECT_EQ(bit_reverse(1, 15), 1u << 14);
  // Involution over the full domain for a small width.
  for (std::uint64_t x = 0; x < 256; ++x) {
    EXPECT_EQ(bit_reverse(bit_reverse(x, 8), 8), x);
  }
}

TEST(BitUtil, NafDecomposeKnownValues) {
  // 7 = 8 - 1 in NAF.
  const auto t7 = naf_decompose(7);
  ASSERT_EQ(t7.size(), 2u);
  EXPECT_EQ(eval_shift_add(1, t7.data(), t7.size()), 7u);
  // 12289 = 2^14 - 2^12 + 1 canonically.
  const auto t = naf_decompose(12289);
  EXPECT_EQ(eval_shift_add(1, t.data(), t.size()), 12289u);
  EXPECT_EQ(t.size(), 3u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Xoshiro256 c(124);
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, NextBelowInRangeAndWellSpread) {
  Xoshiro256 rng(9);
  std::size_t buckets[10] = {};
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (const auto b : buckets) {
    EXPECT_GT(b, 800u);
    EXPECT_LT(b, 1200u);
  }
}

TEST(Rng, NextBitsMasks) {
  Xoshiro256 rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.next_bits(5), 32u);
    EXPECT_LT(rng.next_bits(1), 2u);
  }
}

TEST(Format, Numbers) {
  EXPECT_EQ(fmt_f(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_f(-1.5, 1), "-1.5");
  EXPECT_EQ(fmt_i(0), "0");
  EXPECT_EQ(fmt_i(999), "999");
  EXPECT_EQ(fmt_i(553311), "553,311");
  EXPECT_EQ(fmt_i(1234567890), "1,234,567,890");
  EXPECT_EQ(fmt_x(12.72, 1), "12.7x");
  EXPECT_EQ(fmt_pct(0.29, 1), "+29.0%");
  EXPECT_EQ(fmt_pct(-0.052, 1), "-5.2%");
}

TEST(Table, AlignsAndSeparates) {
  Table t({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header, two rows, four rules.
  EXPECT_NE(out.find("| a   | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4    |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"x", "y", "z"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);  // must not crash; missing cells render empty
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

}  // namespace
}  // namespace cryptopim
