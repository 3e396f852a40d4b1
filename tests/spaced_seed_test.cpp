// Tests for spaced seeds: pattern parsing, code extraction, and the
// PatternHunter sensitivity result the paper's introduction cites.
#include <gtest/gtest.h>

#include "index/spaced_seed.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris::index {
namespace {

using scoris::testing::codes_of;

TEST(SpacedSeed, PatternParsing) {
  const SpacedSeed s("1101");
  EXPECT_EQ(s.span(), 4);
  EXPECT_EQ(s.weight(), 3);
  const auto& ph = SpacedSeed::pattern_hunter();
  EXPECT_EQ(ph.span(), 18);
  EXPECT_EQ(ph.weight(), 11);
}

TEST(SpacedSeed, RejectsBadPatterns) {
  EXPECT_THROW(SpacedSeed(""), std::invalid_argument);
  EXPECT_THROW(SpacedSeed("0110"), std::invalid_argument);   // leading 0
  EXPECT_THROW(SpacedSeed("1100"), std::invalid_argument);   // trailing 0
  EXPECT_THROW(SpacedSeed("1x1"), std::invalid_argument);    // bad char
  EXPECT_THROW(SpacedSeed("1111111111111111"), std::invalid_argument);  // w=16
}

TEST(SpacedSeed, ContiguousDegenerate) {
  const auto s = SpacedSeed::contiguous(5);
  EXPECT_EQ(s.span(), 5);
  EXPECT_EQ(s.weight(), 5);
  // Its codes match SeedCoder's for the same word.
  const auto codes = codes_of("ACGTACGTA");
  const SeedCoder coder(5);
  for (std::size_t p = 0; p + 5 <= codes.size(); ++p) {
    ASSERT_TRUE(s.code_at(codes, p).has_value());
    EXPECT_EQ(*s.code_at(codes, p), coder.code_unchecked(codes, p)) << p;
  }
}

TEST(SpacedSeed, CodeIgnoresDontCarePositions) {
  const SpacedSeed s("101");
  const auto a = codes_of("ACA");
  const auto b = codes_of("AGA");  // differs only at the don't-care
  const auto c = codes_of("TCA");  // differs at a sampled position
  EXPECT_EQ(*s.code_at(a, 0), *s.code_at(b, 0));
  EXPECT_NE(*s.code_at(a, 0), *s.code_at(c, 0));
}

TEST(SpacedSeed, CodeAtBoundsAndAmbiguity) {
  const SpacedSeed s("1011");
  const auto codes = codes_of("ACNGTA");
  // Window at 0 samples positions 0,2,3 -> includes N at 2.
  EXPECT_FALSE(s.code_at(codes, 0).has_value());
  // Window at 2 samples 2,4,5 -> includes N at 2.
  EXPECT_FALSE(s.code_at(codes, 2).has_value());
  EXPECT_FALSE(s.code_at(codes, 3).has_value());  // out of range
}

TEST(Sensitivity, PatternHunterBeatsContiguousAt70Percent) {
  // The PatternHunter result (paper section 1): at ~70% identity over a
  // 64-nt region, the spaced weight-11 seed has materially higher hit
  // probability than the contiguous 11-mer.
  simulate::Rng rng(953);
  const double spaced = hit_sensitivity(SpacedSeed::pattern_hunter(), 0.70,
                                        64, rng, 4000);
  const double contiguous =
      hit_sensitivity(SpacedSeed::contiguous(11), 0.70, 64, rng, 4000);
  EXPECT_GT(spaced, contiguous + 0.05);
  EXPECT_GT(spaced, 0.35);
  EXPECT_LT(contiguous, 0.35);
}

TEST(Sensitivity, MonotoneInIdentity) {
  simulate::Rng rng(957);
  const auto& seed = SpacedSeed::pattern_hunter();
  const double s70 = hit_sensitivity(seed, 0.70, 64, rng, 1500);
  const double s85 = hit_sensitivity(seed, 0.85, 64, rng, 1500);
  const double s95 = hit_sensitivity(seed, 0.95, 64, rng, 1500);
  EXPECT_LT(s70, s85);
  EXPECT_LT(s85, s95);
  EXPECT_GT(s95, 0.95);
}

TEST(Sensitivity, ShortRegionIsZero) {
  simulate::Rng rng(961);
  EXPECT_EQ(hit_sensitivity(SpacedSeed::pattern_hunter(), 0.9, 10, rng, 10),
            0.0);
}

}  // namespace
}  // namespace scoris::index
