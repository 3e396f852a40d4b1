// Tests for src/align: ungapped x-drop extension, gapped x-drop extension,
// banded global statistics (validated against a full-matrix Gotoh oracle),
// and the classic DP aligners.
#include <gtest/gtest.h>

#include "align/classic.hpp"
#include "align/gapped.hpp"
#include "align/records.hpp"
#include "align/scoring.hpp"
#include "align/ungapped.hpp"
#include "simulate/generators.hpp"
#include "simulate/mutate.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris::align {
namespace {

using scoris::testing::codes_of;
using scoris::testing::global_gotoh_oracle;
using seqio::Code;

ScoringParams default_params() { return ScoringParams{}; }

// --- scoring ---------------------------------------------------------------

TEST(Scoring, PairScores) {
  const ScoringParams p;
  EXPECT_EQ(p.score(seqio::kA, seqio::kA), p.match);
  EXPECT_EQ(p.score(seqio::kA, seqio::kC), -p.mismatch);
  EXPECT_EQ(p.score(seqio::kAmbiguous, seqio::kAmbiguous), -p.mismatch);
  EXPECT_EQ(p.gap_first(), p.gap_open + p.gap_extend);
}

TEST(Records, DiagonalArithmetic) {
  Hsp h{100, 120, 90, 110, 20};
  EXPECT_EQ(h.diagonal(), 10);
  EXPECT_EQ(h.length(), 20u);
  GappedAlignment a;
  a.s1 = 50;
  a.s2 = 70;
  a.e1 = 90;
  a.e2 = 105;
  EXPECT_EQ(a.start_diagonal(), -20);
  EXPECT_EQ(a.end_diagonal(), -15);
}

TEST(Records, PercentIdentity) {
  AlignmentStats st;
  st.length = 100;
  st.matches = 97;
  EXPECT_DOUBLE_EQ(st.percent_identity(), 97.0);
  EXPECT_DOUBLE_EQ(AlignmentStats{}.percent_identity(), 0.0);
}

// --- ungapped extension ------------------------------------------------------

TEST(Ungapped, ExactMatchExtendsFully) {
  const auto a = codes_of("TTTTACGTACGTACGTTTTT");
  const auto b = codes_of("TTTTACGTACGTACGTTTTT");
  // Seed at position 4, w=8; identical sequences extend to the whole span.
  const Hsp h = extend_ungapped(a, b, 4, 4, 8, default_params());
  EXPECT_EQ(h.s1, 0u);
  EXPECT_EQ(h.e1, a.size());
  EXPECT_EQ(h.score, static_cast<int>(a.size()));
}

TEST(Ungapped, StopsAtMismatchCluster) {
  // Left of the seed: CCCC vs GGGG (4 mismatches = -12 < xdrop over best 0
  // quickly); extension must not move the start leftwards.
  const auto a = codes_of("CCCCACGTACGT");
  const auto b = codes_of("GGGGACGTACGT");
  const Hsp h = extend_ungapped(a, b, 4, 4, 8, default_params());
  EXPECT_EQ(h.s1, 4u);
  EXPECT_EQ(h.e1, 12u);
  EXPECT_EQ(h.score, 8);
}

TEST(Ungapped, RidesThroughSingleMismatch) {
  // One mismatch inside a longer identity: the 5 matches beyond it outweigh
  // the -3 penalty, so the extension rides through to position 0.
  const auto a = codes_of("ACGTACGTACGTACGTACGT");  // 20 nt
  auto b = a;
  b[5] = static_cast<Code>((b[5] + 1) & 3);  // single substitution at pos 5
  const Hsp h = extend_ungapped(a, b, 10, 10, 8, default_params());
  EXPECT_EQ(h.s1, 0u);
  EXPECT_EQ(h.e1, a.size());
  EXPECT_EQ(h.score,
            static_cast<int>(a.size()) - 1 - default_params().mismatch);
}

TEST(Ungapped, StopsWhenGainBeyondMismatchTooSmall) {
  // Only 2 matches beyond the mismatch (< penalty 3): best stops before it.
  const auto a = codes_of("ACGTACGTACGTACGTAC");  // 18 nt
  auto b = a;
  b[2] = static_cast<Code>((b[2] + 1) & 3);
  const Hsp h = extend_ungapped(a, b, 6, 6, 8, default_params());
  EXPECT_EQ(h.s1, 3u);
  EXPECT_EQ(h.e1, a.size());
}

TEST(Ungapped, SentinelIsHardStop) {
  auto a = codes_of("ACGTACGT");
  auto b = codes_of("ACGTACGT");
  a.insert(a.begin(), seqio::kSentinel);
  b.insert(b.begin(), seqio::kSentinel);
  a.push_back(seqio::kSentinel);
  b.push_back(seqio::kSentinel);
  const Hsp h = extend_ungapped(a, b, 1, 1, 8, default_params());
  EXPECT_EQ(h.s1, 1u);
  EXPECT_EQ(h.e1, 9u);
  EXPECT_EQ(h.score, 8);
}

TEST(Ungapped, AmbiguousNeverMatches) {
  auto a = codes_of("NNNNACGTACGT");
  auto b = codes_of("NNNNACGTACGT");
  const Hsp h = extend_ungapped(a, b, 4, 4, 8, default_params());
  // N vs N is a mismatch: the left extension gains nothing.
  EXPECT_EQ(h.s1, 4u);
  EXPECT_EQ(h.score, 8);
}

TEST(Ungapped, AsymmetricPositions) {
  //       0123456789
  const auto a = codes_of("GGGGGACGTACGTA");
  const auto b = codes_of("TTACGTACGTA");
  const Hsp h = extend_ungapped(a, b, 5, 2, 9, default_params());
  EXPECT_EQ(h.diagonal(), 3);
  EXPECT_EQ(h.e1 - h.s1, h.e2 - h.s2);
  EXPECT_GE(h.score, 9);
}

TEST(Ungapped, EachSideStopsAtTheSpanEdge) {
  // No sentinels: each side stops at the edge of the spans.  From the seed
  // CGT the left side adds AAAA (+4); from AAAA the right side adds CGT.
  const auto a = codes_of("AAAACGT");
  const auto b = codes_of("AAAACGT");
  const Hsp left = extend_ungapped(a, b, 4, 4, 3, default_params());
  EXPECT_EQ(left.s1, 0u);
  EXPECT_EQ(left.e1, 7u);
  EXPECT_EQ(left.score, 3 + 4);
  const Hsp right = extend_ungapped(a, b, 0, 0, 4, default_params());
  EXPECT_EQ(right.s1, 0u);
  EXPECT_EQ(right.e1, 7u);
  EXPECT_EQ(right.score, 4 + 3);
}

// --- gapped extension ---------------------------------------------------------

TEST(Gapped, IdenticalSequencesFullSpan) {
  const auto a = codes_of("ACGTACGTACGTACGTACGTACGTACGT");
  const GappedExtent e =
      extend_gapped(a, a, 14, 14, default_params());
  EXPECT_EQ(e.s1, 0u);
  EXPECT_EQ(e.e1, a.size());
  EXPECT_EQ(e.score, static_cast<int>(a.size()));
}

TEST(Gapped, CrossesSingleInsertion) {
  // b == a with 2 inserted bases in the middle; gapped extension from the
  // left block must bridge into the right block.
  simulate::Rng rng(7);
  const auto left = simulate::random_codes(rng, 40);
  const auto right = simulate::random_codes(rng, 40);
  const auto ins = simulate::random_codes(rng, 2);
  scoris::testing::CodeStr a = left + right;
  scoris::testing::CodeStr b = left + ins + right;
  const ScoringParams p;
  const GappedExtent e = extend_gapped(a, b, 10, 10, p);
  EXPECT_EQ(e.s1, 0u);
  EXPECT_EQ(e.e1, a.size());
  EXPECT_EQ(e.e2, b.size());
  EXPECT_EQ(e.score,
            static_cast<int>(a.size()) - p.gap_open - 2 * p.gap_extend);
}

TEST(Gapped, CrossesSingleDeletion) {
  simulate::Rng rng(9);
  const auto left = simulate::random_codes(rng, 35);
  const auto mid = simulate::random_codes(rng, 3);
  const auto right = simulate::random_codes(rng, 35);
  scoris::testing::CodeStr a = left + mid + right;
  scoris::testing::CodeStr b = left + right;
  const ScoringParams p;
  const GappedExtent e = extend_gapped(a, b, 5, 5, p);
  EXPECT_EQ(e.e1, a.size());
  EXPECT_EQ(e.e2, b.size());
  EXPECT_EQ(e.score,
            static_cast<int>(b.size()) - p.gap_open - 3 * p.gap_extend);
}

TEST(Gapped, StopsAtSentinel) {
  auto a = codes_of("ACGTACGTACGT");
  auto b = a;
  a.push_back(seqio::kSentinel);
  b.push_back(seqio::kSentinel);
  const auto tail = codes_of("ACGTACGTACGT");
  a.insert(a.end(), tail.begin(), tail.end());
  b.insert(b.end(), tail.begin(), tail.end());
  const GappedExtent e = extend_gapped(a, b, 2, 2, default_params());
  EXPECT_LE(e.e1, 12u);  // never crosses the sentinel at position 12
}

TEST(Gapped, MaxExtentCapsSearch) {
  simulate::Rng rng(11);
  const auto a = simulate::random_codes(rng, 2000);
  const GappedExtent e = extend_gapped(a, a, 1000, 1000, default_params(), 50);
  EXPECT_LE(1000 - e.s1, 50u);
  EXPECT_LE(e.e1 - 1000, 50u);
}

TEST(Gapped, EmptyDirectionHandled) {
  const auto a = codes_of("ACGTACGT");
  // Anchor at the very start: left extension space is empty.
  const GappedExtent e = extend_gapped(a, a, 0, 0, default_params());
  EXPECT_EQ(e.s1, 0u);
  EXPECT_EQ(e.e1, a.size());
}

// --- banded global stats -------------------------------------------------------

TEST(BandedStats, PerfectMatch) {
  const auto a = codes_of("ACGTACGTACGTACGT");
  std::int32_t score = 0;
  const AlignmentStats st =
      banded_global_stats(a, 0, static_cast<seqio::Pos>(a.size()), a, 0,
                          static_cast<seqio::Pos>(a.size()), default_params(),
                          &score);
  EXPECT_EQ(st.length, a.size());
  EXPECT_EQ(st.matches, a.size());
  EXPECT_EQ(st.mismatches, 0u);
  EXPECT_EQ(st.gap_opens, 0u);
  EXPECT_EQ(score, static_cast<int>(a.size()));
}

TEST(BandedStats, CountsSubstitutions) {
  const auto a = codes_of("ACGTACGTACGTACGTACGT");
  auto b = a;
  b[5] = static_cast<Code>((b[5] + 1) & 3);
  b[12] = static_cast<Code>((b[12] + 2) & 3);
  std::int32_t score = 0;
  const AlignmentStats st = banded_global_stats(
      a, 0, static_cast<seqio::Pos>(a.size()), b, 0,
      static_cast<seqio::Pos>(b.size()), default_params(), &score);
  EXPECT_EQ(st.mismatches, 2u);
  EXPECT_EQ(st.matches, a.size() - 2);
  EXPECT_EQ(st.gap_columns, 0u);
}

TEST(BandedStats, CountsGapRun) {
  simulate::Rng rng(13);
  const auto left = simulate::random_codes(rng, 30);
  const auto right = simulate::random_codes(rng, 30);
  const auto ins = simulate::random_codes(rng, 3);
  scoris::testing::CodeStr a = left + right;
  scoris::testing::CodeStr b = left + ins + right;
  std::int32_t score = 0;
  const AlignmentStats st = banded_global_stats(
      a, 0, static_cast<seqio::Pos>(a.size()), b, 0,
      static_cast<seqio::Pos>(b.size()), default_params(), &score);
  EXPECT_EQ(st.gap_columns, 3u);
  EXPECT_EQ(st.gap_opens, 1u);
  EXPECT_EQ(st.length, b.size());
  const ScoringParams p;
  EXPECT_EQ(score, static_cast<int>(a.size()) - p.gap_open - 3 * p.gap_extend);
}

TEST(BandedStats, EmptySideIsAllGap) {
  const auto a = codes_of("ACGT");
  std::int32_t score = 0;
  const AlignmentStats st =
      banded_global_stats(a, 0, 4, a, 2, 2, default_params(), &score);
  EXPECT_EQ(st.length, 4u);
  EXPECT_EQ(st.gap_columns, 4u);
  EXPECT_EQ(st.gap_opens, 1u);
  EXPECT_LT(score, 0);
}

// Property sweep: banded stats agree with the full-matrix Gotoh oracle on
// random mutated pairs across divergence levels.
class BandedVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(BandedVsOracle, ScoreMatchesFullMatrix) {
  const int seed = GetParam();
  simulate::Rng rng(static_cast<std::uint64_t>(seed));
  const auto a = simulate::random_codes(rng, 120 + rng.next_below(80));
  const double div = 0.02 + 0.03 * (seed % 5);
  const auto b =
      simulate::mutate(rng, a, simulate::MutationModel::with_divergence(div));
  const ScoringParams p;

  std::int32_t banded_score = 0;
  const AlignmentStats st = banded_global_stats(
      a, 0, static_cast<seqio::Pos>(a.size()), b, 0,
      static_cast<seqio::Pos>(b.size()), p, &banded_score);
  const auto oracle = global_gotoh_oracle(a, b, p);

  EXPECT_EQ(banded_score, oracle.score) << "seed " << seed;
  // Traceback ties can differ, but the column budget is determined:
  // length = matches + mismatches + gaps, and score is a linear functional
  // of the stats, so check score reconstruction instead of exact columns.
  const long long reconstructed =
      static_cast<long long>(st.matches) * p.match -
      static_cast<long long>(st.mismatches) * p.mismatch -
      static_cast<long long>(st.gap_opens) * p.gap_open -
      static_cast<long long>(st.gap_columns) * p.gap_extend;
  EXPECT_EQ(reconstructed, banded_score) << "seed " << seed;
  EXPECT_EQ(st.length, st.matches + st.mismatches + st.gap_columns);
}

INSTANTIATE_TEST_SUITE_P(RandomPairs, BandedVsOracle, ::testing::Range(1, 26));

// --- classic aligners -----------------------------------------------------------

TEST(Classic, NeedlemanWunschIdentical) {
  const auto a = codes_of("ACGTACGT");
  const auto r = needleman_wunsch(a, a, default_params());
  EXPECT_EQ(r.score, 8);
}

TEST(Classic, NeedlemanWunschKnownSmallCase) {
  // a = ACGT, b = AGT: best global = one gap (cost 2 linear) + 3 matches.
  const auto a = codes_of("ACGT");
  const auto b = codes_of("AGT");
  const auto r = needleman_wunsch(a, b, default_params());
  EXPECT_EQ(r.score, 3 - default_params().gap_extend);
}

TEST(Classic, SmithWatermanFindsLocalIsland) {
  const auto a = codes_of("TTTTTTACGTACGTTTTTTT");
  const auto b = codes_of("GGGGGGACGTACGTGGGGGG");
  const auto r = smith_waterman(a, b, default_params());
  // Hmm: T-runs match T-runs? b's flanks are G so no; the island is 8 long.
  EXPECT_EQ(r.score, 8);
}

TEST(Classic, SmithWatermanNeverNegative) {
  const auto a = codes_of("AAAA");
  const auto b = codes_of("GGGG");
  EXPECT_EQ(smith_waterman(a, b, default_params()).score, 0);
}

TEST(Classic, GotohPrefersOneLongGap) {
  // Affine gaps: one 2-gap run is cheaper than two separate 1-gap runs.
  simulate::Rng rng(21);
  const auto block1 = simulate::random_codes(rng, 20);
  const auto block2 = simulate::random_codes(rng, 20);
  const auto ins = simulate::random_codes(rng, 2);
  scoris::testing::CodeStr a = block1 + block2;
  scoris::testing::CodeStr b = block1 + ins + block2;
  const ScoringParams p;
  const auto r = gotoh_local(a, b, p);
  EXPECT_EQ(r.score, 40 - p.gap_open - 2 * p.gap_extend);
}

TEST(Classic, GotohAtLeastSmithWatermanWithLinearCosts) {
  // With gap_open = 0 Gotoh degenerates to Smith-Waterman.
  simulate::Rng rng(23);
  const auto a = simulate::random_codes(rng, 60);
  const auto b = simulate::mutate(
      rng, a, simulate::MutationModel::with_divergence(0.1));
  ScoringParams p;
  p.gap_open = 0;
  EXPECT_EQ(gotoh_local(a, b, p).score, smith_waterman(a, b, p).score);
}

TEST(Classic, BestUngappedLocalIsKadaneOverDiagonals) {
  const auto a = codes_of("ACGTACGTAAAA");
  const auto b = codes_of("TTACGTACGTTT");
  const auto r = best_ungapped_local(a, b, default_params());
  EXPECT_EQ(r.score, 8);  // the shifted ACGTACGT island
}

TEST(Classic, UngappedUpperBoundsHsps) {
  // Any brute-force HSP score is bounded by the optimal ungapped local.
  simulate::Rng rng(31);
  const auto a = simulate::random_codes(rng, 150);
  const auto b = simulate::mutate(
      rng, a, simulate::MutationModel::with_divergence(0.05));
  const ScoringParams p;
  const auto hsps = scoris::testing::brute_force_hsps(a, b, 8, 12, p);
  const auto best = best_ungapped_local(a, b, p);
  for (const auto& h : hsps) {
    EXPECT_LE(h.score, best.score);
  }
  ASSERT_FALSE(hsps.empty());
}

TEST(Classic, OptimalOrderingChain) {
  // NW(global, linear) <= SW(local, linear) <= Gotoh-local is not a valid
  // chain in general, but SW >= ungapped-local always holds, and Gotoh
  // with affine costs never beats SW with the same linear extend cost.
  simulate::Rng rng(37);
  const auto a = simulate::random_codes(rng, 100);
  const auto b = simulate::mutate(
      rng, a, simulate::MutationModel::with_divergence(0.08));
  const ScoringParams p;
  const auto sw = smith_waterman(a, b, p);
  const auto ug = best_ungapped_local(a, b, p);
  const auto go = gotoh_local(a, b, p);
  EXPECT_GE(sw.score, ug.score);
  EXPECT_LE(go.score, sw.score);
  EXPECT_GE(go.score, ug.score);
}

}  // namespace
}  // namespace scoris::align
