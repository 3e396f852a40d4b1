// Differential test of step 3's two DP loops: align::extend_gapped and
// align::banded_global_stats must return exactly what the frozen copy of
// the code they replaced returns (tests/frozen_gapped.hpp) — the same
// extent and score, the same statistics and the same column operations,
// ties included.  Cases: random pairs with indels at 1-15% divergence,
// tandem repeats whose gap placement ties, ambiguous codes, bank
// boundaries inside the span, max_extent clipping, anchors at either end,
// empty sides and length differences up to 40, under the default scoring
// and one non-default set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "align/gapped.hpp"
#include "align/scoring.hpp"
#include "frozen_gapped.hpp"
#include "simulate/generators.hpp"
#include "simulate/mutate.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris::align {
namespace {

using scoris::testing::codes_of;
using scoris::testing::CodeStr;
using seqio::Code;
using seqio::Pos;

/// Match 2, mismatch 3, open 0, extend 1, xdrop 40: a gap run costs its
/// length alone, and the band is twice as wide as the default's.
ScoringParams alt_params() {
  ScoringParams p;
  p.match = 2;
  p.mismatch = 3;
  p.gap_open = 0;
  p.gap_extend = 1;
  p.xdrop_gapped = 40;
  return p;
}

std::vector<ScoringParams> param_sets() {
  return {ScoringParams{}, alt_params()};
}

auto extent_key(const GappedExtent& e) {
  return std::tuple(e.s1, e.e1, e.s2, e.e2, e.score);
}

auto stats_key(const AlignmentStats& s) {
  return std::tuple(s.length, s.matches, s.mismatches, s.gap_opens,
                    s.gap_columns);
}

/// Re-aligns seq1[b1,e1) against seq2[b2,e2) with both versions and
/// expects the same score, statistics and column operations.  Returns the
/// gap opens, so callers can check that their cases reach gapped paths.
std::uint32_t expect_same_realignment(std::span<const Code> seq1, Pos b1,
                                      Pos e1, std::span<const Code> seq2,
                                      Pos b2, Pos e2, const ScoringParams& p) {
  std::int32_t live_score = 0;
  std::int32_t ref_score = 0;
  std::vector<AlignOp> live_ops;
  std::vector<AlignOp> ref_ops;
  const AlignmentStats live = banded_global_stats(seq1, b1, e1, seq2, b2, e2,
                                                  p, &live_score, &live_ops);
  const AlignmentStats ref = frozen::banded_global_stats(
      seq1, b1, e1, seq2, b2, e2, p, &ref_score, &ref_ops);
  EXPECT_EQ(stats_key(live), stats_key(ref))
      << "[" << b1 << "," << e1 << ") x [" << b2 << "," << e2 << ")";
  EXPECT_EQ(live_score, ref_score)
      << "[" << b1 << "," << e1 << ") x [" << b2 << "," << e2 << ")";
  EXPECT_TRUE(live_ops == ref_ops)
      << "[" << b1 << "," << e1 << ") x [" << b2 << "," << e2 << ")";
  return live.gap_opens;
}

/// Extends from (mid1, mid2) with both versions, expects the same extent,
/// then re-aligns that extent with both.  Returns the re-alignment's gap
/// opens.
std::uint32_t expect_same_extension(std::span<const Code> seq1,
                                    std::span<const Code> seq2, Pos mid1,
                                    Pos mid2, const ScoringParams& p,
                                    std::size_t max_extent = 1u << 20) {
  const GappedExtent live =
      extend_gapped(seq1, seq2, mid1, mid2, p, max_extent);
  const GappedExtent ref =
      frozen::extend_gapped(seq1, seq2, mid1, mid2, p, max_extent);
  EXPECT_EQ(extent_key(live), extent_key(ref))
      << "anchor (" << mid1 << "," << mid2 << "), max_extent " << max_extent;
  return expect_same_realignment(seq1, live.s1, live.e1, seq2, live.s2,
                                 live.e2, p);
}

/// A homologous copy with indels as frequent as a quarter of the changes.
simulate::MutationModel indel_model(double divergence) {
  simulate::MutationModel m;
  m.sub_rate = divergence * 0.7;
  m.ins_rate = divergence * 0.15;
  m.del_rate = divergence * 0.15;
  return m;
}

TEST(GappedDifferential, RandomPairsWithIndels) {
  std::size_t gapped = 0;
  std::size_t cases = 0;
  for (const ScoringParams& p : param_sets()) {
    simulate::Rng rng(101);
    for (const double div : {0.01, 0.03, 0.05, 0.08, 0.11, 0.15}) {
      for (int rep = 0; rep < 12; ++rep) {
        const CodeStr core =
            simulate::random_codes(rng, 200 + rng.next_below(400));
        const CodeStr copy = simulate::mutate(rng, core, indel_model(div));
        const CodeStr a = simulate::random_codes(rng, 60) + core +
                          simulate::random_codes(rng, 60);
        const CodeStr b = simulate::random_codes(rng, 45) + copy +
                          simulate::random_codes(rng, 75);
        // Anchors near the middle of the homologous cores, both ways.
        const Pos mid1 = static_cast<Pos>(60 + core.size() / 2);
        const Pos mid2 = static_cast<Pos>(45 + copy.size() / 2);
        gapped += expect_same_extension(a, b, mid1, mid2, p) > 0 ? 1 : 0;
        gapped += expect_same_extension(b, a, mid2, mid1, p) > 0 ? 1 : 0;
        cases += 2;
      }
    }
  }
  // Most cases must exercise the gapped paths of both loops.
  EXPECT_GT(gapped, cases / 2) << gapped << " of " << cases;
}

TEST(GappedDifferential, TandemRepeatsWhereGapPlacementTies) {
  for (const ScoringParams& p : param_sets()) {
    simulate::Rng rng(103);
    for (const std::size_t n : {5u, 12u, 30u, 60u}) {
      std::string ac_n;
      for (std::size_t r = 0; r < n; ++r) ac_n += "AC";
      const std::string ac_n1 = ac_n.substr(2);
      const std::string a_n(n, 'A');
      const std::string a_n3(n + 3, 'A');
      for (const auto& [x, y] :
           {std::pair(ac_n, ac_n1), std::pair(a_n, a_n3)}) {
        const CodeStr left = simulate::random_codes(rng, 40);
        const CodeStr right = simulate::random_codes(rng, 40);
        const CodeStr a = left + codes_of(x) + right;
        const CodeStr b = left + codes_of(y) + right;
        // Anchored in each flank and in the repeat itself.
        for (const Pos off : {Pos{20}, Pos{40}, Pos{41}}) {
          expect_same_extension(a, b, off, off, p);
          expect_same_extension(b, a, off, off, p);
        }
        const auto end_a = static_cast<Pos>(a.size() - 20);
        const auto end_b = static_cast<Pos>(b.size() - 20);
        expect_same_extension(a, b, end_a, end_b, p);
        // The repeat alone, globally: every gap placement scores the same.
        const auto rx = static_cast<Pos>(40 + x.size());
        const auto ry = static_cast<Pos>(40 + y.size());
        EXPECT_GT(expect_same_realignment(a, 40, rx, b, 40, ry, p), 0u);
        EXPECT_GT(expect_same_realignment(b, 40, ry, a, 40, rx, p), 0u);
      }
    }
  }
}

TEST(GappedDifferential, AmbiguousCodesInsideTheAlignment) {
  for (const ScoringParams& p : param_sets()) {
    simulate::Rng rng(107);
    for (int rep = 0; rep < 20; ++rep) {
      const CodeStr core = simulate::random_codes(rng, 300);
      CodeStr a = core;
      CodeStr b = simulate::mutate(rng, core, indel_model(0.05));
      // Ns on one side, on the other, and facing each other.
      for (int k = 0; k < 6; ++k) {
        a[rng.next_below(a.size())] = seqio::kAmbiguous;
        b[rng.next_below(b.size())] = seqio::kAmbiguous;
      }
      const std::size_t both = rng.next_below(std::min(a.size(), b.size()));
      a[both] = seqio::kAmbiguous;
      b[both] = seqio::kAmbiguous;
      expect_same_extension(a, b, static_cast<Pos>(a.size() / 2),
                            static_cast<Pos>(b.size() / 2), p);
    }
  }
}

TEST(GappedDifferential, BankBoundaryInsideTheSpan) {
  // Multi-sequence banks: a kSentinel between sequences ends an extension
  // on that axis, on one side or both, before or after the anchor.
  for (const ScoringParams& p : param_sets()) {
    simulate::Rng rng(109);
    for (int rep = 0; rep < 20; ++rep) {
      const CodeStr s1 = simulate::random_codes(rng, 150);
      const CodeStr s2 = simulate::random_codes(rng, 150);
      const CodeStr m1 = simulate::mutate(rng, s1, indel_model(0.04));
      const CodeStr m2 = simulate::mutate(rng, s2, indel_model(0.04));
      const CodeStr sep(1, seqio::kSentinel);
      const CodeStr a = s1 + sep + s2;
      const CodeStr b = m1 + sep + m2;
      const CodeStr b_one = m1 + m2;  // boundary on seq1's axis only
      const auto cut = static_cast<Pos>(rng.next_below(20));
      expect_same_extension(a, b, 150 - cut, static_cast<Pos>(m1.size()) - cut,
                            p);
      expect_same_extension(a, b, 151 + cut,
                            static_cast<Pos>(m1.size()) + 1 + cut, p);
      expect_same_extension(a, b_one, 150 - cut,
                            static_cast<Pos>(m1.size()) - cut, p);
      expect_same_extension(b_one, a, static_cast<Pos>(m1.size()) - cut,
                            150 - cut, p);
      expect_same_extension(a, b_one, 151 + cut,
                            static_cast<Pos>(m1.size()) + cut, p);
    }
  }
}

TEST(GappedDifferential, MaxExtentClippingAndAnchorsAtTheEnds) {
  for (const ScoringParams& p : param_sets()) {
    simulate::Rng rng(113);
    const CodeStr a = simulate::random_codes(rng, 400);
    const CodeStr b = simulate::mutate(rng, a, indel_model(0.06));
    const auto na = static_cast<Pos>(a.size());
    const auto nb = static_cast<Pos>(b.size());
    for (const std::size_t max_extent : {0u, 1u, 2u, 7u, 31u, 120u, 1000u}) {
      expect_same_extension(a, b, na / 2, nb / 2, p, max_extent);
      expect_same_extension(a, b, 0, 0, p, max_extent);
      expect_same_extension(a, b, na, nb, p, max_extent);
      expect_same_extension(a, b, 0, nb / 2, p, max_extent);
      expect_same_extension(a, b, na, 0, p, max_extent);
      expect_same_extension(a, b, 0, nb, p, max_extent);
    }
  }
}

TEST(GappedDifferential, EmptySidesAndLengthDifferencesUpTo40) {
  for (const ScoringParams& p : param_sets()) {
    simulate::Rng rng(127);
    const CodeStr a = simulate::random_codes(rng, 300);
    const CodeStr b = simulate::mutate(rng, a, indel_model(0.08));
    // One side empty, both empty.
    expect_same_realignment(a, 10, 10, b, 10, 70, p);
    expect_same_realignment(a, 10, 70, b, 10, 10, p);
    expect_same_realignment(a, 10, 10, b, 20, 20, p);
    for (int dn = -40; dn <= 40; ++dn) {
      const Pos n1 = 1 + static_cast<Pos>(rng.next_below(200));
      const auto n2 =
          static_cast<Pos>(std::max<int>(0, static_cast<int>(n1) + dn));
      const Pos b1 = static_cast<Pos>(rng.next_below(a.size() - n1 + 1));
      const Pos b2 = static_cast<Pos>(rng.next_below(b.size() - n2 + 1));
      expect_same_realignment(a, b1, b1 + n1, b, b2, b2 + n2, p);
      expect_same_realignment(b, b2, b2 + n2, a, b1, b1 + n1, p);
    }
  }
}

TEST(GappedDifferential, CellCountsGrowWithTheWork) {
  simulate::Rng rng(131);
  const CodeStr a = simulate::random_codes(rng, 500);
  const CodeStr b = simulate::mutate(rng, a, indel_model(0.05));
  const ScoringParams p;
  const GappedExtent ext = extend_gapped(a, b, 250, 250, p);
  // Every row past the anchor computes at least one cell.
  EXPECT_GE(ext.cells, static_cast<std::size_t>(ext.e1 - ext.s1));
  std::size_t cells = 0;
  (void)banded_global_stats(a, ext.s1, ext.e1, b, ext.s2, ext.e2, p, nullptr,
                            nullptr, &cells);
  // A row of the band holds at most 2 * (xdrop / gap_extend + 2) + 1 +
  // |n2 - n1| columns and at least one.
  const std::size_t n1 = ext.e1 - ext.s1;
  const std::size_t n2 = ext.e2 - ext.s2;
  const std::size_t width = 2 * (p.xdrop_gapped / p.gap_extend + 2) + 1 +
                            (n1 > n2 ? n1 - n2 : n2 - n1);
  EXPECT_GE(cells, n1);
  EXPECT_LE(cells, n1 * width);
  (void)banded_global_stats(a, 5, 5, b, 5, 9, p, nullptr, nullptr, &cells);
  EXPECT_EQ(cells, 0u);
}

}  // namespace
}  // namespace scoris::align
