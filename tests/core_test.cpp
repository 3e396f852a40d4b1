// Tests for src/core: the ordered extension (the ORIS key idea), HSP
// uniqueness invariants, the gapped stage, and the full pipeline.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "core/gapped_stage.hpp"
#include "core/ordered_extend.hpp"
#include "core/pipeline.hpp"
#include "index/bank_index.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris::core {
namespace {

using align::Hsp;
using index::BankIndex;
using index::SeedCode;
using index::SeedCoder;
using scoris::testing::codes_of;

/// Run a raw step-2 enumeration (all codes, all occurrence pairs, ordered
/// extension) and return every emitted HSP.  This is the algorithmic core
/// the pipeline wraps; tests drive it directly to check invariants.
std::vector<Hsp> enumerate_ordered_hsps(const BankIndex& idx1,
                                        const BankIndex& idx2, int min_score,
                                        const align::ScoringParams& params,
                                        std::size_t* aborts = nullptr) {
  std::vector<Hsp> out;
  for (SeedCode code = 0; code < idx1.coder().num_seeds(); ++code) {
    if (idx1.occurrence_count(code) == 0 || idx2.occurrence_count(code) == 0) {
      continue;
    }
    idx1.for_each(code, [&](seqio::Pos p1) {
      idx2.for_each(code, [&](seqio::Pos p2) {
        const auto o = extend_ordered(idx1, idx2, p1, p2, params);
        if (!o.hsp.has_value()) {
          if (aborts != nullptr) ++*aborts;
          return;
        }
        if (o.hsp->score >= min_score) out.push_back(*o.hsp);
      });
    });
  }
  return out;
}


// --- ordered extension ---------------------------------------------------------

TEST(OrderedExtend, SharedRegionYieldsExactlyOneHsp) {
  // Identical 40-nt region: W=8 gives 33 anchor pairs on the same diagonal;
  // the order rule must keep exactly one.
  simulate::Rng rng(3);
  const auto region = simulate::random_codes(rng, 40);
  const auto flank1 = simulate::random_codes(rng, 30);
  const auto flank2 = simulate::random_codes(rng, 30);
  const auto flank3 = simulate::random_codes(rng, 30);
  const auto flank4 = simulate::random_codes(rng, 30);

  seqio::SequenceBank b1("b1");
  b1.add_codes("s1", flank1 + region + flank2);
  seqio::SequenceBank b2("b2");
  b2.add_codes("s2", flank3 + region + flank4);

  const SeedCoder coder(8);
  const BankIndex i1(b1, coder), i2(b2, coder);
  align::ScoringParams params;
  std::size_t aborts = 0;
  const auto hsps = enumerate_ordered_hsps(i1, i2, 20, params, &aborts);

  // Count HSPs covering the planted region (noise hits score < 20).
  std::size_t covering = 0;
  for (const auto& h : hsps) {
    if (h.score >= 38) ++covering;
  }
  EXPECT_EQ(covering, 1u);
  EXPECT_GT(aborts, 25u);  // almost every anchor pair aborted
}

TEST(OrderedExtend, NoDuplicateCoordinatesEver) {
  // Property: over random homologous banks, step 2 never emits two HSPs
  // with identical coordinates — the paper's central claim.
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull, 15ull}) {
    simulate::Rng rng(seed);
    const auto hp = simulate::make_homologous_pair(rng, 300, 4, 3, 0.04);
    const SeedCoder coder(8);
    const BankIndex i1(hp.bank1, coder), i2(hp.bank2, coder);
    const auto hsps = enumerate_ordered_hsps(i1, i2, 14, align::ScoringParams{});
    std::set<std::tuple<seqio::Pos, seqio::Pos, seqio::Pos, seqio::Pos>> seen;
    for (const auto& h : hsps) {
      const auto key = std::tuple(h.s1, h.e1, h.s2, h.e2);
      EXPECT_TRUE(seen.insert(key).second)
          << "duplicate HSP at seed " << seed << ": " << h.s1 << ".." << h.e1;
    }
  }
}

TEST(OrderedExtend, MatchesBruteForceSetOnCleanHomology) {
  // With widely-spaced substitutions, the ordered enumeration must produce
  // exactly the brute-force unique HSP set (same coordinates and scores).
  simulate::Rng rng(21);
  const auto base = simulate::random_codes(rng, 250);
  auto copy = base;
  // Substitutions every 60 bases: far enough apart for unambiguous HSPs.
  for (std::size_t p = 55; p < copy.size(); p += 60) {
    copy[p] = static_cast<seqio::Code>((copy[p] + 1) & 3);
  }
  seqio::SequenceBank b1("b1");
  b1.add_codes("s", base);
  seqio::SequenceBank b2("b2");
  b2.add_codes("s", copy);

  const int w = 9;
  const int min_score = 18;
  const SeedCoder coder(w);
  const BankIndex i1(b1, coder), i2(b2, coder);
  align::ScoringParams params;
  auto ordered = enumerate_ordered_hsps(i1, i2, min_score, params);

  auto brute = scoris::testing::brute_force_hsps(b1.data(), b2.data(), w,
                                                 min_score, params);
  const auto key = [](const Hsp& h) {
    return std::tuple(h.s1, h.e1, h.s2, h.e2, h.score);
  };
  std::sort(ordered.begin(), ordered.end(),
            [&](const Hsp& x, const Hsp& y) { return key(x) < key(y); });
  ASSERT_EQ(ordered.size(), brute.size());
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    EXPECT_EQ(key(ordered[i]), key(brute[i])) << i;
  }
}

TEST(OrderedExtend, SingleOccurrenceSeedBehavesLikePlainExtension) {
  // A unique seed with mismatched flanks: no other seed can abort it, so
  // the result equals the plain extension.
  const auto s1 = codes_of("CCCCCCCCACGTACTGGATCCCCCCCC");
  const auto s2 = codes_of("GGGGGGGGACGTACTGGATGGGGGGGG");
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", s1);
  b2.add_codes("s", s2);
  const SeedCoder coder(11);
  const BankIndex i1(b1, coder), i2(b2, coder);
  const auto hsps = enumerate_ordered_hsps(i1, i2, 5, align::ScoringParams{});
  ASSERT_EQ(hsps.size(), 1u);
  EXPECT_EQ(hsps[0].e1 - hsps[0].s1, 11u);
  EXPECT_EQ(hsps[0].score, 11);
}

TEST(OrderedExtend, AbortRespectsIndexMembership) {
  // Stride-2 indexing of bank2: a lower-code seed at an odd bank2 position
  // is not enumerable, so it must NOT abort — otherwise the HSP is lost.
  simulate::Rng rng(31);
  const auto region = simulate::random_codes(rng, 60);
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", region);
  b2.add_codes("s", region);

  const SeedCoder coder(8);
  const BankIndex i1(b1, coder);
  index::IndexOptions stride2;
  stride2.stride = 2;
  const BankIndex i2(b2, coder, stride2);

  const auto hsps = enumerate_ordered_hsps(i1, i2, 40, align::ScoringParams{});
  // The full-length HSP must still be found exactly once.
  ASSERT_EQ(hsps.size(), 1u);
  EXPECT_EQ(hsps[0].score, 60);
}

// --- gapped stage ---------------------------------------------------------------

TEST(GappedStage, MergesHspsOfOneGappedAlignment) {
  // Two HSP blocks separated by an insertion produce ONE gapped alignment:
  // the first HSP extends across the gap; the second is then contained.
  simulate::Rng rng(41);
  const auto block1 = simulate::random_codes(rng, 60);
  const auto block2 = simulate::random_codes(rng, 60);
  const auto ins = simulate::random_codes(rng, 2);
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", block1 + block2);
  b2.add_codes("s", block1 + ins + block2);

  const SeedCoder coder(11);
  const BankIndex i1(b1, coder), i2(b2, coder);
  auto hsps = enumerate_ordered_hsps(i1, i2, 25, align::ScoringParams{});
  ASSERT_GE(hsps.size(), 2u);  // one per block

  const auto karlin = stats::karlin_match_mismatch(1, 3);
  GappedStageOptions opt;
  opt.max_evalue = 1e5;  // no filtering in this test
  GappedStageStats st;
  const auto alignments =
      gapped_stage(hsps, b1, b2, karlin, opt, &st);
  ASSERT_EQ(alignments.size(), 1u);
  EXPECT_EQ(st.skipped_contained + st.exact_duplicates, hsps.size() - 1);
  const auto& a = alignments[0];
  EXPECT_EQ(a.e1 - a.s1, 120u);
  EXPECT_EQ(a.e2 - a.s2, 122u);
  EXPECT_EQ(a.stats.gap_columns, 2u);
  EXPECT_EQ(a.stats.gap_opens, 1u);
}

TEST(GappedStage, EvalueCutoffFilters) {
  // One weak alignment: a 25-nt exact shared segment inside ~2 kb banks.
  // Its e-value is ~1e-9..1e-6 — kept at 1e-3, rejected at 1e-30.
  simulate::Rng rng(43);
  const auto segment = simulate::random_codes(rng, 25);
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", simulate::random_codes(rng, 1000) + segment +
                        simulate::random_codes(rng, 975));
  b2.add_codes("s", simulate::random_codes(rng, 1000) + segment +
                        simulate::random_codes(rng, 975));

  const SeedCoder coder(11);
  const BankIndex i1(b1, coder), i2(b2, coder);
  auto hsps = enumerate_ordered_hsps(i1, i2, 20, align::ScoringParams{});
  ASSERT_FALSE(hsps.empty());
  const auto karlin = stats::karlin_match_mismatch(1, 3);

  GappedStageOptions strict;
  strict.max_evalue = 1e-30;
  auto hsps_copy = hsps;
  const auto none = gapped_stage(hsps_copy, b1, b2, karlin, strict);
  GappedStageOptions normal;
  normal.max_evalue = 1e-3;
  const auto some = gapped_stage(hsps, b1, b2, karlin, normal);
  EXPECT_EQ(none.size(), 0u);
  ASSERT_GE(some.size(), 1u);
  for (const auto& a : some) {
    EXPECT_LE(a.evalue, 1e-3);
    EXPECT_GT(a.evalue, 1e-30);
  }
}

TEST(GappedStage, SortedByEvalue) {
  simulate::Rng rng(47);
  const auto hp = simulate::make_homologous_pair(rng, 400, 5, 5, 0.08);
  const SeedCoder coder(10);
  const BankIndex i1(hp.bank1, coder), i2(hp.bank2, coder);
  auto hsps = enumerate_ordered_hsps(i1, i2, 18, align::ScoringParams{});
  const auto karlin = stats::karlin_match_mismatch(1, 3);
  const auto alignments =
      gapped_stage(hsps, hp.bank1, hp.bank2, karlin, GappedStageOptions{});
  for (std::size_t i = 1; i < alignments.size(); ++i) {
    EXPECT_LE(alignments[i - 1].evalue, alignments[i].evalue);
  }
}

// --- pipeline --------------------------------------------------------------------

TEST(Pipeline, FindsPlantedHomology) {
  simulate::Rng rng(53);
  const auto hp = simulate::make_homologous_pair(rng, 600, 8, 5, 0.04);
  Options opt;
  opt.dust = false;  // clean random sequences, nothing to mask
  const Pipeline pipe(opt);
  const Result r = pipe.run(hp.bank1, hp.bank2);
  // Each planted pair produces at least one alignment between the right
  // sequence names.
  std::set<std::pair<std::uint32_t, std::uint32_t>> found;
  for (const auto& a : r.alignments) found.insert({a.seq1, a.seq2});
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(found.count({i, i})) << "planted pair " << i;
  }
  EXPECT_GE(r.stats.hsps, 5u);
  EXPECT_GT(r.stats.hit_pairs, 0u);
}

TEST(Pipeline, NoiseProducesNoAlignments) {
  simulate::Rng rng(59);
  seqio::SequenceBank b1("n1"), b2("n2");
  b1.add_codes("x", simulate::random_codes(rng, 5000));
  b2.add_codes("y", simulate::random_codes(rng, 5000));
  const Pipeline pipe;
  const Result r = pipe.run(b1, b2);
  EXPECT_EQ(r.alignments.size(), 0u);
}

TEST(Pipeline, ThreadCountInvariant) {
  simulate::Rng rng(61);
  const auto hp = simulate::make_homologous_pair(rng, 500, 10, 7, 0.06);
  Options opt1;
  opt1.threads = 1;
  Options opt4;
  opt4.threads = 4;
  const Result r1 = Pipeline(opt1).run(hp.bank1, hp.bank2);
  const Result r4 = Pipeline(opt4).run(hp.bank1, hp.bank2);
  ASSERT_EQ(r1.alignments.size(), r4.alignments.size());
  for (std::size_t i = 0; i < r1.alignments.size(); ++i) {
    const auto& x = r1.alignments[i];
    const auto& y = r4.alignments[i];
    EXPECT_EQ(std::tuple(x.s1, x.e1, x.s2, x.e2, x.score),
              std::tuple(y.s1, y.e1, y.s2, y.e2, y.score));
  }
  EXPECT_EQ(r1.stats.hit_pairs, r4.stats.hit_pairs);
  EXPECT_EQ(r1.stats.hsps, r4.stats.hsps);
}

TEST(Pipeline, OrderAblationSameAlignmentsMoreWork) {
  // enforce_order=false is the naive variant: it must produce the same
  // final alignments but report removed duplicate HSPs.
  simulate::Rng rng(67);
  // Include a repeated element to force duplicate-rich HSPs.
  const auto element = simulate::random_codes(rng, 80);
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", element + simulate::random_codes(rng, 100) + element);
  b2.add_codes("s", element);

  Options ordered_opt;
  ordered_opt.dust = false;
  Options naive_opt = ordered_opt;
  naive_opt.enforce_order = false;

  const Result ordered = Pipeline(ordered_opt).run(b1, b2);
  const Result naive = Pipeline(naive_opt).run(b1, b2);

  EXPECT_GT(naive.stats.duplicate_hsps, 0u);
  EXPECT_EQ(ordered.stats.duplicate_hsps, 0u);
  ASSERT_EQ(ordered.alignments.size(), naive.alignments.size());
  for (std::size_t i = 0; i < ordered.alignments.size(); ++i) {
    EXPECT_EQ(ordered.alignments[i].s1, naive.alignments[i].s1);
    EXPECT_EQ(ordered.alignments[i].e1, naive.alignments[i].e1);
  }
}

TEST(Pipeline, AsymmetricModeKeepsSensitivity) {
  simulate::Rng rng(71);
  const auto hp = simulate::make_homologous_pair(rng, 700, 6, 6, 0.05);
  Options sym;
  sym.dust = false;
  Options asym = sym;
  asym.asymmetric = true;
  Options sym10 = sym;
  sym10.w = 10;
  const Result rs = Pipeline(sym).run(hp.bank1, hp.bank2);
  const Result ra = Pipeline(asym).run(hp.bank1, hp.bank2);
  const Result r10 = Pipeline(sym10).run(hp.bank1, hp.bank2);
  (void)rs;
  // Asymmetric 10-nt indexing must find all planted pairs too.
  std::set<std::pair<std::uint32_t, std::uint32_t>> found;
  for (const auto& a : ra.alignments) found.insert({a.seq1, a.seq2});
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(found.count({i, i})) << i;
  }
  // Stride-2 halves the bank2 word set, so asymmetric sees fewer hit pairs
  // than a full 10-nt run.
  EXPECT_LT(ra.stats.hit_pairs, r10.stats.hit_pairs);
}

TEST(Pipeline, EvalueCutoffMonotonic) {
  simulate::Rng rng(73);
  const auto hp = simulate::make_homologous_pair(rng, 400, 6, 6, 0.10);
  Options loose;
  loose.dust = false;
  loose.max_evalue = 1e-1;
  Options tight = loose;
  tight.max_evalue = 1e-6;
  const auto rl = Pipeline(loose).run(hp.bank1, hp.bank2);
  const auto rt = Pipeline(tight).run(hp.bank1, hp.bank2);
  EXPECT_GE(rl.alignments.size(), rt.alignments.size());
}

TEST(Pipeline, DustSuppressesLowComplexityMatches) {
  simulate::Rng rng(79);
  // Both banks share only a low-complexity stretch (same dinucleotide
  // motif), surrounded by unrelated random flanks.
  simulate::Rng motif_rng(111);
  const auto motif_a = simulate::low_complexity_codes(motif_rng, 120, 2);
  const auto flank1 = simulate::random_codes(rng, 300);
  const auto flank2 = simulate::random_codes(rng, 300);
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", flank1 + motif_a);
  b2.add_codes("s", flank2 + motif_a);

  Options with_dust;
  with_dust.dust = true;
  Options no_dust;
  no_dust.dust = false;
  const auto masked = Pipeline(with_dust).run(b1, b2);
  const auto unmasked = Pipeline(no_dust).run(b1, b2);
  EXPECT_GT(masked.stats.masked_bases, 0u);
  EXPECT_LT(masked.stats.hit_pairs, unmasked.stats.hit_pairs);
  // The filter removes the low-complexity hits entirely...
  EXPECT_EQ(masked.alignments.size(), 0u);
  // ...which without masking flood the result set.
  EXPECT_GE(unmasked.alignments.size(), 1u);
}

TEST(Pipeline, StatsTimersPopulated) {
  simulate::Rng rng(83);
  const auto hp = simulate::make_homologous_pair(rng, 300, 3, 2, 0.05);
  const Result r = Pipeline().run(hp.bank1, hp.bank2);
  EXPECT_GE(r.stats.index_seconds, 0.0);
  EXPECT_GE(r.stats.hsp_seconds, 0.0);
  EXPECT_GE(r.stats.gapped_seconds, 0.0);
  EXPECT_GE(r.stats.total_seconds, r.stats.index_seconds);
  EXPECT_GT(r.stats.index_bytes, 0u);
  EXPECT_EQ(r.stats.alignments, r.alignments.size());
}

TEST(Pipeline, EffectiveWReflectsAsymmetric) {
  Options o;
  EXPECT_EQ(o.effective_w(), 11);
  o.asymmetric = true;
  EXPECT_EQ(o.effective_w(), 10);
}

}  // namespace
}  // namespace scoris::core
