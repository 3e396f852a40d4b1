// Property-based tests: parameterized sweeps over seed lengths, scoring
// systems, divergence levels and thread counts, checking the invariants
// the ORIS design rests on.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "align/classic.hpp"
#include "align/gapped.hpp"
#include "blast/blastn.hpp"
#include "core/ordered_extend.hpp"
#include "core/pipeline.hpp"
#include "index/bank_index.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris {
namespace {

using align::Hsp;
using index::BankIndex;
using index::SeedCode;
using index::SeedCoder;

std::vector<Hsp> ordered_hsps(const BankIndex& i1, const BankIndex& i2,
                              int min_score,
                              const align::ScoringParams& params) {
  std::vector<Hsp> out;
  for (SeedCode c = 0; c < i1.coder().num_seeds(); ++c) {
    if (i1.occurrence_count(c) == 0 || i2.occurrence_count(c) == 0) continue;
    i1.for_each(c, [&](seqio::Pos p1) {
      i2.for_each(c, [&](seqio::Pos p2) {
        const auto o = core::extend_ordered(i1, i2, p1, p2, c, params);
        if (o.hsp.has_value() && o.hsp->score >= min_score) {
          out.push_back(*o.hsp);
        }
      });
    });
  }
  return out;
}

// --- invariant 1: HSP uniqueness across W and divergence -----------------------

class UniquenessSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UniquenessSweep, NoDuplicateHspCoordinates) {
  const auto [w, seed] = GetParam();
  simulate::Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  // Repeat-rich input to stress the order rule: a repeated element plus
  // homologous copies.
  const auto element = simulate::random_codes(rng, 60);
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s0", element + simulate::random_codes(rng, 150) + element);
  b1.add_codes("s1", simulate::mutate(
                         rng, element,
                         simulate::MutationModel::with_divergence(0.05)));
  b2.add_codes("t0", element);
  b2.add_codes("t1", simulate::mutate(
                         rng, element,
                         simulate::MutationModel::with_divergence(0.08)));

  const SeedCoder coder(w);
  const BankIndex i1(b1, coder), i2(b2, coder);
  const auto hsps = ordered_hsps(i1, i2, w + 2, align::ScoringParams{});
  std::set<std::tuple<seqio::Pos, seqio::Pos, seqio::Pos, seqio::Pos>> seen;
  for (const auto& h : hsps) {
    EXPECT_TRUE(seen.insert(std::tuple(h.s1, h.e1, h.s2, h.e2)).second)
        << "duplicate with w=" << w << " seed=" << seed;
  }
  EXPECT_FALSE(hsps.empty());
}

INSTANTIATE_TEST_SUITE_P(
    SeedLengthsAndSeeds, UniquenessSweep,
    ::testing::Combine(::testing::Values(6, 8, 10, 11),
                       ::testing::Range(1, 6)));

// --- invariant 2: ORIS HSPs are a subset of plain-extension results -------------

class SubsetSweep : public ::testing::TestWithParam<int> {};

TEST_P(SubsetSweep, OrderedResultsAreBruteForceResults) {
  simulate::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const auto base = simulate::random_codes(rng, 200);
  const auto copy = simulate::mutate(
      rng, base, simulate::MutationModel::with_divergence(0.06));
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", base);
  b2.add_codes("s", copy);

  const int w = 8;
  const align::ScoringParams params;
  const SeedCoder coder(w);
  const BankIndex i1(b1, coder), i2(b2, coder);
  const auto ordered = ordered_hsps(i1, i2, 12, params);
  const auto brute =
      scoris::testing::brute_force_hsps(b1.data(), b2.data(), w, 12, params);

  const auto key = [](const Hsp& h) {
    return std::tuple(h.s1, h.e1, h.s2, h.e2, h.score);
  };
  std::set<std::tuple<seqio::Pos, seqio::Pos, seqio::Pos, seqio::Pos,
                      std::int32_t>>
      brute_set;
  for (const auto& h : brute) brute_set.insert(key(h));
  for (const auto& h : ordered) {
    EXPECT_TRUE(brute_set.count(key(h)))
        << "ordered HSP not in brute-force set, seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsetSweep, ::testing::Range(1, 11));

// --- invariant 3: HSP scores never beat the ungapped optimum --------------------

class ScoreBoundSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScoreBoundSweep, HspScoreBoundedByOptimalUngapped) {
  simulate::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  const auto a = simulate::random_codes(rng, 180);
  const auto b = simulate::mutate(
      rng, a, simulate::MutationModel::with_divergence(0.05));
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", a);
  b2.add_codes("s", b);
  const align::ScoringParams params;
  const SeedCoder coder(9);
  const BankIndex i1(b1, coder), i2(b2, coder);
  const auto hsps = ordered_hsps(i1, i2, 9, params);
  const auto best = align::best_ungapped_local(a, b, params);
  for (const auto& h : hsps) {
    EXPECT_LE(h.score, best.score) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreBoundSweep, ::testing::Range(1, 9));

// --- invariant 4: gapped score sandwich -----------------------------------------

class GappedBoundSweep : public ::testing::TestWithParam<int> {};

TEST_P(GappedBoundSweep, GappedExtensionBoundedByGotohOptimum) {
  simulate::Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537);
  const auto a = simulate::random_codes(rng, 160);
  const auto b = simulate::mutate(
      rng, a, simulate::MutationModel::with_divergence(0.07));
  const align::ScoringParams params;
  // Extension from the middle of both sequences.
  const auto ext = align::extend_gapped(
      a, b, static_cast<seqio::Pos>(a.size() / 2),
      static_cast<seqio::Pos>(b.size() / 2), params);
  const auto optimum = align::gotoh_local(a, b, params);
  EXPECT_LE(ext.score, optimum.score) << GetParam();
  // And the banded-stats recomputation can only improve on the x-drop path.
  std::int32_t recomputed = 0;
  (void)align::banded_global_stats(a, ext.s1, ext.e1, b, ext.s2, ext.e2,
                                   params, &recomputed);
  EXPECT_GE(recomputed, ext.score) << GetParam();
  EXPECT_LE(recomputed, optimum.score) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GappedBoundSweep, ::testing::Range(1, 13));

// --- invariant 5: pipeline determinism across configurations --------------------

class DeterminismSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DeterminismSweep, IdenticalRunsIdenticalResults) {
  const auto [threads, asymmetric] = GetParam();
  simulate::Rng rng(87);
  const auto hp = simulate::make_homologous_pair(rng, 400, 6, 5, 0.05);
  core::Options opt;
  opt.threads = threads;
  opt.asymmetric = asymmetric;
  const auto r1 = core::Pipeline(opt).run(hp.bank1, hp.bank2);
  const auto r2 = core::Pipeline(opt).run(hp.bank1, hp.bank2);
  ASSERT_EQ(r1.alignments.size(), r2.alignments.size());
  for (std::size_t i = 0; i < r1.alignments.size(); ++i) {
    EXPECT_EQ(r1.alignments[i].s1, r2.alignments[i].s1);
    EXPECT_EQ(r1.alignments[i].score, r2.alignments[i].score);
    EXPECT_DOUBLE_EQ(r1.alignments[i].evalue, r2.alignments[i].evalue);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadAsymGrid, DeterminismSweep,
    ::testing::Combine(::testing::Values(1, 3), ::testing::Bool()));

// --- invariant 6: scoring sweeps keep statistics consistent ---------------------

class ScoringSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ScoringSweep, PipelineEvaluesMatchKarlinFormula) {
  const auto [match, mismatch] = GetParam();
  simulate::Rng rng(91);
  const auto hp = simulate::make_homologous_pair(rng, 400, 3, 3, 0.03);
  core::Options opt;
  opt.dust = false;
  opt.scoring.match = match;
  opt.scoring.mismatch = mismatch;
  opt.min_hsp_score = 20 * match;
  const core::Pipeline pipe(opt);
  const auto r = pipe.run(hp.bank1, hp.bank2);
  ASSERT_FALSE(r.alignments.empty());
  for (const auto& a : r.alignments) {
    const double expect = stats::evalue(
        pipe.karlin(), a.score,
        static_cast<double>(hp.bank1.total_bases()),
        static_cast<double>(hp.bank2.length(a.seq2)));
    EXPECT_DOUBLE_EQ(a.evalue, expect);
    EXPECT_NEAR(a.bitscore, stats::bit_score(pipe.karlin(), a.score), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(MatchMismatch, ScoringSweep,
                         ::testing::Values(std::pair{1, 2}, std::pair{1, 3},
                                           std::pair{1, 4}, std::pair{2, 3}));

// --- invariant 7: both programs see the same alignment universe -----------------

class ProgramAgreementSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProgramAgreementSweep, StrongAlignmentsFoundByBoth) {
  simulate::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2047 + 5);
  const auto hp = simulate::make_homologous_pair(rng, 600, 10, 8, 0.04);
  core::Options sopt;
  sopt.dust = false;
  blast::BlastOptions bopt;
  bopt.dust = false;
  const auto sr = core::Pipeline(sopt).run(hp.bank1, hp.bank2);
  const auto br = blast::BlastN(bopt).run(hp.bank1, hp.bank2);
  // Every planted pair is strong (4% divergence over 600 nt): both
  // programs must find all of them regardless of tuning differences.
  const auto pairs_of = [](const auto& alignments) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> out;
    for (const auto& a : alignments) out.insert({a.seq1, a.seq2});
    return out;
  };
  const auto sp = pairs_of(sr.alignments);
  const auto bp = pairs_of(br.alignments);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(sp.count({i, i})) << "SCORIS missed pair " << i;
    EXPECT_TRUE(bp.count({i, i})) << "BLAST missed pair " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramAgreementSweep, ::testing::Range(1, 6));

}  // namespace
}  // namespace scoris
