// Tests for src/blast: the BLASTN-style baseline, and its agreement with
// SCORIS-N (the paper's section-3.4 expectation: a few percent mutual
// disagreement at most, on realistic inputs).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "api/session.hpp"
#include "blast/blastn.hpp"
#include "compare/m8.hpp"
#include "compare/sensitivity.hpp"
#include "seqio/strand.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"
#include "stats/karlin.hpp"
#include "test_helpers.hpp"

namespace scoris::blast {
namespace {

TEST(BlastN, FindsPlantedHomology) {
  simulate::Rng rng(101);
  const auto hp = simulate::make_homologous_pair(rng, 600, 8, 5, 0.04);
  BlastOptions opt;
  opt.dust = false;
  const BlastN blast(opt);
  const BlastResult r = blast.run(hp.bank1, hp.bank2);
  std::set<std::pair<std::uint32_t, std::uint32_t>> found;
  for (const auto& a : r.alignments) found.insert({a.seq1, a.seq2});
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(found.count({i, i})) << "planted pair " << i;
  }
}

TEST(BlastN, NoiseProducesNoAlignments) {
  simulate::Rng rng(103);
  seqio::SequenceBank b1("n1"), b2("n2");
  b1.add_codes("x", simulate::random_codes(rng, 5000));
  b2.add_codes("y", simulate::random_codes(rng, 5000));
  const BlastResult r = BlastN().run(b1, b2);
  EXPECT_EQ(r.alignments.size(), 0u);
}

TEST(BlastN, DiagPruningSkipsCoveredSeeds) {
  // A long identical region has many seeds on one diagonal; all but the
  // first must be skipped by the diagonal high-water mark.
  simulate::Rng rng(107);
  const auto region = simulate::random_codes(rng, 200);
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", region);
  b2.add_codes("s", region);
  const BlastResult r = BlastN().run(b1, b2);
  // The scan visits every 4th word start; all but the first hit on the
  // main diagonal fall inside the first extension and are skipped.
  EXPECT_GT(r.stats.diag_skipped, 30u);
  EXPECT_EQ(r.stats.hsps, 1u);
  ASSERT_EQ(r.alignments.size(), 1u);
  EXPECT_EQ(r.alignments[0].stats.matches, 200u);
}

TEST(BlastN, Statspopulated) {
  simulate::Rng rng(109);
  const auto hp = simulate::make_homologous_pair(rng, 300, 4, 2, 0.05);
  const BlastResult r = BlastN().run(hp.bank1, hp.bank2);
  EXPECT_GT(r.stats.hit_pairs, 0u);
  EXPECT_GT(r.stats.diag_array_bytes, 0u);
  EXPECT_GE(r.stats.total_seconds, 0.0);
  EXPECT_EQ(r.stats.alignments, r.alignments.size());
}

TEST(BlastN, BothStrandsAddEachStrandsGappedStats) {
  simulate::Rng rng(113);
  const auto hp = simulate::make_homologous_pair(rng, 400, 4, 3, 0.05);
  // Bank 2 holds both strands of every sequence, so each strand's run
  // finds homology and reaches the gapped stage.
  const seqio::SequenceBank rc = seqio::reverse_complement(hp.bank2);
  seqio::SequenceBank both("both");
  for (std::size_t i = 0; i < hp.bank2.size(); ++i) {
    both.add_codes(hp.bank2.seq_name(i), hp.bank2.codes(i));
    both.add_codes(testing::numbered("rc", i), rc.codes(i));
  }
  BlastOptions opt;
  opt.dust = false;
  const auto stats_of = [&](seqio::Strand strand) {
    opt.strand = strand;
    return BlastN(opt).run(hp.bank1, both).stats;
  };
  const BlastStats plus = stats_of(seqio::Strand::kPlus);
  const BlastStats minus = stats_of(seqio::Strand::kMinus);
  const BlastStats sum = stats_of(seqio::Strand::kBoth);
  ASSERT_GT(plus.gapped.gapped_extensions, 0u);
  ASSERT_GT(minus.gapped.gapped_extensions, 0u);

  core::GappedStageStats want = plus.gapped;
  want += minus.gapped;
  EXPECT_EQ(sum.gapped.hsps_in, want.hsps_in);
  EXPECT_EQ(sum.gapped.skipped_contained, want.skipped_contained);
  EXPECT_EQ(sum.gapped.gapped_extensions, want.gapped_extensions);
  EXPECT_EQ(sum.gapped.fast_path, want.fast_path);
  EXPECT_EQ(sum.gapped.second_dp, want.second_dp);
  EXPECT_EQ(sum.gapped.below_cutoff, want.below_cutoff);
  EXPECT_EQ(sum.gapped.exact_duplicates, want.exact_duplicates);
  EXPECT_EQ(sum.gapped.xdrop_cells, want.xdrop_cells);
  EXPECT_EQ(sum.gapped.band_cells, want.band_cells);
  // The strands run one after the other, so the larger table is the peak.
  EXPECT_EQ(sum.index_bytes, std::max(plus.index_bytes, minus.index_bytes));
  EXPECT_EQ(sum.diag_array_bytes,
            std::max(plus.diag_array_bytes, minus.diag_array_bytes));
  EXPECT_EQ(sum.alignments, plus.alignments + minus.alignments);
}

TEST(BlastN, RespectsEvalueCutoff) {
  simulate::Rng rng(113);
  const auto hp = simulate::make_homologous_pair(rng, 400, 6, 6, 0.10);
  BlastOptions loose;
  loose.max_evalue = 1e-1;
  BlastOptions tight;
  tight.max_evalue = 1e-9;
  const auto rl = BlastN(loose).run(hp.bank1, hp.bank2);
  const auto rt = BlastN(tight).run(hp.bank1, hp.bank2);
  EXPECT_GE(rl.alignments.size(), rt.alignments.size());
  for (const auto& a : rl.alignments) EXPECT_LE(a.evalue, 1e-1);
}

TEST(BlastN, AgreesWithScorisOnHomologousBanks) {
  // The paper's sensitivity claim: both programs find essentially the same
  // alignments, with a small mutual miss rate.
  simulate::Rng rng(127);
  const auto hp = simulate::make_homologous_pair(rng, 800, 20, 15, 0.06);

  core::Options sopt;
  sopt.dust = false;
  const core::Result sr = Session(hp.bank1, sopt).search_collect(hp.bank2);
  BlastOptions bopt;
  bopt.dust = false;
  const BlastResult br = BlastN(bopt).run(hp.bank1, hp.bank2);

  std::vector<compare::M8Record> sc;
  for (const auto& a : sr.alignments) {
    sc.push_back(compare::to_m8(a, hp.bank1, hp.bank2));
  }
  std::vector<compare::M8Record> bl;
  for (const auto& a : br.alignments) {
    bl.push_back(compare::to_m8(a, hp.bank1, hp.bank2));
  }
  ASSERT_GE(sc.size(), 15u);
  ASSERT_GE(bl.size(), 15u);
  const auto sens = compare::compare_results(sc, bl);
  EXPECT_LT(sens.a_miss_pct(), 10.0);  // SCORIS misses few of BLAST's
  EXPECT_LT(sens.b_miss_pct(), 10.0);  // BLAST misses few of SCORIS's
}

TEST(BlastN, SameScoringSubstrateAsScoris) {
  // Identical Karlin parameters => identical e-value for the same score.
  const BlastN blast;
  const core::Options scoris;
  const stats::KarlinParams karlin = stats::karlin_match_mismatch(
      scoris.scoring.match, scoris.scoring.mismatch);
  EXPECT_DOUBLE_EQ(blast.karlin().lambda, karlin.lambda);
  EXPECT_DOUBLE_EQ(blast.karlin().k, karlin.k);
}

TEST(BlastN, HandlesEmptyBanks) {
  seqio::SequenceBank empty1("e1"), empty2("e2");
  const BlastResult r = BlastN().run(empty1, empty2);
  EXPECT_EQ(r.alignments.size(), 0u);
}

}  // namespace
}  // namespace scoris::blast
