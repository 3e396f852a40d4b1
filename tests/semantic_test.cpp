// Semantic validation: every alignment either program reports must be a
// *true* alignment of the underlying sequences — the reported coordinates,
// identity and score must be reproducible from the raw bases.  This guards
// against coordinate-mapping, strand, and statistics bugs end to end.
#include <gtest/gtest.h>

#include <algorithm>

#include "align/classic.hpp"
#include "api/session.hpp"
#include "blast/blastn.hpp"
#include "compare/m8.hpp"
#include "seqio/strand.hpp"
#include "simulate/generators.hpp"
#include "simulate/paper_datasets.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris {
namespace {

/// Extract the subject bases referenced by an m8 record, reverse-
/// complementing when the record is on the minus strand.
std::string subject_bases(const compare::M8Record& rec,
                          const seqio::SequenceBank& bank2,
                          std::size_t seq_id) {
  const std::string all = bank2.bases(seq_id);
  if (rec.sstart <= rec.send) {
    return all.substr(rec.sstart - 1, rec.send - rec.sstart + 1);
  }
  // Minus strand: take [send, sstart] and reverse complement.
  std::string seg = all.substr(rec.send - 1, rec.sstart - rec.send + 1);
  std::reverse(seg.begin(), seg.end());
  for (auto& c : seg) {
    switch (c) {
      case 'A': c = 'T'; break;
      case 'T': c = 'A'; break;
      case 'C': c = 'G'; break;
      case 'G': c = 'C'; break;
      default: break;
    }
  }
  return seg;
}

/// Validate every record of a result set against the banks: the referenced
/// substrings must globally align with at least `rec.pident` - slack
/// identity (slack covers the heuristic-vs-optimal path difference).
void validate_records(const std::vector<align::GappedAlignment>& alignments,
                      const seqio::SequenceBank& bank1,
                      const seqio::SequenceBank& bank2) {
  std::map<std::string, std::size_t> id_by_name;
  for (std::size_t i = 0; i < bank2.size(); ++i) {
    id_by_name[bank2.seq_name(i)] = i;
  }
  for (const auto& a : alignments) {
    const auto rec = compare::to_m8(a, bank1, bank2);
    // Coordinates must be in range and consistent.
    ASSERT_GE(rec.qstart, 1u);
    ASSERT_LE(rec.qend, bank1.length(a.seq1));
    ASSERT_LE(std::max(rec.sstart, rec.send), bank2.length(a.seq2));
    ASSERT_GE(std::min(rec.sstart, rec.send), 1u);

    const std::string q = bank1.bases(a.seq1).substr(
        rec.qstart - 1, rec.qend - rec.qstart + 1);
    const std::string s = subject_bases(rec, bank2, a.seq2);

    // Recompute the alignment of the two substrings with the exact local
    // Gotoh aligner: its score must reach the reported raw score.
    const auto qc = seqio::encode(q);
    const auto sc = seqio::encode(s);
    const auto optimum = align::gotoh_local(qc, sc, align::ScoringParams{});
    EXPECT_GE(optimum.score, a.score)
        << bank1.seq_name(a.seq1) << " vs " << bank2.seq_name(a.seq2);

    // And the reported statistics must be internally consistent.
    EXPECT_EQ(a.stats.length,
              a.stats.matches + a.stats.mismatches + a.stats.gap_columns);
    EXPECT_GE(a.stats.length, rec.qend - rec.qstart + 1);
    const align::ScoringParams p;
    const std::int64_t reconstructed =
        static_cast<std::int64_t>(a.stats.matches) * p.match -
        static_cast<std::int64_t>(a.stats.mismatches) * p.mismatch -
        static_cast<std::int64_t>(a.stats.gap_opens) * p.gap_open -
        static_cast<std::int64_t>(a.stats.gap_columns) * p.gap_extend;
    EXPECT_EQ(reconstructed, a.score);
  }
}

TEST(Semantic, ScorisAlignmentsAreRealPlusStrand) {
  simulate::Rng rng(1001);
  const auto hp = simulate::make_homologous_pair(rng, 500, 8, 6, 0.06);
  core::Options opt;
  opt.dust = false;
  const auto r = Session(hp.bank1, opt).search_collect(hp.bank2);
  ASSERT_GE(r.alignments.size(), 6u);
  validate_records(r.alignments, hp.bank1, hp.bank2);
}

TEST(Semantic, ScorisAlignmentsAreRealBothStrands) {
  simulate::Rng rng(1003);
  const auto base1 = simulate::random_codes(rng, 400);
  const auto base2 = simulate::random_codes(rng, 400);
  seqio::SequenceBank b1("b1");
  b1.add_codes("p", base1);
  b1.add_codes("m", base2);
  seqio::SequenceBank b2("b2");
  b2.add_codes("sp", simulate::mutate(
                         rng, base1,
                         simulate::MutationModel::with_divergence(0.04)));
  auto rc = simulate::mutate(rng, base2,
                             simulate::MutationModel::with_divergence(0.04));
  std::reverse(rc.begin(), rc.end());
  for (auto& c : rc) c = seqio::complement(c);
  b2.add_codes("sm", rc);

  core::Options opt;
  opt.dust = false;
  opt.strand = seqio::Strand::kBoth;
  const auto r = Session(b1, opt).search_collect(b2);
  ASSERT_GE(r.alignments.size(), 2u);
  bool saw_minus = false;
  for (const auto& a : r.alignments) saw_minus |= a.minus;
  EXPECT_TRUE(saw_minus);
  validate_records(r.alignments, b1, b2);
}

TEST(Semantic, BlastAlignmentsAreReal) {
  simulate::Rng rng(1007);
  const auto hp = simulate::make_homologous_pair(rng, 600, 6, 5, 0.05);
  blast::BlastOptions opt;
  opt.dust = false;
  const auto r = blast::BlastN(opt).run(hp.bank1, hp.bank2);
  ASSERT_GE(r.alignments.size(), 5u);
  // NOTE: the baseline uses different x-drops, so only validate with its
  // own scoring (identical pair model, so the checks above still apply
  // except score reconstruction uses default params — recompute here).
  for (const auto& a : r.alignments) {
    EXPECT_EQ(a.stats.length,
              a.stats.matches + a.stats.mismatches + a.stats.gap_columns);
    EXPECT_GT(a.stats.percent_identity(), 80.0);
    const auto rec = compare::to_m8(a, hp.bank1, hp.bank2);
    EXPECT_EQ(rec.length, a.stats.length);
  }
}

TEST(Semantic, PaperBankRunSurvivesValidation) {
  const simulate::PaperData data(0.002, 99);
  const auto est1 = data.make("EST1");
  const auto est2 = data.make("EST2");
  core::Options opt;
  const auto r = Session(est1, opt).search_collect(est2);
  ASSERT_GE(r.alignments.size(), 10u);
  // Validate a sample (full validation is quadratic in alignment length).
  std::vector<align::GappedAlignment> sample;
  for (std::size_t i = 0; i < r.alignments.size(); i += 7) {
    sample.push_back(r.alignments[i]);
  }
  validate_records(sample, est1, est2);
}

TEST(Semantic, PidentMatchesRecomputedColumns) {
  // pident in m8 must equal matches/length exactly.
  simulate::Rng rng(1013);
  const auto hp = simulate::make_homologous_pair(rng, 300, 4, 4, 0.08);
  core::Options opt;
  opt.dust = false;
  const auto r = Session(hp.bank1, opt).search_collect(hp.bank2);
  for (const auto& a : r.alignments) {
    const auto rec = compare::to_m8(a, hp.bank1, hp.bank2);
    EXPECT_NEAR(rec.pident,
                100.0 * a.stats.matches / static_cast<double>(a.stats.length),
                0.01);
    EXPECT_EQ(rec.mismatch, a.stats.mismatches);
    EXPECT_EQ(rec.gapopen, a.stats.gap_opens);
  }
}

}  // namespace
}  // namespace scoris
