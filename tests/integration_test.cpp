// End-to-end integration tests: FASTA files in, m8 out, both programs,
// plus determinism and cross-program agreement on paper-shaped data.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "api/session.hpp"
#include "blast/blastn.hpp"
#include "compare/m8.hpp"
#include "compare/sensitivity.hpp"
#include "seqio/fasta.hpp"
#include "simulate/generators.hpp"
#include "simulate/paper_datasets.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris {
namespace {

/// Write a homologous bank pair to FASTA files and return the paths.
std::pair<std::string, std::string> write_pair_fasta(
    const simulate::HomologousPair& hp, const std::string& tag) {
  const std::string p1 = ::testing::TempDir() + "/scoris_" + tag + "_1.fa";
  const std::string p2 = ::testing::TempDir() + "/scoris_" + tag + "_2.fa";
  seqio::write_fasta_file(p1, hp.bank1);
  seqio::write_fasta_file(p2, hp.bank2);
  return {p1, p2};
}

TEST(Integration, FastaToM8EndToEnd) {
  simulate::Rng rng(201);
  const auto hp = simulate::make_homologous_pair(rng, 500, 6, 4, 0.04);
  const auto [p1, p2] = write_pair_fasta(hp, "e2e");

  const auto bank1 = seqio::read_fasta_file(p1);
  const auto bank2 = seqio::read_fasta_file(p2);
  ASSERT_EQ(bank1.size(), hp.bank1.size());

  const core::Result r = Session(bank1).search_collect(bank2);
  ASSERT_GE(r.alignments.size(), 4u);

  std::ostringstream m8;
  compare::write_m8(m8, r.alignments, bank1, bank2);
  const auto recs = compare::parse_m8(m8.str());
  ASSERT_EQ(recs.size(), r.alignments.size());
  // Every record references real sequence names and sane coordinates.
  for (const auto& rec : recs) {
    EXPECT_LE(rec.qstart, rec.qend);
    EXPECT_LE(rec.sstart, rec.send);
    EXPECT_GT(rec.pident, 80.0);
    EXPECT_LE(rec.evalue, 1e-3);
  }
}

TEST(Integration, DeterministicM8Output) {
  simulate::Rng rng(203);
  const auto hp = simulate::make_homologous_pair(rng, 400, 8, 6, 0.07);
  const auto run_once = [&]() {
    const core::Result r = Session(hp.bank1).search_collect(hp.bank2);
    std::ostringstream m8;
    compare::write_m8(m8, r.alignments, hp.bank1, hp.bank2);
    return m8.str();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Integration, ScorisAndBlastAgreeOnPaperShapedEstBanks) {
  // Miniature version of the paper's section-3.4 comparison on EST banks.
  const simulate::PaperData data(0.002, 77);
  const auto est1 = data.make("EST1");
  const auto est2 = data.make("EST2");

  const core::Result sr = Session(est1).search_collect(est2);
  const blast::BlastResult br = blast::BlastN().run(est1, est2);

  std::vector<compare::M8Record> sc, bl;
  for (const auto& a : sr.alignments) sc.push_back(compare::to_m8(a, est1, est2));
  for (const auto& a : br.alignments) bl.push_back(compare::to_m8(a, est1, est2));

  // Both must find a meaningful number of alignments at this scale.
  ASSERT_GT(sc.size(), 10u);
  ASSERT_GT(bl.size(), 10u);
  const auto sens = compare::compare_results(sc, bl);
  // Paper reports ~3-4% mutual misses; allow generous slack at tiny scale.
  EXPECT_LT(sens.a_miss_pct(), 15.0);
  EXPECT_LT(sens.b_miss_pct(), 15.0);
}

TEST(Integration, ChromosomeVsBacteriaNearlyEmpty) {
  // Paper: H10 vs BCT -> 0 alignments, H19 vs BCT -> 11 (of 500k+ space).
  const simulate::PaperData data(0.002, 77);
  const auto h19 = data.make("H19");
  const auto bct = data.make("BCT");
  const core::Result r = Session(h19).search_collect(bct);
  EXPECT_LE(r.alignments.size(), 5u);
}

TEST(Integration, SelfComparisonFindsSelfAlignments) {
  // Comparing a bank against itself: every sequence matches itself on the
  // main diagonal; the pipeline must survive this degenerate case.
  simulate::Rng rng(207);
  seqio::SequenceBank bank("self");
  for (int i = 0; i < 3; ++i) {
    bank.add_codes(testing::numbered("s", i),
                   simulate::random_codes(rng, 300));
  }
  const core::Result r = Session(bank).search_collect(bank);
  // At least the three full-length self alignments.
  std::size_t self_hits = 0;
  for (const auto& a : r.alignments) {
    if (a.seq1 == a.seq2 && a.stats.matches >= 299) ++self_hits;
  }
  EXPECT_EQ(self_hits, 3u);
}

TEST(Integration, AsymmetricRecoversGappyAlignments) {
  // Paper section 3.4: asymmetric 10-nt indexing recovers alignments whose
  // substitution pattern prevents 11-nt seeds from occurring.
  simulate::Rng rng(211);
  auto base = simulate::random_codes(rng, 220);
  auto copy = base;
  // Substitution every 11 bases: match runs of exactly 10, so no 11-mer
  // seed exists anywhere but every run carries a 10-mer.
  for (std::size_t p = 10; p < copy.size(); p += 11) {
    copy[p] = static_cast<seqio::Code>((copy[p] + 1) & 3);
  }
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", base);
  b2.add_codes("s", copy);

  core::Options w11;
  w11.dust = false;
  core::Options asym = w11;
  asym.asymmetric = true;
  asym.min_hsp_score = 15;

  const auto r11 = Session(b1, w11).search_collect(b2);
  const auto ra = Session(b1, asym).search_collect(b2);
  EXPECT_EQ(r11.alignments.size(), 0u);  // 11-nt seeds cannot anchor
  EXPECT_GE(ra.alignments.size(), 1u);   // 10-nt asymmetric seeds can
}

TEST(Integration, LargeishRandomBanksStayClean) {
  // Stress: 100 KB x 100 KB of pure noise through both programs; neither
  // may report anything at e <= 1e-3, and both must finish quickly.
  simulate::Rng rng(213);
  seqio::SequenceBank b1("big1"), b2("big2");
  for (int i = 0; i < 50; ++i) {
    b1.add_codes(testing::numbered("a", i), simulate::random_codes(rng, 2000));
    b2.add_codes(testing::numbered("b", i), simulate::random_codes(rng, 2000));
  }
  const core::Result sr = Session(b1).search_collect(b2);
  const blast::BlastResult br = blast::BlastN().run(b1, b2);
  EXPECT_EQ(sr.alignments.size(), 0u);
  EXPECT_EQ(br.alignments.size(), 0u);
  // The baseline scans 8-mer lookup hits, so it examines far more
  // candidates than ORIS's full-width dictionary produces.
  EXPECT_GT(br.stats.hit_pairs, sr.stats.hit_pairs);
}

}  // namespace
}  // namespace scoris
