// Tests for complementary-strand search (the paper's announced next
// feature): seqio::reverse_complement, minus-strand pipeline runs, m8
// coordinate mapping, and strand-aware sensitivity comparison.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/session.hpp"
#include "blast/blastn.hpp"
#include "compare/m8.hpp"
#include "compare/sensitivity.hpp"
#include "seqio/strand.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris {
namespace {

using seqio::Strand;

seqio::SequenceBank rc_planted_pair(simulate::Rng& rng,
                                    const simulate::CodeString& base,
                                    double divergence) {
  // bank2 sequence = reverse complement of a mutated copy of base.
  auto copy = simulate::mutate(
      rng, base, simulate::MutationModel::with_divergence(divergence));
  std::reverse(copy.begin(), copy.end());
  for (auto& c : copy) c = seqio::complement(c);
  seqio::SequenceBank bank("rc2");
  bank.add_codes("rc_seq", copy);
  return bank;
}

// --- reverse_complement -----------------------------------------------------

TEST(ReverseComplement, SmallKnownCase) {
  seqio::SequenceBank bank;
  bank.add("s", "AACGTT");
  const auto rc = seqio::reverse_complement(bank);
  EXPECT_EQ(rc.bases(0), "AACGTT");  // palindrome
  seqio::SequenceBank bank2;
  bank2.add("s", "AAACCC");
  EXPECT_EQ(seqio::reverse_complement(bank2).bases(0), "GGGTTT");
}

TEST(ReverseComplement, InvolutionAndMetadata) {
  simulate::Rng rng(301);
  seqio::SequenceBank bank("orig");
  for (int i = 0; i < 4; ++i) {
    bank.add_codes("seq" + std::to_string(i),
                   simulate::random_codes(rng, 100 + 17 * static_cast<std::size_t>(i)));
  }
  const auto rc = seqio::reverse_complement(bank);
  const auto back = seqio::reverse_complement(rc);
  ASSERT_EQ(rc.size(), bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    EXPECT_EQ(rc.seq_name(i), bank.seq_name(i));
    EXPECT_EQ(rc.length(i), bank.length(i));
    EXPECT_EQ(back.bases(i), bank.bases(i));
  }
}

TEST(ReverseComplement, PreservesAmbiguity) {
  seqio::SequenceBank bank;
  bank.add("s", "ACGNT");
  EXPECT_EQ(seqio::reverse_complement(bank).bases(0), "ANCGT");
}

// --- pipeline strand modes ----------------------------------------------------

TEST(StrandSearch, PlusMissesMinusHomology) {
  simulate::Rng rng(307);
  const auto base = simulate::random_codes(rng, 500);
  seqio::SequenceBank b1("b1");
  b1.add_codes("query", base);
  const auto b2 = rc_planted_pair(rng, base, 0.03);

  core::Options plus;
  plus.dust = false;
  const auto rp = Session(b1, plus).search_collect(b2);
  EXPECT_EQ(rp.alignments.size(), 0u);
}

TEST(StrandSearch, MinusFindsMinusHomology) {
  simulate::Rng rng(311);
  const auto base = simulate::random_codes(rng, 500);
  seqio::SequenceBank b1("b1");
  b1.add_codes("query", base);
  const auto b2 = rc_planted_pair(rng, base, 0.03);

  core::Options minus;
  minus.dust = false;
  minus.strand = Strand::kMinus;
  const auto rm = Session(b1, minus).search_collect(b2);
  ASSERT_GE(rm.alignments.size(), 1u);
  for (const auto& a : rm.alignments) EXPECT_TRUE(a.minus);
}

TEST(StrandSearch, BothFindsBothStrands) {
  simulate::Rng rng(313);
  const auto plus_base = simulate::random_codes(rng, 400);
  const auto minus_base = simulate::random_codes(rng, 400);
  seqio::SequenceBank b1("b1");
  b1.add_codes("q_plus", plus_base);
  b1.add_codes("q_minus", minus_base);

  seqio::SequenceBank b2("b2");
  // Plus-strand partner for q_plus.
  b2.add_codes("s_plus",
               simulate::mutate(rng, plus_base,
                                simulate::MutationModel::with_divergence(0.03)));
  // Minus-strand partner for q_minus.
  auto rc = simulate::mutate(rng, minus_base,
                             simulate::MutationModel::with_divergence(0.03));
  std::reverse(rc.begin(), rc.end());
  for (auto& c : rc) c = seqio::complement(c);
  b2.add_codes("s_minus", rc);

  core::Options both;
  both.dust = false;
  both.strand = Strand::kBoth;
  const auto r = Session(b1, both).search_collect(b2);
  bool plus_found = false, minus_found = false;
  for (const auto& a : r.alignments) {
    if (!a.minus && a.seq1 == 0 && a.seq2 == 0) plus_found = true;
    if (a.minus && a.seq1 == 1 && a.seq2 == 1) minus_found = true;
  }
  EXPECT_TRUE(plus_found);
  EXPECT_TRUE(minus_found);
}

TEST(StrandSearch, M8MinusCoordinatesMapBack) {
  // Exact RC copy: the m8 record must cover the full subject with
  // sstart = L (alignment start) and send = 1.
  simulate::Rng rng(317);
  const auto base = simulate::random_codes(rng, 300);
  seqio::SequenceBank b1("b1");
  b1.add_codes("q", base);
  seqio::SequenceBank b2("b2");
  auto rc = base;
  std::reverse(rc.begin(), rc.end());
  for (auto& c : rc) c = seqio::complement(c);
  b2.add_codes("s", rc);

  core::Options minus;
  minus.dust = false;
  minus.strand = Strand::kMinus;
  const auto r = Session(b1, minus).search_collect(b2);
  ASSERT_GE(r.alignments.size(), 1u);
  const auto rec = compare::to_m8(r.alignments[0], b1, b2);
  EXPECT_GT(rec.sstart, rec.send);  // minus-strand convention
  EXPECT_EQ(rec.qstart, 1u);
  EXPECT_EQ(rec.qend, 300u);
  EXPECT_EQ(rec.sstart, 300u);
  EXPECT_EQ(rec.send, 1u);
  EXPECT_DOUBLE_EQ(rec.pident, 100.0);
}

TEST(StrandSearch, M8MinusPartialCoordinates) {
  // RC homology on an internal segment: verify the mapped subject interval
  // actually contains the planted segment.
  simulate::Rng rng(331);
  const auto segment = simulate::random_codes(rng, 120);
  const auto qflank1 = simulate::random_codes(rng, 200);
  const auto qflank2 = simulate::random_codes(rng, 180);
  seqio::SequenceBank b1("b1");
  b1.add_codes("q", qflank1 + segment + qflank2);

  auto rc_seg = segment;
  std::reverse(rc_seg.begin(), rc_seg.end());
  for (auto& c : rc_seg) c = seqio::complement(c);
  const auto sflank1 = simulate::random_codes(rng, 150);
  const auto sflank2 = simulate::random_codes(rng, 250);
  seqio::SequenceBank b2("b2");
  b2.add_codes("s", sflank1 + rc_seg + sflank2);

  core::Options minus;
  minus.dust = false;
  minus.strand = Strand::kMinus;
  const auto r = Session(b1, minus).search_collect(b2);
  ASSERT_GE(r.alignments.size(), 1u);
  const auto rec = compare::to_m8(r.alignments[0], b1, b2);
  // Query interval covers the planted segment [201, 320] (1-based).
  EXPECT_LE(rec.qstart, 201u);
  EXPECT_GE(rec.qend, 320u);
  // Subject (minus): rc_seg occupies original positions [151, 270]; with
  // sstart > send the interval is [send, sstart] = at least that range.
  EXPECT_GE(rec.sstart, 270u);
  EXPECT_LE(rec.send, 151u);
}

TEST(StrandSearch, BlastNAgreesOnMinusStrand) {
  simulate::Rng rng(337);
  const auto base = simulate::random_codes(rng, 600);
  seqio::SequenceBank b1("b1");
  b1.add_codes("q", base);
  const auto b2 = rc_planted_pair(rng, base, 0.04);

  core::Options sopt;
  sopt.dust = false;
  sopt.strand = Strand::kBoth;
  blast::BlastOptions bopt;
  bopt.dust = false;
  bopt.strand = Strand::kBoth;
  const auto sr = Session(b1, sopt).search_collect(b2);
  const auto br = blast::BlastN(bopt).run(b1, b2);
  ASSERT_GE(sr.alignments.size(), 1u);
  ASSERT_GE(br.alignments.size(), 1u);
  EXPECT_TRUE(sr.alignments[0].minus);
  EXPECT_TRUE(br.alignments[0].minus);
}

TEST(StrandSearch, EquivalenceRequiresSameStrand) {
  compare::M8Record plus_rec;
  plus_rec.qseqid = "q";
  plus_rec.sseqid = "s";
  plus_rec.qstart = 1;
  plus_rec.qend = 100;
  plus_rec.sstart = 1;
  plus_rec.send = 100;
  compare::M8Record minus_rec = plus_rec;
  minus_rec.sstart = 100;
  minus_rec.send = 1;
  EXPECT_TRUE(compare::equivalent(plus_rec, plus_rec));
  EXPECT_TRUE(compare::equivalent(minus_rec, minus_rec));
  EXPECT_FALSE(compare::equivalent(plus_rec, minus_rec));
}

TEST(StrandSearch, BothStrandStatsAggregate) {
  simulate::Rng rng(341);
  const auto hp = simulate::make_homologous_pair(rng, 400, 4, 3, 0.05);
  core::Options plus;
  plus.dust = false;
  core::Options both = plus;
  both.strand = Strand::kBoth;
  const auto rp = Session(hp.bank1, plus).search_collect(hp.bank2);
  const auto rb = Session(hp.bank1, both).search_collect(hp.bank2);
  // Both-strand run does at least the plus-strand work.
  EXPECT_GE(rb.stats.hit_pairs, rp.stats.hit_pairs);
  EXPECT_GE(rb.alignments.size(), rp.alignments.size());
  // And finds every plus alignment.
  std::size_t plus_alignments = 0;
  for (const auto& a : rb.alignments) plus_alignments += a.minus ? 0 : 1;
  EXPECT_EQ(plus_alignments, rp.alignments.size());
}

}  // namespace
}  // namespace scoris
