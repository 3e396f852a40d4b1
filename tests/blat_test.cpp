// Tests for the BLAT configuration of the BLASTN baseline (tiled
// non-overlapping index) and for its two-hit trigger.
#include <gtest/gtest.h>

#include <set>

#include "api/session.hpp"
#include "blast/blastn.hpp"
#include "index/bank_index.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"

namespace scoris::blast {
namespace {

TEST(BlatLike, FindsHighIdentityHomology) {
  simulate::Rng rng(501);
  const auto hp = simulate::make_homologous_pair(rng, 800, 6, 5, 0.02);
  BlastOptions opt = blat_options();
  opt.dust = false;
  const auto r = BlastN(opt).run(hp.bank1, hp.bank2);
  std::set<std::pair<std::uint32_t, std::uint32_t>> found;
  for (const auto& a : r.alignments) found.insert({a.seq1, a.seq2});
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(found.count({i, i})) << i;
  }
}

TEST(BlatLike, TiledIndexIsSmaller) {
  simulate::Rng rng(503);
  seqio::SequenceBank bank("b");
  bank.add_codes("s", simulate::random_codes(rng, 50000));
  const index::SeedCoder coder(11);
  const index::BankIndex full(bank, coder);
  index::IndexOptions tiled;
  tiled.stride = 11;
  const index::BankIndex blat_idx(bank, coder, tiled);
  // ~1/11 of the word positions.
  EXPECT_NEAR(static_cast<double>(blat_idx.total_indexed()),
              static_cast<double>(full.total_indexed()) / 11.0,
              static_cast<double>(full.total_indexed()) * 0.01 + 5);
}

TEST(BlatLike, FewerHitsThanBlastN) {
  simulate::Rng rng(507);
  const auto hp = simulate::make_homologous_pair(rng, 1000, 8, 6, 0.03);
  BlastOptions blat_opt = blat_options();
  blat_opt.dust = false;
  BlastOptions blast_opt;
  blast_opt.dust = false;
  const auto rb = BlastN(blat_opt).run(hp.bank1, hp.bank2);
  const auto rn = BlastN(blast_opt).run(hp.bank1, hp.bank2);
  EXPECT_LT(rb.stats.hit_pairs, rn.stats.hit_pairs);
}

TEST(BlatLike, LowerSensitivityOnDivergedSequences) {
  // At high divergence the W-grid tiling misses regions a full index
  // catches: BLAT-like finds at most as many pairs as SCORIS-N, typically
  // fewer.
  simulate::Rng rng(509);
  const auto hp = simulate::make_homologous_pair(rng, 300, 30, 30, 0.10);
  core::Options sopt;
  sopt.dust = false;
  BlastOptions bopt = blat_options();
  bopt.dust = false;
  const auto sr = Session(hp.bank1, sopt).search_collect(hp.bank2);
  const auto br = BlastN(bopt).run(hp.bank1, hp.bank2);

  const auto pairs_of = [](const auto& alignments) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> out;
    for (const auto& a : alignments) out.insert({a.seq1, a.seq2});
    return out;
  };
  const auto sp = pairs_of(sr.alignments);
  const auto bp = pairs_of(br.alignments);
  EXPECT_LE(bp.size(), sp.size());
  EXPECT_GE(sp.size(), 25u);  // SCORIS-N finds nearly all planted pairs
}

TEST(BlatLike, NoiseClean) {
  simulate::Rng rng(511);
  seqio::SequenceBank b1("n1"), b2("n2");
  b1.add_codes("x", simulate::random_codes(rng, 4000));
  b2.add_codes("y", simulate::random_codes(rng, 4000));
  const auto r = BlastN(blat_options()).run(b1, b2);
  EXPECT_EQ(r.alignments.size(), 0u);
}

TEST(BlatLike, MinusStrandSupported) {
  simulate::Rng rng(513);
  const auto base = simulate::random_codes(rng, 600);
  seqio::SequenceBank b1("b1");
  b1.add_codes("q", base);
  auto rc = base;
  std::reverse(rc.begin(), rc.end());
  for (auto& c : rc) c = seqio::complement(c);
  seqio::SequenceBank b2("b2");
  b2.add_codes("s", rc);

  BlastOptions opt = blat_options();
  opt.dust = false;
  opt.strand = seqio::Strand::kBoth;
  const auto r = BlastN(opt).run(b1, b2);
  ASSERT_GE(r.alignments.size(), 1u);
  EXPECT_TRUE(r.alignments[0].minus);
}

// --- two-hit trigger ------------------------------------------------------------

TEST(TwoHit, ReducesExtensionsOnNoise) {
  simulate::Rng rng(517);
  seqio::SequenceBank b1("n1"), b2("n2");
  b1.add_codes("x", simulate::random_codes(rng, 30000));
  b2.add_codes("y", simulate::random_codes(rng, 30000));
  BlastOptions one_hit;
  one_hit.dust = false;
  BlastOptions two_hit = one_hit;
  two_hit.two_hit = true;
  const auto r1 = BlastN(one_hit).run(b1, b2);
  const auto r2 = BlastN(two_hit).run(b1, b2);
  EXPECT_GT(r2.stats.two_hit_deferred, 0u);
  // Isolated random word hits never get a partner: no HSPs at all.
  EXPECT_LE(r2.stats.hsps, r1.stats.hsps);
}

TEST(TwoHit, StillFindsStrongHomology) {
  simulate::Rng rng(519);
  const auto hp = simulate::make_homologous_pair(rng, 800, 6, 5, 0.02);
  BlastOptions opt;
  opt.dust = false;
  opt.two_hit = true;
  const auto r = BlastN(opt).run(hp.bank1, hp.bank2);
  std::set<std::pair<std::uint32_t, std::uint32_t>> found;
  for (const auto& a : r.alignments) found.insert({a.seq1, a.seq2});
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(found.count({i, i})) << i;
  }
}

}  // namespace
}  // namespace scoris::blast
