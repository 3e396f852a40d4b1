// Tests for src/index: seed coding (the paper's order), rolling updates,
// and the dictionary + chain bank index.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "index/seed_coder.hpp"
#include "simulate/generators.hpp"
#include "simulate/paper_datasets.hpp"
#include "simulate/rng.hpp"
#include "store/index_store.hpp"
#include "test_helpers.hpp"

namespace scoris::index {
namespace {

using scoris::testing::codes_of;

// --- SeedCoder -----------------------------------------------------------------

TEST(SeedCoder, PaperEncodingLittleEndian) {
  // codeSEED(S) = sum 4^i * codeNT(S_i): first character has weight 4^0.
  const SeedCoder coder(3);
  // "CAA" -> C*1 + A*4 + A*16 = 1.
  EXPECT_EQ(coder.encode("CAA"), 1u);
  // "ACA" -> 0 + 1*4 + 0 = 4.
  EXPECT_EQ(coder.encode("ACA"), 4u);
  // "GGG" -> 3*(1+4+16) = 63.
  EXPECT_EQ(coder.encode("GGG"), 63u);
  // "TAA" -> 2 (T = 10b).
  EXPECT_EQ(coder.encode("TAA"), 2u);
}

TEST(SeedCoder, OrderFollowsPaperNucleotideOrder) {
  const SeedCoder coder(2);
  // With A<C<T<G and little-endian weighting, "AA" < "CA" < "TA" < "GA"
  // (first char least significant!) and "AA" < "AC".
  EXPECT_LT(coder.encode("AA"), coder.encode("CA"));
  EXPECT_LT(coder.encode("CA"), coder.encode("TA"));
  EXPECT_LT(coder.encode("TA"), coder.encode("GA"));
  EXPECT_LT(coder.encode("GA"), coder.encode("AC"));
}

TEST(SeedCoder, DecodeRoundTrip) {
  const SeedCoder coder(5);
  for (const char* word : {"ACGTA", "GGGGG", "TTTTT", "CATGC"}) {
    EXPECT_EQ(coder.decode(coder.encode(word)), word);
  }
}

TEST(SeedCoder, NumSeeds) {
  EXPECT_EQ(SeedCoder(1).num_seeds(), 4u);
  EXPECT_EQ(SeedCoder(11).num_seeds(), 4194304u);
  EXPECT_EQ(SeedCoder(13).num_seeds(), 67108864u);
}

TEST(SeedCoder, RejectsBadW) {
  EXPECT_THROW(SeedCoder(0), std::invalid_argument);
  EXPECT_THROW(SeedCoder(16), std::invalid_argument);
}

TEST(SeedCoder, CodeAtHandlesAmbiguityAndBounds) {
  const SeedCoder coder(4);
  const auto codes = codes_of("ACGTNACGT");
  EXPECT_TRUE(coder.code_at(codes, 0).has_value());
  EXPECT_FALSE(coder.code_at(codes, 1).has_value());  // window covers N
  EXPECT_FALSE(coder.code_at(codes, 3).has_value());
  EXPECT_TRUE(coder.code_at(codes, 5).has_value());
  EXPECT_FALSE(coder.code_at(codes, 6).has_value());  // out of range
}

TEST(SeedCoder, RollRightMatchesRecompute) {
  simulate::Rng rng(5);
  const auto s = simulate::random_codes(rng, 200);
  const SeedCoder coder(11);
  SeedCode code = coder.code_unchecked(s, 0);
  for (std::size_t p = 1; p + 11 <= s.size(); ++p) {
    code = coder.roll_right(code, s[p + 10]);
    EXPECT_EQ(code, coder.code_unchecked(s, p)) << p;
  }
}

TEST(SeedCoder, RollLeftMatchesRecompute) {
  simulate::Rng rng(7);
  const auto s = simulate::random_codes(rng, 200);
  const SeedCoder coder(9);
  SeedCode code = coder.code_unchecked(s, s.size() - 9);
  for (std::size_t p = s.size() - 9; p-- > 0;) {
    code = coder.roll_left(code, s[p]);
    EXPECT_EQ(code, coder.code_unchecked(s, p)) << p;
  }
}

TEST(SeedCoder, EncodeRejectsBadInput) {
  const SeedCoder coder(4);
  EXPECT_THROW((void)coder.encode("ACG"), std::invalid_argument);   // wrong length
  EXPECT_THROW((void)coder.encode("ACGN"), std::invalid_argument);  // non-ACGT
}

// --- BankIndex -----------------------------------------------------------------

seqio::SequenceBank small_bank() {
  seqio::SequenceBank bank("idx");
  bank.add("s0", "ACGTACGTACGT");
  bank.add("s1", "TTTTACGTTTTT");
  return bank;
}

TEST(BankIndex, FindsAllOccurrencesInAscendingOrder) {
  const auto bank = small_bank();
  const SeedCoder coder(4);
  const BankIndex idx(bank, coder);
  const SeedCode acgt = coder.encode("ACGT");
  std::vector<seqio::Pos> occ;
  idx.for_each(acgt, [&](seqio::Pos p) { occ.push_back(p); });
  // s0 has ACGT at local 0,4,8; s1 at local 4.
  const auto o0 = bank.offset(0);
  const auto o1 = bank.offset(1);
  const std::vector<seqio::Pos> expected = {o0, o0 + 4, o0 + 8, o1 + 4};
  EXPECT_EQ(occ, expected);
  EXPECT_EQ(idx.occurrence_count(acgt), 4u);
}

TEST(BankIndex, MatchesNaiveEnumerationOnRandomBank) {
  simulate::Rng rng(11);
  seqio::SequenceBank bank("rand");
  for (int i = 0; i < 5; ++i) {
    const auto s = simulate::random_codes(rng, 300 + rng.next_below(200));
    bank.add_codes(testing::numbered("s", i), s);
  }
  const SeedCoder coder(6);
  const BankIndex idx(bank, coder);

  // Naive: every word start by direct scan.
  std::map<SeedCode, std::vector<seqio::Pos>> naive;
  const auto data = bank.data();
  for (std::size_t p = 0; p + 6 <= data.size(); ++p) {
    if (const auto c = coder.code_at(data, p)) {
      naive[*c].push_back(static_cast<seqio::Pos>(p));
    }
  }
  std::size_t total = 0;
  for (const auto& [code, positions] : naive) {
    std::vector<seqio::Pos> got;
    idx.for_each(code, [&](seqio::Pos p) { got.push_back(p); });
    EXPECT_EQ(got, positions) << "code " << code;
    total += positions.size();
  }
  EXPECT_EQ(idx.total_indexed(), total);
  EXPECT_EQ(idx.distinct_seeds(), naive.size());
}

TEST(BankIndex, NeverIndexesAcrossSentinels) {
  seqio::SequenceBank bank;
  bank.add("a", "ACGTAC");  // words of length 4: positions 0..2 only
  bank.add("b", "GTACGT");
  const SeedCoder coder(4);
  const BankIndex idx(bank, coder);
  // Every indexed position must be >= its sequence offset and leave room
  // for a whole word inside the sequence.
  for (SeedCode c = 0; c < coder.num_seeds(); ++c) {
    idx.for_each(c, [&](seqio::Pos p) {
      const auto sid = bank.seq_of_pos(p);
      EXPECT_LE(p + 4, bank.offset(sid) + bank.length(sid));
    });
  }
}

TEST(BankIndex, SkipsAmbiguousWindows) {
  seqio::SequenceBank bank;
  bank.add("a", "ACGTNACGTA");
  const SeedCoder coder(4);
  const BankIndex idx(bank, coder);
  // Valid word starts: local 0 (ACGT) and 5..6 (ACGT, CGTA).
  EXPECT_EQ(idx.total_indexed(), 3u);
}

TEST(BankIndex, StrideTwoHalvesTheIndex) {
  simulate::Rng rng(13);
  seqio::SequenceBank bank;
  bank.add_codes("s", simulate::random_codes(rng, 4000));
  const SeedCoder coder(8);
  const BankIndex full(bank, coder);
  IndexOptions opt;
  opt.stride = 2;
  const BankIndex half(bank, coder, opt);
  EXPECT_NEAR(static_cast<double>(half.total_indexed()),
              static_cast<double>(full.total_indexed()) / 2.0,
              static_cast<double>(full.total_indexed()) * 0.02 + 2);
  // Stride-indexed positions are a subset of full positions at even
  // sequence-local coordinates.
  for (SeedCode c = 0; c < coder.num_seeds(); ++c) {
    half.for_each(c, [&](seqio::Pos p) {
      EXPECT_EQ((p - bank.offset(bank.seq_of_pos(p))) % 2, 0u);
      EXPECT_TRUE(full.is_indexed(p));
    });
  }
}

TEST(BankIndex, StrideIsSequenceLocal) {
  // Two banks: one where the sequence is preceded by another of odd
  // length.  The stride-2 word set of that sequence must be identical in
  // both (local offsets, not global parity).
  simulate::Rng rng(131);
  const auto target = simulate::random_codes(rng, 200);
  seqio::SequenceBank solo, shifted;
  solo.add_codes("t", target);
  shifted.add_codes("pad", simulate::random_codes(rng, 33));  // odd shift
  shifted.add_codes("t", target);

  const SeedCoder coder(8);
  IndexOptions opt;
  opt.stride = 2;
  const BankIndex idx_solo(solo, coder, opt);
  const BankIndex idx_shifted(shifted, coder, opt);

  const auto local_words = [&](const BankIndex& idx,
                               const seqio::SequenceBank& bank,
                               std::size_t seq) {
    std::vector<std::size_t> out;
    for (SeedCode c = 0; c < coder.num_seeds(); ++c) {
      idx.for_each(c, [&](seqio::Pos p) {
        if (bank.seq_of_pos(p) == seq) out.push_back(p - bank.offset(seq));
      });
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(local_words(idx_solo, solo, 0), local_words(idx_shifted, shifted, 1));
}

TEST(BankIndex, MaskExcludesWords) {
  seqio::SequenceBank bank;
  bank.add("a", std::string(50, 'A') + "ACGTACGTACGT");
  const filter::MaskBitmap mask = filter::dust_mask(bank);
  ASSERT_GT(mask.count(), 0u);
  const SeedCoder coder(4);
  IndexOptions opt;
  opt.mask = &mask;
  const BankIndex idx(bank, coder, opt);
  const BankIndex unmasked(bank, coder);
  EXPECT_LT(idx.total_indexed(), unmasked.total_indexed());
  // No indexed word may overlap a masked position.
  for (SeedCode c = 0; c < coder.num_seeds(); ++c) {
    idx.for_each(c, [&](seqio::Pos p) { EXPECT_FALSE(mask.any_in(p, 4)); });
  }
}

TEST(BankIndex, IsIndexedConsistentWithChains) {
  simulate::Rng rng(17);
  seqio::SequenceBank bank;
  bank.add_codes("s", simulate::random_codes(rng, 1000));
  const SeedCoder coder(7);
  const BankIndex idx(bank, coder);
  filter::MaskBitmap seen(bank.data_size());
  for (SeedCode c = 0; c < coder.num_seeds(); ++c) {
    idx.for_each(c, [&](seqio::Pos p) { seen.set(p); });
  }
  for (std::size_t p = 0; p < bank.data_size(); ++p) {
    EXPECT_EQ(idx.is_indexed(static_cast<seqio::Pos>(p)), seen.test(p)) << p;
  }
}

TEST(BankIndex, MemoryApproximatelyFiveBytesPerNucleotide) {
  // The paper (3.1): "The index structure required for storing a bank of
  // size N is approximately equal to 5 x N bytes" (4 bytes INDEX chain +
  // 1 byte SEQ) plus the 4^W dictionary.
  simulate::Rng rng(19);
  seqio::SequenceBank bank;
  bank.add_codes("s", simulate::random_codes(rng, 500000));
  const SeedCoder coder(11);
  const BankIndex idx(bank, coder);
  const double n = static_cast<double>(bank.total_bases());
  const double chain_bytes = static_cast<double>(idx.memory_bytes()) -
                             4.0 * static_cast<double>(coder.num_seeds());
  const double per_nt =
      (chain_bytes + static_cast<double>(bank.data_size())) / n;
  EXPECT_NEAR(per_nt, 5.0, 0.25);
}

TEST(BankIndex, RejectsHugeW) {
  seqio::SequenceBank bank;
  bank.add("a", "ACGT");
  EXPECT_THROW(BankIndex(bank, SeedCoder(14)), std::invalid_argument);
}

TEST(BankIndex, RejectsBadOptions) {
  seqio::SequenceBank bank;
  bank.add("a", "ACGTACGT");
  IndexOptions opt;
  opt.stride = 0;
  EXPECT_THROW(BankIndex(bank, SeedCoder(4), opt), std::invalid_argument);
  filter::MaskBitmap wrong(3);
  IndexOptions opt2;
  opt2.mask = &wrong;
  EXPECT_THROW(BankIndex(bank, SeedCoder(4), opt2), std::invalid_argument);
}

TEST(BankIndex, EmptyAndTinyBanks) {
  seqio::SequenceBank bank;
  const SeedCoder coder(5);
  const BankIndex empty_idx(bank, coder);
  EXPECT_EQ(empty_idx.total_indexed(), 0u);
  seqio::SequenceBank tiny;
  tiny.add("t", "ACG");  // shorter than W
  const BankIndex tiny_idx(tiny, coder);
  EXPECT_EQ(tiny_idx.total_indexed(), 0u);
}

// --- pins: the bytes of paper-bank builds ----------------------------------
//
// The tests above compare a build with oracles on small banks.  These pin
// the absolute arrays of DUST-masked PaperData(0.01, 42) builds, and the
// bytes of a .scix file, so a rewrite of the build cannot move them.
// Re-pinning is a hand edit whose reason goes in CHANGES.md.

/// 64-bit FNV-1a over the bytes of `values`.
template <typename T>
std::uint64_t fnv_of(std::span<const T> values) {
  return testing::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(values.data()), values.size_bytes()));
}

struct IndexPin {
  const char* bank;
  int w;
  int dust_level;
  std::uint64_t offsets_fnv;
  std::uint64_t positions_fnv;
  std::uint64_t bitmap_fnv;
  std::size_t total_indexed;
  std::size_t distinct_seeds;
  std::size_t masked_bases;
};

const seqio::SequenceBank& paper_bank(const std::string& name) {
  static const simulate::PaperData data(0.01, 42);
  static const seqio::SequenceBank est5 = data.make("EST5");
  static const seqio::SequenceBank bct = data.make("BCT");
  return name == "EST5" ? est5 : bct;
}

TEST(IndexPins, PaperBanksKeepTheirArrays) {
  const IndexPin pins[] = {
      {"EST5", 8, 20, 0x9751407c96c0af48ull, 0xd1b9628396a67434ull,
       0x0eb5fe4b4954d724ull, 251277, 56788, 0},
      {"EST5", 11, 20, 0xff8cd83a5172ced4ull, 0x8bbb9a0e6f5c626aull,
       0x240b974f1dd4c3fcull, 249570, 139769, 0},
      {"BCT", 8, 20, 0x057a376b7a309ee8ull, 0x7cd2451cb5a95798ull,
       0xe62a6ff38232455cull, 980986, 65536, 0},
      {"BCT", 11, 20, 0x4ece11dbdab33405ull, 0x112f69d6c10a03d5ull,
       0xe751c1225fd7d443ull, 980980, 872831, 0},
      // DUST masks nothing in these banks at its default level 20, so
      // two rows mask at level 10.
      {"EST5", 11, 10, 0x739a7c2b65db7a07ull, 0x1ec71f32a9daa532ull,
       0x38f088bf51cf39e3ull, 248116, 138856, 1282},
      {"BCT", 9, 10, 0xe9a0433dee4c8365ull, 0x62aad9469ad18497ull,
       0x304bb3a4ac03a729ull, 970372, 255567, 9612},
  };
  for (const IndexPin& pin : pins) {
    std::string trace(pin.bank);
    trace += testing::numbered(" w=", static_cast<std::uint64_t>(pin.w));
    trace += testing::numbered(" dust level ",
                               static_cast<std::uint64_t>(pin.dust_level));
    SCOPED_TRACE(trace);
    const seqio::SequenceBank& bank = paper_bank(pin.bank);
    filter::DustParams dust;
    dust.level = pin.dust_level;
    const filter::MaskBitmap mask = filter::dust_mask(bank, dust);
    IndexOptions opt;
    opt.mask = &mask;
    const BankIndex idx(bank, SeedCoder(pin.w), opt);
    const std::span<const std::uint64_t> bitmap(idx.indexed_bitmap().words());
    EXPECT_EQ(fnv_of(idx.occurrence_offsets()), pin.offsets_fnv);
    EXPECT_EQ(fnv_of(idx.occurrence_positions()), pin.positions_fnv);
    EXPECT_EQ(fnv_of(bitmap), pin.bitmap_fnv);
    EXPECT_EQ(idx.total_indexed(), pin.total_indexed);
    EXPECT_EQ(idx.distinct_seeds(), pin.distinct_seeds);
    EXPECT_EQ(idx.masked_bases(), pin.masked_bases);
  }
}

TEST(IndexPins, ScixFileKeepsItsBytes) {
  // The default search key, and a stride-2 unmasked W = 9 payload.
  store::IndexKey stride2;
  stride2.w = 9;
  stride2.stride = 2;
  stride2.dust = false;
  const std::vector<store::IndexKey> keys = {store::IndexKey{}, stride2};
  const std::string path = ::testing::TempDir() + "index_pins.scix";
  store::write_index_file(path, paper_bank("EST5"), keys);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), 19465405u);
  EXPECT_EQ(testing::fnv1a64(bytes), 0x196ef2d575d8664full);
}

}  // namespace
}  // namespace scoris::index
