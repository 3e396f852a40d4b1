// Tests for binary serialization of banks (.scob).
#include <gtest/gtest.h>

#include <sstream>

#include "seqio/serialize.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"

namespace scoris {
namespace {

seqio::SequenceBank make_bank(std::uint64_t seed, int nseq) {
  simulate::Rng rng(seed);
  seqio::SequenceBank bank("serialized_bank");
  for (int i = 0; i < nseq; ++i) {
    bank.add_codes("seq_" + std::to_string(i),
                   simulate::random_codes(rng, 100 + rng.next_below(400)));
  }
  return bank;
}

TEST(BankSerialize, RoundTripIdentity) {
  const auto bank = make_bank(701, 7);
  std::stringstream buf;
  seqio::save_bank(buf, bank);
  const auto back = seqio::load_bank(buf);
  EXPECT_EQ(back.name(), bank.name());
  ASSERT_EQ(back.size(), bank.size());
  EXPECT_EQ(back.total_bases(), bank.total_bases());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    EXPECT_EQ(back.seq_name(i), bank.seq_name(i));
    EXPECT_EQ(back.bases(i), bank.bases(i));
    EXPECT_EQ(back.offset(i), bank.offset(i));
  }
  // Code arrays (including sentinels) must be byte-identical.
  const auto a = bank.data();
  const auto b = back.data();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(BankSerialize, PreservesAmbiguousBases) {
  seqio::SequenceBank bank("amb");
  bank.add("s", "ACGTNNNACGT");
  std::stringstream buf;
  seqio::save_bank(buf, bank);
  EXPECT_EQ(seqio::load_bank(buf).bases(0), "ACGTNNNACGT");
}

TEST(BankSerialize, FileRoundTrip) {
  const auto bank = make_bank(703, 3);
  const std::string path = ::testing::TempDir() + "/scoris_bank.scob";
  seqio::save_bank_file(path, bank);
  const auto back = seqio::load_bank_file(path);
  EXPECT_EQ(back.size(), bank.size());
  EXPECT_EQ(back.bases(0), bank.bases(0));
}

TEST(BankSerialize, RejectsGarbage) {
  std::stringstream buf("not a bank at all");
  EXPECT_THROW((void)seqio::load_bank(buf), std::runtime_error);
}

TEST(BankSerialize, RejectsTruncated) {
  const auto bank = make_bank(707, 4);
  std::stringstream buf;
  seqio::save_bank(buf, bank);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)seqio::load_bank(cut), std::runtime_error);
}

TEST(BankSerialize, RejectsFutureVersionExplicitly) {
  const auto bank = make_bank(708, 2);
  std::stringstream buf;
  seqio::save_bank(buf, bank);
  std::string blob = buf.str();
  blob[4] = 99;  // version u32 starts right after the 4-byte magic
  std::stringstream patched(blob);
  try {
    (void)seqio::load_bank(patched);
    FAIL() << "bank from the future accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

TEST(BankSerialize, RejectsCorruptPayloadByChecksum) {
  const auto bank = make_bank(710, 3);
  std::stringstream buf;
  seqio::save_bank(buf, bank);
  std::string blob = buf.str();
  // Flip one byte in the middle of the SEQS payload (header is 12 bytes,
  // section framing 16): without the CRC this would load as a silently
  // different bank.
  blob[blob.size() / 2] ^= 0x01;
  std::stringstream patched(blob);
  try {
    (void)seqio::load_bank(patched);
    FAIL() << "corrupt bank accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

}  // namespace
}  // namespace scoris
