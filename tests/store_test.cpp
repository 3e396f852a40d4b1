// Tests for the persistent index store (src/store/): the shared container
// format, .scix roundtrip bit-identity against FASTA-built runs, artifact
// corruption/rejection, and chunked streaming against a loaded index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "api/sinks.hpp"
#include "compare/m8.hpp"
#include "filter/dust.hpp"
#include "simulate/generators.hpp"
#include "simulate/mutate.hpp"
#include "simulate/rng.hpp"
#include "store/format.hpp"
#include "store/index_store.hpp"
#include "test_helpers.hpp"

namespace scoris {
namespace {

seqio::SequenceBank make_bank(std::uint64_t seed, int nseq,
                              std::size_t min_len = 100) {
  simulate::Rng rng(seed);
  seqio::SequenceBank bank("store_bank");
  for (int i = 0; i < nseq; ++i) {
    bank.add_codes("seq_" + std::to_string(i),
                   simulate::random_codes(rng, min_len + rng.next_below(400)));
  }
  return bank;
}

/// A bank2 homologous to bank1 so the pipeline actually produces hits.
seqio::SequenceBank make_related_bank(const seqio::SequenceBank& bank1,
                                      std::uint64_t seed) {
  simulate::Rng rng(seed);
  seqio::SequenceBank bank2("store_bank2");
  const auto model = simulate::MutationModel::with_divergence(0.03);
  for (std::size_t i = 0; i < bank1.size(); ++i) {
    bank2.add_codes("mut_" + std::to_string(i),
                    simulate::mutate(rng, bank1.codes(i), model));
  }
  return bank2;
}

std::string store_blob(const seqio::SequenceBank& bank,
                       const std::vector<store::IndexKey>& keys) {
  std::stringstream buf;
  store::write_index(buf, bank, keys);
  return buf.str();
}

store::IndexStore load_blob(const std::string& blob) {
  std::stringstream buf(blob);
  return store::load_index(buf, "index store");
}

std::string m8_of(const std::vector<align::GappedAlignment>& alignments,
                  const seqio::SequenceBank& b1,
                  const seqio::SequenceBank& b2) {
  std::ostringstream os;
  compare::write_m8(os, alignments, b1, b2);
  return os.str();
}

/// The diagnostic of loading `blob`, or "" when it loads.
std::string load_error(const std::string& blob) {
  try {
    (void)load_blob(blob);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Bytes of a .scix blob's header plus its leading BANK section: the
/// 12-byte header, then [tag 4][len u64][crc u32][payload].
std::size_t bank_prefix_size(const std::string& blob) {
  std::uint64_t len = 0;
  for (int i = 0; i < 8; ++i) {
    len |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(blob[16 + i]))
           << (8 * i);
  }
  return 28 + static_cast<std::size_t>(len);
}

/// A w=8 index key, DUST on unless `dust` is false.
store::IndexKey w8_key(bool dust = true) {
  store::IndexKey key;
  key.w = 8;
  key.dust = dust;
  return key;
}

using IndexEdit = std::function<void(std::vector<std::uint32_t>& offsets,
                                     std::vector<std::int32_t>& positions)>;

/// A .scix blob for `bank` whose one INDX payload (w=8, stride 1, DUST
/// off) is written field by field through SectionWriter — so its CRC is
/// valid — from a fresh build's arrays after `edit` has changed them.
std::string crafted_blob(const seqio::SequenceBank& bank,
                         const IndexEdit& edit) {
  const store::IndexKey key = w8_key(/*dust=*/false);
  const std::string blob = store_blob(bank, {key});
  const index::BankIndex fresh(bank, index::SeedCoder(key.w));
  std::vector<std::uint32_t> offsets(fresh.occurrence_offsets().begin(),
                                     fresh.occurrence_offsets().end());
  std::vector<std::int32_t> positions(fresh.occurrence_positions().begin(),
                                      fresh.occurrence_positions().end());
  edit(offsets, positions);

  store::SectionWriter section(store::make_tag("INDX"));
  const auto w = static_cast<std::uint32_t>(key.w);
  for (const std::uint32_t field : {w, 1u, 0u, 0u, 0u}) {
    section.put_u32(field);  // w, stride, dust, window, level
  }
  section.put_u64(bank.data_size());
  section.put_u64(fresh.total_indexed());
  section.put_u64(fresh.distinct_seeds());
  section.put_u64(fresh.masked_bases());
  section.put_array(
      std::span<const std::uint64_t>(fresh.indexed_bitmap().words()));
  section.put_u64(fresh.indexed_bitmap().size());
  section.put_array(std::span<const std::uint32_t>(offsets));
  section.put_array(std::span<const std::int32_t>(positions));
  std::ostringstream os;
  os << blob.substr(0, bank_prefix_size(blob));
  section.finish(os);
  return os.str();
}

// --- container format -------------------------------------------------------

TEST(StoreFormat, Crc32MatchesKnownVector) {
  // The IEEE CRC-32 check value for the ASCII digits "123456789".
  const char digits[] = "123456789";
  EXPECT_EQ(store::crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(store::crc32(digits, 0), 0u);
}

TEST(StoreFormat, SectionRoundTrip) {
  store::SectionWriter writer(store::make_tag("TEST"));
  writer.put_u32(42);
  writer.put_string("hello");
  writer.put_u64(1234567890123ull);
  const std::vector<std::int32_t> values = {-1, 0, 7};
  writer.put_array(std::span<const std::int32_t>(values));
  std::stringstream buf;
  writer.finish(buf);

  store::SectionReader reader(buf, "test");
  EXPECT_TRUE(reader.is(store::make_tag("TEST")));
  EXPECT_EQ(reader.read_u32(), 42u);
  EXPECT_EQ(reader.read_string(), "hello");
  EXPECT_EQ(reader.read_u64(), 1234567890123ull);
  EXPECT_EQ(reader.read_array<std::int32_t>(), values);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(StoreFormat, OverreadingASectionThrows) {
  store::SectionWriter writer(store::make_tag("TINY"));
  writer.put_u32(1);
  std::stringstream buf;
  writer.finish(buf);
  store::SectionReader reader(buf, "test");
  (void)reader.read_u32();
  EXPECT_THROW((void)reader.read_u32(), std::runtime_error);
}

TEST(StoreFormat, ChecksumMismatchNamesTheSection) {
  store::SectionWriter writer(store::make_tag("SOME"));
  writer.put_u64(99);
  std::stringstream buf;
  store::write_header(buf, store::make_tag("XTST"), 1);
  writer.finish(buf);
  std::string blob = buf.str();
  ASSERT_TRUE(testing::corrupt_section(blob, "SOME"));

  std::stringstream cut(blob);
  (void)store::read_header(cut, store::make_tag("XTST"), 1, "test");
  try {
    store::SectionReader reader(cut, "test");
    FAIL() << "corrupt section accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("SOME"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(StoreFormat, ByteSwappedFileDiagnosedAsEndiannessNotVersion) {
  // A big-endian writer stores version 1 as 00 00 00 01 and the endian tag
  // as 04 03 02 01; the reader must blame byte order, not claim the file
  // is "version 16777216 from a newer scoris".
  std::stringstream buf;
  store::write_header(buf, store::make_tag("XTST"), 1);
  std::string blob = buf.str();
  std::swap(blob[4], blob[7]);
  std::swap(blob[5], blob[6]);
  std::swap(blob[8], blob[11]);
  std::swap(blob[9], blob[10]);
  std::stringstream swapped(blob);
  try {
    (void)store::read_header(swapped, store::make_tag("XTST"), 1, "test");
    FAIL() << "byte-swapped header accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("endianness"), std::string::npos)
        << e.what();
  }
}

TEST(StoreFormat, OlderVersionRejectedAsOutdated) {
  // Pre-endian-tag v1 banks/indexes exist in the wild; their version field
  // reads fine but the next bytes are payload, so the version must be
  // checked first and blamed as outdated — not as an endianness problem.
  std::stringstream buf;
  store::write_header(buf, store::make_tag("XTST"), 1);
  try {
    (void)store::read_header(buf, store::make_tag("XTST"), 2, "test");
    FAIL() << "older version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("older"), std::string::npos);
  }
}

TEST(StoreFormat, CorruptSectionLengthReadsAsTruncated) {
  // A flipped high bit in the framing's u64 length must be caught against
  // the real stream size before the payload allocation, not surface as a
  // bad_alloc from a multi-EB resize.
  store::SectionWriter writer(store::make_tag("LENX"));
  writer.put_u64(7);
  std::stringstream buf;
  writer.finish(buf);
  std::string blob = buf.str();
  blob[10] = static_cast<char>(blob[10] | 0x40);  // length bytes 4..11
  std::stringstream bad(blob);
  try {
    store::SectionReader reader(bad, "test");
    FAIL() << "corrupt length accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("LENX"), std::string::npos);
  }
}

TEST(StoreFormat, HugeArrayCountReadsAsTruncated) {
  // A crafted count like 2^61 would overflow n * sizeof(u64) past the
  // bounds guard; it must surface as the truncation diagnostic, not as a
  // bad_alloc from a 2 EB vector.
  store::SectionWriter writer(store::make_tag("HUGE"));
  writer.put_u64(std::uint64_t{1} << 61);  // count with no elements behind
  std::stringstream buf;
  writer.finish(buf);
  store::SectionReader reader(buf, "test");
  try {
    (void)reader.read_array<std::uint64_t>();
    FAIL() << "absurd count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(StoreFormat, FutureVersionRejectedExplicitly) {
  std::stringstream buf;
  store::write_header(buf, store::make_tag("XTST"), 7);
  try {
    (void)store::read_header(buf, store::make_tag("XTST"), 2, "test");
    FAIL() << "future version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 7"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

// --- .scix bank roundtrip ---------------------------------------------------

TEST(IndexStoreBank, RoundTripsBitIdentical) {
  auto bank = make_bank(801, 6);
  bank.add("with_ambiguity", "ACGTNNNACGTRYACGTACGTACGT");
  const auto loaded = load_blob(store_blob(bank, {store::IndexKey{}}));

  const auto& back = loaded.bank();
  EXPECT_EQ(back.name(), bank.name());
  ASSERT_EQ(back.size(), bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    EXPECT_EQ(back.seq_name(i), bank.seq_name(i));
    EXPECT_EQ(back.offset(i), bank.offset(i));
    EXPECT_EQ(back.bases(i), bank.bases(i));
  }
  const auto a = bank.data();
  const auto b = back.data();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(IndexStoreBank, AmbiguityCodesCollapseToN) {
  // 2-bit packing cannot distinguish IUPAC letters; they all become
  // kAmbiguous, which decodes as N — same as the in-memory encoding.
  seqio::SequenceBank bank("amb");
  bank.add("s", "ACGTRYKMACGT");
  const auto loaded =
      load_blob(store_blob(bank, {store::IndexKey{.w = 4,
                                                  .dust = false,
                                                  .dust_params = {}}}));
  EXPECT_EQ(loaded.bank().bases(0), "ACGTNNNNACGT");
  EXPECT_EQ(loaded.bank().bases(0), bank.bases(0));
}

// --- adopted indexes --------------------------------------------------------

TEST(IndexStoreIndex, AdoptedIndexMatchesFreshBuild) {
  auto bank = make_bank(803, 5);
  // Low-complexity sequence so the DUST mask removes words.
  bank.add("low_complexity",
           std::string(60, 'A') + "ACGTACGTACGTACGTACGTACGT");
  store::IndexKey w9;
  w9.w = 9;
  store::IndexKey stride2;
  stride2.w = 6;
  stride2.stride = 2;
  const auto loaded = load_blob(store_blob(bank, {w9, stride2}));

  for (const store::IndexKey& key : {w9, stride2}) {
    SCOPED_TRACE(store::to_string(key));
    const index::BankIndex* adopted = loaded.find(key);
    ASSERT_NE(adopted, nullptr);
    const auto mask = filter::dust_mask(bank, key.dust_params);
    ASSERT_GT(mask.count(), 0u);
    index::IndexOptions iopt;
    iopt.stride = key.stride;
    iopt.mask = &mask;
    const index::BankIndex fresh(bank, index::SeedCoder(key.w), iopt);

    EXPECT_EQ(adopted->total_indexed(), fresh.total_indexed());
    EXPECT_EQ(adopted->distinct_seeds(), fresh.distinct_seeds());
    EXPECT_EQ(adopted->masked_bases(), fresh.masked_bases());
    EXPECT_EQ(adopted->memory_bytes(), fresh.memory_bytes());
    for (index::SeedCode c = 0; c < fresh.coder().num_seeds(); ++c) {
      std::vector<seqio::Pos> a, b;
      adopted->for_each(c, [&](seqio::Pos p) { a.push_back(p); });
      fresh.for_each(c, [&](seqio::Pos p) { b.push_back(p); });
      ASSERT_EQ(a, b) << "seed code " << c;
    }
    for (std::size_t p = 0; p < bank.data_size(); ++p) {
      ASSERT_EQ(adopted->is_indexed(static_cast<seqio::Pos>(p)),
                fresh.is_indexed(static_cast<seqio::Pos>(p)));
    }
  }
}

TEST(IndexStoreIndex, OccurrenceListsRideTheArtifact) {
  // INDX payloads carry the offsets and positions; the adopted index must
  // expose the same view as a fresh build (same spans, counts, byte
  // accounting).
  const auto bank = make_bank(812, 5);
  store::IndexKey key;
  const auto loaded = load_blob(store_blob(bank, {key}));
  const index::BankIndex* adopted = loaded.find(key);
  ASSERT_NE(adopted, nullptr);

  const auto mask = filter::dust_mask(bank, key.dust_params);
  index::IndexOptions iopt;
  iopt.mask = &mask;
  const index::BankIndex fresh(bank, index::SeedCoder(key.w), iopt);

  EXPECT_EQ(adopted->memory_bytes(), fresh.memory_bytes());
  ASSERT_EQ(adopted->occurrence_offsets().size(),
            fresh.occurrence_offsets().size());
  for (index::SeedCode c = 0; c < fresh.coder().num_seeds(); ++c) {
    const auto a = adopted->occurrences_span(c);
    const auto b = fresh.occurrences_span(c);
    ASSERT_EQ(a.size(), b.size()) << "seed code " << c;
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << "seed code " << c;
    ASSERT_EQ(adopted->occurrence_count(c), fresh.occurrence_count(c));
  }
}

TEST(IndexStoreIndex, MultiplePayloadsAreKeyed) {
  const auto bank = make_bank(805, 4);
  store::IndexKey k11;  // defaults: w=11 stride=1 dust=on
  store::IndexKey k10;
  k10.w = 10;
  k10.dust = false;
  const auto loaded = load_blob(store_blob(bank, {k11, k10}));

  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_NE(loaded.find(k11), nullptr);
  EXPECT_NE(loaded.find(k10), nullptr);
  EXPECT_EQ(loaded.find(k11)->w(), 11);
  EXPECT_EQ(loaded.find(k10)->w(), 10);

  store::IndexKey missing;
  missing.w = 8;
  EXPECT_EQ(loaded.find(missing), nullptr);
  try {
    (void)loaded.require(missing);
    FAIL() << "missing payload accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("w=8"), std::string::npos);   // wanted
    EXPECT_NE(what.find("w=11"), std::string::npos);  // available
    EXPECT_NE(what.find("w=10"), std::string::npos);
  }
}

TEST(IndexStoreIndex, DustSettingIsPartOfTheKey) {
  const auto bank = make_bank(807, 3);
  store::IndexKey with_dust;
  const auto loaded = load_blob(store_blob(bank, {with_dust}));
  store::IndexKey no_dust;
  no_dust.dust = false;
  EXPECT_EQ(loaded.find(no_dust), nullptr);
  EXPECT_THROW((void)loaded.require(no_dust), std::runtime_error);
}

// --- search bit-identity ----------------------------------------------------

TEST(IndexStoreSearch, HitsBitIdenticalToFastaRun) {
  const auto bank1 = make_bank(809, 8, 200);
  const auto bank2 = make_related_bank(bank1, 810);
  const std::string blob = store_blob(bank1, {store::IndexKey{}});

  for (const int threads : {1, 4}) {
    core::Options options;
    options.threads = threads;
    const core::Result direct =
        Session(bank1, options).search_collect(bank2);
    const Session stored(load_blob(blob), options);
    const core::Result from_store = stored.search_collect(bank2);

    EXPECT_EQ(from_store.stats.hit_pairs, direct.stats.hit_pairs);
    EXPECT_EQ(from_store.stats.hsps, direct.stats.hsps);
    EXPECT_EQ(from_store.stats.masked_bases, direct.stats.masked_bases);
    EXPECT_EQ(m8_of(from_store.alignments, stored.reference(), bank2),
              m8_of(direct.alignments, bank1, bank2))
        << "threads=" << threads;
  }
}

TEST(IndexStoreSearch, BothStrandsReuseThePrebuiltIndex) {
  const auto bank1 = make_bank(811, 6, 150);
  const auto bank2 = make_related_bank(bank1, 812);

  core::Options options;
  options.strand = seqio::Strand::kBoth;
  const core::Result direct = Session(bank1, options).search_collect(bank2);
  const Session stored(load_blob(store_blob(bank1, {store::IndexKey{}})),
                       options);
  EXPECT_EQ(stored.reference_builds(), 0u);
  const core::Result from_store = stored.search_collect(bank2);
  EXPECT_EQ(m8_of(from_store.alignments, stored.reference(), bank2),
            m8_of(direct.alignments, bank1, bank2));
}

// --- chunked streaming against a loaded index -------------------------------

TEST(IndexStoreSearch, ChunkedStreamingBitIdentical) {
  const auto bank1 = make_bank(815, 6, 200);
  const auto bank2 = make_related_bank(bank1, 816);
  const Session stored(load_blob(store_blob(bank1, {store::IndexKey{}})));

  SearchLimits limits;
  limits.min_chunks = 4;  // force slicing regardless of the budget
  Collector collector;
  EXPECT_GT(stored.search(bank2, collector, limits).slices, 1u);
  const core::Result& chunked = collector.result();

  const core::Result whole = Session(bank1).search_collect(bank2);
  EXPECT_EQ(m8_of(chunked.alignments, stored.reference(), bank2),
            m8_of(whole.alignments, bank1, bank2));
  EXPECT_EQ(chunked.stats.hit_pairs, whole.stats.hit_pairs);
  EXPECT_EQ(chunked.stats.hsps, whole.stats.hsps);
}

TEST(IndexStoreSearch, ChunkedBudgetCountsTheLoadedIndex) {
  const auto bank1 = make_bank(817, 10, 500);
  const auto bank2 = make_related_bank(bank1, 818);
  const Session stored(load_blob(store_blob(bank1, {store::IndexKey{}})));

  SearchLimits tight;
  // No room for bank2 next to the loaded index.
  tight.memory_budget_bytes = stored.reference_index().memory_bytes();
  Collector r_tight;
  EXPECT_GT(stored.search(bank2, r_tight, tight).slices, 1u);
  SearchLimits loose;
  loose.memory_budget_bytes = std::size_t{4} << 30;
  Collector r_loose;
  EXPECT_EQ(stored.search(bank2, r_loose, loose).slices, 1u);
  EXPECT_EQ(m8_of(r_tight.result().alignments, stored.reference(), bank2),
            m8_of(r_loose.result().alignments, stored.reference(), bank2));
}

// --- artifact rejection -----------------------------------------------------

TEST(IndexStoreReject, WrongMagic) {
  std::stringstream buf("garbage that is not an artifact");
  try {
    (void)store::load_index(buf, "index store");
    FAIL() << "garbage accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

TEST(IndexStoreReject, TruncatedAtEveryQuarter) {
  const auto bank = make_bank(819, 4);
  const std::string blob =
      store_blob(bank, {store::IndexKey{.w = 8, .dust_params = {}}});
  for (const std::size_t num : {1u, 2u, 3u}) {
    std::stringstream cut(blob.substr(0, blob.size() * num / 4));
    EXPECT_THROW((void)store::load_index(cut, "index store"),
                 std::runtime_error)
        << "prefix " << num << "/4 accepted";
  }
}

TEST(IndexStoreReject, CorruptBankSectionNamedInDiagnostic) {
  const auto bank = make_bank(821, 4);
  std::string blob =
      store_blob(bank, {store::IndexKey{.w = 8, .dust_params = {}}});
  ASSERT_TRUE(testing::corrupt_section(blob, "BANK"));
  try {
    (void)load_blob(blob);
    FAIL() << "corrupt BANK accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("BANK"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(IndexStoreReject, CorruptIndexSectionNamedInDiagnostic) {
  const auto bank = make_bank(823, 4);
  std::string blob =
      store_blob(bank, {store::IndexKey{.w = 8, .dust_params = {}}});
  ASSERT_TRUE(testing::corrupt_section(blob, "INDX"));
  try {
    (void)load_blob(blob);
    FAIL() << "corrupt INDX accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("INDX"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(IndexStoreReject, FutureVersionNamedInDiagnostic) {
  const auto bank = make_bank(825, 2);
  std::string blob =
      store_blob(bank, {store::IndexKey{.w = 8, .dust_params = {}}});
  blob[4] = 99;  // version u32 starts at byte 4
  try {
    (void)load_blob(blob);
    FAIL() << "future version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

TEST(IndexStoreReject, OlderVersionRejectedAsOutdated) {
  // Version 1 artifacts also carried the dictionary and chains; this
  // build reads version 2 only and asks for a rebuild.
  std::string blob = store_blob(make_bank(831, 2), {w8_key()});
  blob[4] = 1;  // version u32 starts at byte 4
  const std::string error = load_error(blob);
  EXPECT_NE(error.find("unsupported version 1"), std::string::npos) << error;
  EXPECT_NE(error.find("older"), std::string::npos) << error;
}

TEST(IndexStoreReject, IndexForAnotherBankRejected) {
  // The BANK section of one artifact followed by the INDX payload built
  // for a bank of another size.
  const store::IndexKey key = w8_key();
  const std::string mine = store_blob(make_bank(711, 4), {key});
  const std::string theirs = store_blob(make_bank(712, 5), {key});
  const std::string spliced = mine.substr(0, bank_prefix_size(mine)) +
                              theirs.substr(bank_prefix_size(theirs));
  const std::string error = load_error(spliced);
  EXPECT_NE(error.find("does not match BANK"), std::string::npos) << error;
}

TEST(IndexStoreReject, HandWrittenIndexBodyLoads) {
  // The control for the crafted-body tests below: unedited, the
  // field-by-field payload is exactly what write_index produces.
  const auto bank = make_bank(833, 4);
  const std::string blob =
      crafted_blob(bank, [](std::vector<std::uint32_t>&,
                            std::vector<std::int32_t>&) {});
  EXPECT_EQ(blob, store_blob(bank, {w8_key(/*dust=*/false)}));
  EXPECT_EQ(load_error(blob), "");
}

TEST(IndexStoreReject, DecreasingOffsetRejected) {
  // Unchecked, code k-1's bucket would end before it starts and
  // occurrences_span would build a subspan past the positions array.
  const auto bank = make_bank(833, 4);
  const std::string blob = crafted_blob(
      bank, [](std::vector<std::uint32_t>& offsets,
               std::vector<std::int32_t>&) {
        const std::size_t k = offsets.size() / 2;
        ASSERT_GT(offsets[k - 1], 0u);
        offsets[k] = offsets[k - 1] - 1;
      });
  const std::string error = load_error(blob);
  EXPECT_NE(error.find("INDX"), std::string::npos) << error;
  EXPECT_NE(error.find("offsets"), std::string::npos) << error;
}

TEST(IndexStoreReject, PositionOutsideBankRejected) {
  // Unchecked, the scan would extend from a word past the bank's end.
  const auto bank = make_bank(833, 4);
  const std::string blob = crafted_blob(
      bank, [&bank](std::vector<std::uint32_t>&,
                    std::vector<std::int32_t>& positions) {
        positions[positions.size() / 2] =
            static_cast<std::int32_t>(bank.data_size());
      });
  const std::string error = load_error(blob);
  EXPECT_NE(error.find("INDX"), std::string::npos) << error;
  EXPECT_NE(error.find("position"), std::string::npos) << error;
}

TEST(IndexStoreReject, EmptyKeyListAndBadW) {
  const auto bank = make_bank(827, 2);
  std::stringstream buf;
  EXPECT_THROW(store::write_index(buf, bank, {}), std::invalid_argument);
  store::IndexKey bad;
  bad.w = 14;  // above index::kMaxW
  EXPECT_THROW(store::write_index(buf, bank, {&bad, 1}),
               std::invalid_argument);
}

TEST(IndexStoreReject, FileHelpersReportPath) {
  EXPECT_THROW((void)store::load_index("/nonexistent/path.scix"),
               std::runtime_error);
}

}  // namespace
}  // namespace scoris
