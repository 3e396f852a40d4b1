#include "store/index_store.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "store/format.hpp"

namespace scoris::store {
namespace {

constexpr Tag kStoreMagic = make_tag("SCIX");
constexpr Tag kBankSection = make_tag("BANK");
constexpr Tag kIndexSection = make_tag("INDX");
constexpr std::uint32_t kStoreVersion = 2;

/// 2-bit-pack the concatenated bases of a bank (sentinels excluded, 4 bases
/// per byte, little-endian within the byte). Ambiguous bases pack as 0 and
/// are listed separately by their base offset.
struct PackedBank {
  std::vector<std::uint8_t> packed;
  std::vector<std::uint64_t> ambiguous;  ///< base offsets, ascending
};

PackedBank pack_bank(const seqio::SequenceBank& bank) {
  PackedBank out;
  out.packed.assign((bank.total_bases() + 3) / 4, 0);
  std::uint64_t g = 0;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    for (const seqio::Code c : bank.codes(i)) {
      if (seqio::is_base(c)) {
        out.packed[g >> 2] |=
            static_cast<std::uint8_t>(c << ((g & 3) * 2));
      } else {
        out.ambiguous.push_back(g);
      }
      ++g;
    }
  }
  return out;
}

void write_bank_section(std::ostream& os, const seqio::SequenceBank& bank) {
  SectionWriter section(kBankSection);
  section.put_string(bank.name());
  section.put_u64(bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    section.put_string(bank.seq_name(i));
    section.put_u64(bank.length(i));
  }
  const PackedBank packed = pack_bank(bank);
  section.put_array(std::span<const std::uint8_t>(packed.packed));
  section.put_array(std::span<const std::uint64_t>(packed.ambiguous));
  section.finish(os);
}

seqio::SequenceBank read_bank_section(SectionReader& section,
                                      const std::string& what) {
  seqio::SequenceBank bank(section.read_string());
  const std::uint64_t nseq = section.read_u64();
  std::vector<std::string> names(static_cast<std::size_t>(nseq));
  std::vector<std::uint64_t> lengths(static_cast<std::size_t>(nseq));
  for (std::uint64_t i = 0; i < nseq; ++i) {
    names[i] = section.read_string();
    lengths[i] = section.read_u64();
  }
  const auto packed = section.read_array<std::uint8_t>();
  const auto ambiguous = section.read_array<std::uint64_t>();

  std::uint64_t total = 0;
  for (const auto len : lengths) total += len;
  if (packed.size() != (total + 3) / 4) {
    throw std::runtime_error(what + ": BANK section size inconsistent");
  }

  std::uint64_t g = 0;
  std::size_t next_ambiguous = 0;
  std::basic_string<seqio::Code> codes;
  for (std::uint64_t i = 0; i < nseq; ++i) {
    codes.resize(static_cast<std::size_t>(lengths[i]));
    for (std::uint64_t j = 0; j < lengths[i]; ++j, ++g) {
      if (next_ambiguous < ambiguous.size() &&
          ambiguous[next_ambiguous] == g) {
        codes[j] = seqio::kAmbiguous;
        ++next_ambiguous;
        continue;
      }
      codes[j] = static_cast<seqio::Code>((packed[g >> 2] >> ((g & 3) * 2)) & 3);
    }
    bank.add_codes(names[i], codes);
  }
  return bank;
}

void write_index_section(std::ostream& os, const IndexKey& key,
                         const index::BankIndex& idx) {
  SectionWriter section(kIndexSection);
  section.put_u32(static_cast<std::uint32_t>(key.w));
  section.put_u32(static_cast<std::uint32_t>(key.stride));
  section.put_u32(key.dust ? 1 : 0);
  section.put_u32(
      static_cast<std::uint32_t>(key.dust ? key.dust_params.window : 0));
  section.put_u32(
      static_cast<std::uint32_t>(key.dust ? key.dust_params.level : 0));
  section.put_u64(idx.bank().data_size());
  idx.save_body(section);
  section.finish(os);
}

std::pair<IndexKey, index::BankIndex> read_index_section(
    SectionReader& section, const seqio::SequenceBank& bank,
    const std::string& what) {
  IndexKey key;
  key.w = static_cast<int>(section.read_u32());
  key.stride = static_cast<int>(section.read_u32());
  key.dust = section.read_u32() != 0;
  key.dust_params.window = static_cast<int>(section.read_u32());
  key.dust_params.level = static_cast<int>(section.read_u32());
  if (!key.dust) key.dust_params = filter::DustParams{};
  if (key.w < 4 || key.w > index::kMaxW || key.stride < 1) {
    throw std::runtime_error(what + ": INDX section has invalid settings (" +
                             to_string(key) + ")");
  }

  const std::uint64_t data_size = section.read_u64();
  if (data_size != bank.data_size()) {
    throw std::runtime_error(what +
                             ": INDX section does not match BANK section");
  }
  return {key, index::BankIndex::load_body(section, bank,
                                           index::SeedCoder(key.w), what)};
}

}  // namespace

std::string to_string(const IndexKey& key) {
  std::string s = "w=" + std::to_string(key.w) +
                  " stride=" + std::to_string(key.stride) + " dust=";
  if (key.dust) {
    s += "on(" + std::to_string(key.dust_params.window) + "/" +
         std::to_string(key.dust_params.level) + ")";
  } else {
    s += "off";
  }
  return s;
}

void write_index(std::ostream& os, const seqio::SequenceBank& bank,
                 std::span<const IndexKey> keys) {
  if (keys.empty()) {
    throw std::invalid_argument("index store: at least one index key");
  }
  for (const IndexKey& key : keys) {
    if (key.w < 4 || key.w > index::kMaxW) {
      throw std::invalid_argument("index store: w must be in [4, " +
                                  std::to_string(index::kMaxW) + "], got " +
                                  std::to_string(key.w));
    }
    if (key.stride < 1) {
      throw std::invalid_argument("index store: stride must be >= 1");
    }
  }
  write_header(os, kStoreMagic, kStoreVersion);
  write_bank_section(os, bank);
  for (const IndexKey& key : keys) {
    filter::MaskBitmap mask;
    index::IndexOptions iopt;
    iopt.stride = key.stride;
    if (key.dust) {
      mask = filter::dust_mask(bank, key.dust_params);
      iopt.mask = &mask;
    }
    const index::BankIndex idx(bank, index::SeedCoder(key.w), iopt);
    write_index_section(os, key, idx);
  }
  if (!os) throw std::runtime_error("index store: write failed");
}

void write_index_file(const std::string& path,
                      const seqio::SequenceBank& bank,
                      std::span<const IndexKey> keys) {
  // Build-once artifacts must never be half-written at their final path: a
  // disk-full or a kill mid-write would otherwise replace a good artifact
  // with a truncated one.  Stream to a sibling temp file and rename.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("index store: cannot create " + tmp);
    try {
      write_index(os, bank, keys);
      os.flush();
      if (!os) throw std::runtime_error("index store: write failed");
    } catch (...) {
      os.close();
      std::remove(tmp.c_str());
      throw;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("index store: cannot move " + tmp + " to " +
                             path);
  }
}

const index::BankIndex* IndexStore::find(const IndexKey& key) const {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i].matches(key)) return &indexes_[i];
  }
  return nullptr;
}

const index::BankIndex& IndexStore::require(const IndexKey& key) const {
  if (const index::BankIndex* idx = find(key)) return *idx;
  std::string msg = "index store: no index payload for " + to_string(key) +
                    "; artifact has";
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    msg += (i == 0 ? " [" : ", ") + to_string(keys_[i]);
  }
  msg += keys_.empty() ? " none" : "]";
  msg += " (rebuild with `scoris index` using matching settings)";
  throw std::runtime_error(msg);
}

IndexStore load_index(std::istream& is, const std::string& what) {
  read_header(is, kStoreMagic, kStoreVersion, what);

  IndexStore result;
  SectionReader bank_section(is, what);
  if (!bank_section.is(kBankSection)) {
    throw std::runtime_error(what + ": expected BANK section first, found " +
                             bank_section.tag_name());
  }
  result.bank_ = std::make_unique<seqio::SequenceBank>(
      read_bank_section(bank_section, what));

  while (is.peek() != std::istream::traits_type::eof()) {
    SectionReader section(is, what);
    if (!section.is(kIndexSection)) {
      throw std::runtime_error(what + ": unexpected " + section.tag_name() +
                               " section");
    }
    auto [key, idx] = read_index_section(section, *result.bank_, what);
    result.keys_.push_back(key);
    result.indexes_.push_back(std::move(idx));
  }
  if (result.indexes_.empty()) {
    throw std::runtime_error(what + ": artifact holds no index payloads");
  }
  return result;
}

IndexStore load_index(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("index store: cannot open " + path);
  return load_index(is, "index store (" + path + ")");
}

}  // namespace scoris::store
