#include "store/format.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace scoris::store {
namespace {

/// Distinguishes a same-width big-endian writer from a corrupt file: the
/// bytes 04 03 02 01 read back as 0x01020304 only on a little-endian reader.
constexpr std::uint32_t kEndianTag = 0x01020304;

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table, and
// table[k][b] is the CRC of byte b followed by k zero bytes, which lets the
// hot loop fold 8 input bytes per iteration.  Checksumming is on the
// artifact load path (multi-MB offsets and positions per index payload),
// so the plain byte loop's ~400 MB/s is a real cost there.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[k][i] = c;
    }
  }
  return tables;
}

}  // namespace

void Crc32::update(const void* data, std::size_t size) {
  static const auto kTables = make_crc_tables();
  const auto& t = kTables;
  std::uint32_t c = state_;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t n = size;
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(std::span<const std::byte> bytes) {
  Crc32 crc;
  crc.update(bytes.data(), bytes.size());
  return crc.value();
}

std::uint32_t crc32(const void* data, std::size_t size) {
  Crc32 crc;
  crc.update(data, size);
  return crc.value();
}

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& is, const std::string& what) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error(what + ": truncated input");
  return v;
}

std::uint64_t read_u64(std::istream& is, const std::string& what) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error(what + ": truncated input");
  return v;
}

std::uint64_t write_header(std::ostream& os, const Tag& magic,
                           std::uint32_t version) {
  os.write(magic.data(), magic.size());
  write_u32(os, version);
  write_u32(os, kEndianTag);
  return magic.size() + 2 * sizeof(std::uint32_t);
}

std::uint32_t read_header(std::istream& is, const Tag& magic,
                          std::uint32_t supported_version,
                          const std::string& what) {
  Tag found = {};
  is.read(found.data(), found.size());
  if (!is || found != magic) {
    throw std::runtime_error(what + ": bad magic (not a " +
                             tag_to_string(magic) + " file)");
  }
  const std::uint32_t version = read_u32(is, what);
  const std::uint32_t endian = read_u32(is, what);
  // Check order matters for the diagnostics: a genuinely old file (small
  // version, e.g. the pre-endian-tag v1 layout whose next bytes are
  // payload) must be reported as outdated, while a byte-swapped file reads
  // a huge version number and must be blamed on byte order, not "upgrade
  // scoris".
  if (version < supported_version) {
    throw std::runtime_error(what + ": unsupported version " +
                             std::to_string(version) +
                             " (older than this build; rebuild the file)");
  }
  if (endian != kEndianTag) {
    throw std::runtime_error(what + ": endianness mismatch");
  }
  if (version > supported_version) {
    throw std::runtime_error(
        what + ": file is version " + std::to_string(version) +
        " but this build supports <= " + std::to_string(supported_version) +
        " (artifact from a newer scoris; rebuild it or upgrade)");
  }
  return version;
}

// --- SectionWriter ----------------------------------------------------------

void SectionWriter::put_u32(std::uint32_t v) { put_bytes(&v, sizeof(v)); }

void SectionWriter::put_u64(std::uint64_t v) { put_bytes(&v, sizeof(v)); }

void SectionWriter::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

void SectionWriter::put_bytes(const void* data, std::size_t size) {
  // Copies land in arena blocks (reserved up front, so chunk.data() never
  // moves under a recorded segment), and contiguous copies merge into one
  // segment instead of fragmenting per field.
  const auto* p = static_cast<const std::byte*>(data);
  if (owned_.empty() || owned_.back().capacity() - owned_.back().size() < size) {
    owned_.emplace_back().reserve(std::max<std::size_t>(size, 4096));
  }
  auto& chunk = owned_.back();
  const std::byte* start = chunk.data() + chunk.size();
  chunk.insert(chunk.end(), p, p + size);
  if (!segments_.empty() &&
      static_cast<const std::byte*>(segments_.back().data) +
              segments_.back().size ==
          start) {
    segments_.back().size += size;
  } else {
    segments_.push_back({start, size});
  }
}

std::uint64_t SectionWriter::finish(std::ostream& os) const {
  std::uint64_t total = 0;
  Crc32 crc;
  for (const Segment& segment : segments_) {
    total += segment.size;
    crc.update(segment.data, segment.size);
  }
  os.write(tag_.data(), tag_.size());
  write_u64(os, total);
  write_u32(os, crc.value());
  for (const Segment& segment : segments_) {
    if (segment.size == 0) continue;  // empty spans may carry a null data()
    os.write(static_cast<const char*>(segment.data),
             static_cast<std::streamsize>(segment.size));
  }
  if (!os) {
    throw std::runtime_error("section write failed (" + tag_to_string(tag_) +
                             ")");
  }
  return tag_.size() + sizeof(std::uint64_t) + sizeof(std::uint32_t) + total;
}

// --- SectionReader ----------------------------------------------------------

SectionReader::SectionReader(std::istream& is, const std::string& what)
    : what_(what), payload_(std::make_shared<std::vector<std::byte>>()) {
  is.read(tag_.data(), tag_.size());
  if (!is) throw std::runtime_error(what_ + ": truncated section header");
  const std::uint64_t size = store::read_u64(is, what_ + ": " + tag_name());
  const std::uint32_t expect_crc =
      store::read_u32(is, what_ + ": " + tag_name());
  // The length field is untrusted: bound it by the bytes actually left in
  // the stream before allocating, or a flipped length bit turns into a
  // multi-GB zero-fill / bad_alloc instead of a named diagnostic.
  const std::istream::pos_type here = is.tellg();
  bool bounded = false;
  if (here != std::istream::pos_type(-1)) {
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(here);
    if (end != std::istream::pos_type(-1)) {
      if (size > static_cast<std::uint64_t>(end - here)) {
        throw std::runtime_error(what_ + ": truncated " + tag_name() +
                                 " section");
      }
      bounded = true;
    }
  }
  if (bounded) {
    payload_->resize(static_cast<std::size_t>(size));
    is.read(reinterpret_cast<char*>(payload_->data()),
            static_cast<std::streamsize>(payload_->size()));
    if (!is) {
      throw std::runtime_error(what_ + ": truncated " + tag_name() +
                               " section");
    }
  } else {
    // Non-seekable stream (e.g. a socket-backed streambuf carrying a
    // remote worker's run): the length cannot be validated against a
    // stream end, so never allocate it up front — a lying u64 would be
    // a remote-triggered multi-GB resize (found by the spill_run fuzz
    // harness).  Grow with the bytes that actually arrive; EOF before
    // `size` bytes is the same truncation diagnostic as above.
    constexpr std::size_t kChunk = std::size_t{4} << 20;
    std::uint64_t left = size;
    while (left > 0) {
      const std::size_t step =
          static_cast<std::size_t>(std::min<std::uint64_t>(left, kChunk));
      const std::size_t old = payload_->size();
      payload_->resize(old + step);
      is.read(reinterpret_cast<char*>(payload_->data() + old),
              static_cast<std::streamsize>(step));
      if (static_cast<std::size_t>(is.gcount()) < step || !is) {
        throw std::runtime_error(what_ + ": truncated " + tag_name() +
                                 " section");
      }
      left -= step;
    }
  }
  if (crc32(*payload_) != expect_crc) {
    throw std::runtime_error(what_ + ": checksum mismatch in " + tag_name() +
                             " section (corrupt artifact)");
  }
}

std::string SectionReader::tag_name() const { return tag_to_string(tag_); }

void SectionReader::require(std::size_t bytes) const {
  if (bytes > remaining()) {
    throw std::runtime_error(what_ + ": truncated " + tag_name() +
                             " section");
  }
}

void SectionReader::throw_misaligned() const {
  throw std::runtime_error(what_ + ": misaligned array in " + tag_name() +
                           " section");
}

std::uint32_t SectionReader::read_u32() {
  std::uint32_t v = 0;
  read_bytes(&v, sizeof(v));
  return v;
}

std::uint64_t SectionReader::read_u64() {
  std::uint64_t v = 0;
  read_bytes(&v, sizeof(v));
  return v;
}

std::string SectionReader::read_string() {
  const std::uint32_t n = read_u32();
  require(n);
  std::string s(n, '\0');
  read_bytes(s.data(), n);
  return s;
}

void SectionReader::read_bytes(void* out, std::size_t size) {
  if (size == 0) return;  // empty arrays may hand a null destination
  require(size);
  std::memcpy(out, payload_->data() + cursor_, size);
  cursor_ += size;
}

std::string tag_to_string(const Tag& tag) {
  return std::string(tag.data(), tag.size());
}

}  // namespace scoris::store
