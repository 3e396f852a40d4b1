// Shared binary container plumbing for every scoris on-disk artifact.
//
// All formats (.scob banks, .scix index stores, spill runs) are versioned
// little-endian containers with the same skeleton:
//
//   [magic 4][format version u32][endianness tag u32]
//   section*  where section = [tag 4][payload length u64][crc32 u32][payload]
//
// The header is written/validated by one helper so every format rejects
// wrong-magic, wrong-endianness and *future* versions with the same
// explicit diagnostics, and each section carries a CRC-32 of its payload so
// a flipped bit is reported by section name instead of surfacing as garbage
// hits three stages later.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace scoris::store {

/// Four-character tag identifying a file format or a section within one.
using Tag = std::array<char, 4>;

[[nodiscard]] constexpr Tag make_tag(const char (&s)[5]) {
  return {s[0], s[1], s[2], s[3]};
}

/// Incremental CRC-32 (IEEE 802.3, the zlib polynomial) so multi-buffer
/// payloads can be checksummed without concatenating them.
class Crc32 {
 public:
  void update(const void* data, std::size_t size);
  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte span.
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> bytes);
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size);

// --- primitive little-endian I/O -------------------------------------------

void write_u32(std::ostream& os, std::uint32_t v);
void write_u64(std::ostream& os, std::uint64_t v);
/// Read primitives; throw std::runtime_error("<what>: truncated input")
/// when the stream runs dry.
[[nodiscard]] std::uint32_t read_u32(std::istream& is, const std::string& what);
[[nodiscard]] std::uint64_t read_u64(std::istream& is, const std::string& what);

// --- file header ------------------------------------------------------------

/// Write `[magic][version][endianness tag]`.  Returns the bytes written
/// (12).
std::uint64_t write_header(std::ostream& os, const Tag& magic,
                           std::uint32_t version);

/// Validate a header written by write_header. `what` prefixes diagnostics
/// (e.g. "bank load"). Throws std::runtime_error on (checked in order):
///  * wrong magic              — "<what>: bad magic (not a <name> file)"
///  * foreign byte order       — "<what>: endianness mismatch"
///  * version > supported      — "<what>: file is version N but this build
///                                supports <= M (artifact from a newer
///                                scoris; rebuild it or upgrade)"
///  * any other version != supported — "<what>: unsupported version N"
/// Returns the file's version (== supported on success).
std::uint32_t read_header(std::istream& is, const Tag& magic,
                          std::uint32_t supported_version,
                          const std::string& what);

// --- sections ---------------------------------------------------------------

/// Composes one section and emits `[tag][length][crc32][payload]` on
/// finish().  Scalars and strings are copied, but put_array only
/// *references* the caller's buffer — index payloads are tens of MB, and
/// copying them into a staging buffer would double `scoris index`'s peak
/// memory.  Every span passed to put_array must therefore stay alive and
/// unchanged until finish() returns.
class SectionWriter {
 public:
  explicit SectionWriter(Tag tag) : tag_(tag) {}

  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_string(const std::string& s);  ///< u32 length + bytes (copied)
  void put_bytes(const void* data, std::size_t size);  ///< copied
  /// u64 count + raw elements; `v` is referenced, not copied — it must
  /// outlive finish().
  template <typename T>
  void put_array(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_u64(v.size());
    segments_.push_back({v.data(), v.size() * sizeof(T)});
  }

  /// Write the framed section (length and CRC are computed over the
  /// composed segments, then everything streams straight to `os`).
  /// Returns the bytes written, header included.  Throws
  /// std::runtime_error on stream failure.
  std::uint64_t finish(std::ostream& os) const;

 private:
  struct Segment {
    const void* data;
    std::size_t size;
  };

  Tag tag_;
  std::deque<std::vector<std::byte>> owned_;  // stable-address scalar copies
  std::vector<Segment> segments_;             // payload, in order
};

/// Reads one framed section, validates its CRC, then hands out typed reads
/// over the payload. All read_* methods throw std::runtime_error naming the
/// section when the payload is exhausted.
class SectionReader {
 public:
  /// Read the next section header + payload from `is`. Throws on truncation
  /// ("<what>: truncated <section> section") and on checksum mismatch
  /// ("<what>: checksum mismatch in <section> section (corrupt artifact)").
  SectionReader(std::istream& is, const std::string& what);

  [[nodiscard]] const Tag& tag() const { return tag_; }
  [[nodiscard]] std::string tag_name() const;
  /// True when the section's tag matches.
  [[nodiscard]] bool is(const Tag& tag) const { return tag_ == tag; }

  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::string read_string();
  void read_bytes(void* out, std::size_t size);
  template <typename T>
  [[nodiscard]] std::vector<T> read_array() {
    std::vector<T> v(require_count<T>());
    read_bytes(v.data(), v.size() * sizeof(T));
    return v;
  }

  /// Zero-copy variant: a span straight into the section payload, valid
  /// for as long as any copy of payload_owner() is held.  The cursor must
  /// be T-aligned within the payload (the caller controls that via the
  /// section layout); misalignment throws rather than reading unaligned.
  template <typename T>
  [[nodiscard]] std::span<const T> read_array_view() {
    const std::size_t n = require_count<T>();
    const std::byte* base = payload_->data() + cursor_;
    if (reinterpret_cast<std::uintptr_t>(base) % alignof(T) != 0) {
      throw_misaligned();
    }
    cursor_ += n * sizeof(T);
    return {reinterpret_cast<const T*>(base), n};
  }

  /// Shared ownership of the payload buffer, pinning read_array_view spans.
  [[nodiscard]] std::shared_ptr<const std::vector<std::byte>> payload_owner()
      const {
    return payload_;
  }

  /// Bytes of payload not yet consumed.
  [[nodiscard]] std::size_t remaining() const {
    return payload_->size() - cursor_;
  }

 private:
  void require(std::size_t bytes) const;
  [[noreturn]] void throw_misaligned() const;

  /// Read a u64 element count and bounds-check it against the remaining
  /// payload without overflowing (a corrupt count like 2^61 must read as
  /// "truncated", not wrap past the guard).
  template <typename T>
  [[nodiscard]] std::size_t require_count() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = read_u64();
    if (n > remaining() / sizeof(T)) require(remaining() + 1);  // throws
    return static_cast<std::size_t>(n);
  }

  std::string what_;
  Tag tag_ = {};
  std::shared_ptr<std::vector<std::byte>> payload_;
  std::size_t cursor_ = 0;
};

/// Human-readable "ABCD" for diagnostics.
[[nodiscard]] std::string tag_to_string(const Tag& tag);

}  // namespace scoris::store
