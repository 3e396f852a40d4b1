// The .scix persistent index store: build once, load near-instantly.
//
// The paper's cost model (section 3.1) makes the ~5N-byte seed index the
// dominant per-run setup cost; a service comparing endless query batches
// against one fixed reference bank must not rebuild it per invocation.  A
// .scix artifact bundles, in one versioned little-endian container
// (magic "SCIX", see store/format.hpp for the header/section skeleton):
//
//   BANK  the sequence bank, 2-bit packed (4 bases/byte) with the name
//         table and an exception list for ambiguous bases;
//   INDX+ one or more BankIndex payloads (counters, word-start bitmap,
//         seed offsets and positions), each keyed by the W/stride/DUST
//         settings it was built with.
//
// Every section carries a CRC-32, so truncation and bit-flips are rejected
// with a diagnostic naming the failing section instead of producing garbage
// hits.  Loading reconstructs the bank from the packed codes and views the
// serialized offsets and positions in place, without re-scanning a single
// sequence; BankIndex::load_body checks them against the bank first, since
// a crafted file can carry a valid CRC.  Version 2 is the first to store
// only these arrays; version 1 artifacts, which also carried the
// dictionary and chains, are rejected and must be rebuilt with
// `scoris index`.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "seqio/sequence_bank.hpp"

namespace scoris::store {

/// The build settings that identify one index payload.  A search may only
/// use a payload whose key matches its own effective settings exactly —
/// anything else changes the seed set and breaks bit-identity.
struct IndexKey {
  int w = 11;        ///< word length (4..13)
  int stride = 1;    ///< sequence-local word-start stride
  bool dust = true;  ///< DUST soft mask applied before indexing
  filter::DustParams dust_params;  ///< only meaningful when dust

  [[nodiscard]] bool matches(const IndexKey& other) const {
    return w == other.w && stride == other.stride && dust == other.dust &&
           (!dust || (dust_params.window == other.dust_params.window &&
                      dust_params.level == other.dust_params.level));
  }
};

/// "w=11 stride=1 dust=on" (diagnostics).
[[nodiscard]] std::string to_string(const IndexKey& key);

/// Build one BankIndex per key over `bank` and write the .scix container.
/// Throws std::invalid_argument on an empty key list or out-of-range W,
/// std::runtime_error on I/O failure.
void write_index(std::ostream& os, const seqio::SequenceBank& bank,
                 std::span<const IndexKey> keys);
void write_index_file(const std::string& path,
                      const seqio::SequenceBank& bank,
                      std::span<const IndexKey> keys);

/// A loaded .scix artifact: the reconstructed bank plus its precomputed
/// indexes.  The bank is heap-pinned so the BankIndexes (and any callers)
/// may reference it for the store's lifetime; the store is movable.
class IndexStore {
 public:
  [[nodiscard]] const seqio::SequenceBank& bank() const { return *bank_; }

  /// Number of index payloads.
  [[nodiscard]] std::size_t size() const { return indexes_.size(); }
  [[nodiscard]] const IndexKey& key(std::size_t i) const { return keys_[i]; }
  [[nodiscard]] const index::BankIndex& index(std::size_t i) const {
    return indexes_[i];
  }

  /// Payload whose key matches, or nullptr.
  [[nodiscard]] const index::BankIndex* find(const IndexKey& key) const;

  /// Payload whose key matches; throws std::runtime_error listing the
  /// wanted key and every available one when absent.
  [[nodiscard]] const index::BankIndex& require(const IndexKey& key) const;

 private:
  friend IndexStore load_index(std::istream& is, const std::string& what);

  std::unique_ptr<seqio::SequenceBank> bank_;
  std::vector<IndexKey> keys_;
  std::vector<index::BankIndex> indexes_;
};

/// Load a .scix artifact. Throws std::runtime_error naming the failing
/// section on bad magic, future version, truncation, or checksum mismatch.
[[nodiscard]] IndexStore load_index(std::istream& is,
                                    const std::string& what = "index store");
[[nodiscard]] IndexStore load_index(const std::string& path);

}  // namespace scoris::store
