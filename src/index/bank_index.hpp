// BankIndex — the reference index: the paper's figure-2 structure, laid
// out by seed.
//
// The paper indexes a bank with a 4^W dictionary plus an INDEX array of
// one int32 per position (section 3.1).  Here the same occurrences live in
// one CSR structure:
//
//   offsets    4^W + 1 uint32 entries — the dictionary's role: the
//              occurrences of code c are positions[offsets[c] ..
//              offsets[c+1]);
//   positions  one int32 per indexed word start, grouped by code and
//              ascending within a code — the INDEX array sorted by seed.
//
// The step-2 scan looks each subject code up in O(1) here, and
// occurrence counts are O(1) offset subtractions.  Memory is 4 bytes per
// indexed position plus the 1-byte SEQ array the bank owns, plus the
// 4·(4^W+1) offset bytes — the paper's "approximately 5 N bytes", which
// index_test verifies.  It is built by the bucketed counting sort both
// indexes share (index/word_starts.hpp), on IndexOptions::pool when one
// is given: words are placed into 4^min(W,8) buckets (4^9 at W = 13)
// over their codes' top bits, and sorting each bucket by the low bits
// yields that bucket's codes' offsets.  While it runs, the build also
// holds one low-bits byte per word start (W > 8) and at most one bucket
// table per pool thread.
//
// The reference is indexed once (Session's constructor, a .scix store, a
// distributed worker's job setup) and reused by every query, so its 4^W
// offsets are paid once.  Each bank-2 group gets a SubjectIndex instead
// (index/subject_index.hpp), which holds no 4^W array.
//
// Options (index/word_starts.hpp) cover the paper's two indexing
// variants:
//  * a low-complexity mask: masked words are not indexed (section 2.1);
//  * stride-2 subsampling ("asymmetric indexing" of 10-nt words, section
//    3.4): only every other word of the bank is indexed.
//
// The arrays live behind spans: an index built by the constructor owns
// them, and one read from a .scix store (load_body) views the section
// payload without copying or re-scanning the bank.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "filter/mask.hpp"
#include "index/seed_coder.hpp"
#include "index/word_starts.hpp"
#include "seqio/sequence_bank.hpp"

namespace scoris::store {
class SectionReader;
class SectionWriter;
}  // namespace scoris::store

namespace scoris::index {

class BankIndex {
 public:
  /// Build the index for `bank` with word length `coder.w()`, on
  /// `options.pool` when set.  The bank must outlive the index. Throws
  /// std::invalid_argument for W > kMaxW (see seed_coder.hpp).
  BankIndex(const seqio::SequenceBank& bank, const SeedCoder& coder,
            const IndexOptions& options = {});

  // Spans into owned storage make copies unsafe; the pipeline only ever
  // builds in place or moves.
  BankIndex(const BankIndex&) = delete;
  BankIndex& operator=(const BankIndex&) = delete;
  BankIndex(BankIndex&&) = default;
  BankIndex& operator=(BankIndex&&) = default;

  [[nodiscard]] const seqio::SequenceBank& bank() const { return *bank_; }
  [[nodiscard]] const SeedCoder& coder() const { return coder_; }
  [[nodiscard]] int w() const { return coder_.w(); }

  /// True when global position `pos` is a word start present in the index
  /// (i.e. all-ACGT, not masked, stride-selected).  The ORIS seed-order
  /// abort must only trigger on seeds that are actually enumerable, which
  /// is exactly this predicate.
  [[nodiscard]] bool is_indexed(seqio::Pos pos) const {
    return indexed_.test(pos);
  }

  /// All occurrences of `code` in ascending position order, as one
  /// contiguous slice of the positions array.
  [[nodiscard]] std::span<const std::int32_t> occurrences_span(
      SeedCode code) const {
    return occ_positions_.subspan(occ_offsets_[code],
                                  occ_offsets_[code + 1] -
                                      occ_offsets_[code]);
  }

  /// Visit every occurrence of `code` in ascending position order.
  template <typename Fn>
  void for_each(SeedCode code, Fn&& fn) const {
    for (const std::int32_t p : occurrences_span(code)) {
      fn(static_cast<seqio::Pos>(p));
    }
  }

  /// Visit every code of [lo, hi) with occurrences, in ascending code
  /// order, as fn(code, occurrences_span(code)) — SubjectIndex's walk, so
  /// the step-2 scan takes either index as its subject.
  template <typename Fn>
  void for_each_code(SeedCode lo, SeedCode hi, Fn&& fn) const {
    for (SeedCode code = lo; code < hi; ++code) {
      const auto occ = occurrences_span(code);
      if (!occ.empty()) fn(code, occ);
    }
  }

  /// Number of occurrences of `code` — O(1) from the offsets.
  [[nodiscard]] std::size_t occurrence_count(SeedCode code) const {
    return occ_offsets_[code + 1] - occ_offsets_[code];
  }

  /// Occupancy histogram over the seed-code space: bucket b counts the
  /// indexed positions whose code falls in [b*ceil(4^W/buckets), ...).
  /// The bucket sum equals total_indexed().  `buckets` is clamped to
  /// [1, 4^W].  O(buckets): each bucket is one difference of the
  /// cumulative offsets, so plan compilation places its adaptive shard
  /// boundaries without walking the code space or reading the positions.
  [[nodiscard]] std::vector<std::size_t> occupancy_histogram(
      std::size_t buckets) const;

  /// Total indexed word positions over all seeds.
  [[nodiscard]] std::size_t total_indexed() const { return total_indexed_; }

  /// Number of distinct seeds present in the bank.
  [[nodiscard]] std::size_t distinct_seeds() const { return distinct_seeds_; }

  /// Positions excluded by the build-time soft mask (0 when unmasked).
  /// Recorded so a deserialized index reports the same --stats numbers as
  /// a fresh build without rerunning DUST.
  [[nodiscard]] std::size_t masked_bases() const { return masked_bases_; }

  /// Bytes of the 4^W + 1 offsets (the paper's dictionary).
  [[nodiscard]] std::size_t dictionary_bytes() const {
    return occ_offsets_.size() * sizeof(std::uint32_t);
  }

  /// Bytes of the positions array (the paper's INDEX array): 4 per
  /// indexed word start.
  [[nodiscard]] std::size_t chain_bytes() const {
    return occ_positions_.size() * sizeof(std::int32_t);
  }

  /// Always 0: the offsets and positions are the whole index.  Only
  /// perfbench still reads this, as `index.occ_bytes`.
  [[nodiscard]] std::size_t occurrence_bytes() const { return 0; }

  /// Bytes held by the index: offsets plus positions.
  [[nodiscard]] std::size_t memory_bytes() const {
    return dictionary_bytes() + chain_bytes();
  }

  /// Raw array access, for tests that inspect or craft index payloads.
  [[nodiscard]] std::span<const std::uint32_t> occurrence_offsets() const {
    return occ_offsets_;
  }
  [[nodiscard]] std::span<const std::int32_t> occurrence_positions() const {
    return occ_positions_;
  }
  [[nodiscard]] const filter::MaskBitmap& indexed_bitmap() const {
    return indexed_;
  }

  /// Append the index body — counters, word-start bitmap, offsets,
  /// positions — to a .scix INDX section.
  void save_body(store::SectionWriter& section) const;

  /// Read a body written by save_body: offsets and positions become
  /// zero-copy views pinned by the section's payload owner.  The body is
  /// input from outside the process, so it is checked in one pass before
  /// use — sizes against `bank`/`coder`, offsets ascending from 0 to
  /// total_indexed, every position a word start of the bitmap whose W
  /// bases lie inside the bank.  `what` prefixes diagnostics; throws
  /// std::runtime_error when a check fails.
  [[nodiscard]] static BankIndex load_body(store::SectionReader& section,
                                           const seqio::SequenceBank& bank,
                                           const SeedCoder& coder,
                                           const std::string& what);

 private:
  /// An index with no arrays yet, for load_body to fill.
  struct Unbuilt {};
  BankIndex(const seqio::SequenceBank& bank, const SeedCoder& coder, Unbuilt)
      : bank_(&bank), coder_(coder) {}

  const seqio::SequenceBank* bank_;
  SeedCoder coder_;
  // Owned storage when built in place; empty when loaded, in which case
  // owner_ pins the section payload behind the spans.
  std::vector<std::uint32_t> offsets_storage_;
  std::vector<std::int32_t> positions_storage_;
  std::shared_ptr<const void> owner_;
  // Positions of code c live at occ_positions_[occ_offsets_[c] ..
  // occ_offsets_[c+1]), ascending.
  std::span<const std::uint32_t> occ_offsets_;   // 4^W + 1 entries
  std::span<const std::int32_t> occ_positions_;  // total_indexed entries
  filter::MaskBitmap indexed_;                   // word-start membership
  std::size_t total_indexed_ = 0;
  std::size_t distinct_seeds_ = 0;
  std::size_t masked_bases_ = 0;
};

}  // namespace scoris::index
