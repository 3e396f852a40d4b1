// SubjectIndex — one bank-2 group's seed index, sized by the group.
//
// The reference keeps the paper's 4^W dictionary (BankIndex): it is built
// once and probed by code.  The subject side is rebuilt for every
// (strand x bank2-slice) group and only walked, so it holds just the
// group's word starts in (seed code, position) order:
//
//   buckets    a fixed table of 4^B + 1 uint32 starts over each code's top
//              2B bits, B = W - L: bucket k holds entries
//              [buckets[k], buckets[k+1]);
//   positions  one int32 per indexed word start, ascending by (code,
//              position) — the array BankIndex's positions hold;
//   lows       one byte per word start: its code's low 2L bits.
//
// L = min(max(W - 8, 0), 4), so the table has 4^W + 1 entries up to
// W = 8 (each bucket is one code and `lows` is empty), 4^8 + 1 (256 KiB)
// for W in 9..12 and 4^9 + 1 at W = 13.  The index holds 5 bytes per word
// start plus that table, against BankIndex's 4 plus 4^W + 1 offsets; at
// the default W = 11 it is the smaller one up to 16M word starts, and it
// never exceeds core::estimated_index_bytes.  The build runs on
// IndexOptions::pool when one is given; besides the index it holds at
// most one bucket table per pool thread and a 16 KiB sort scratch per
// sort task (index/word_starts.hpp).
//
// Step 2 walks the codes present in a seed-code range in ascending order
// (for_each_code) and looks each one up in the reference's dictionary:
// the same occurrence pairs, in the same order, as a walk over every
// code of the range.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "filter/mask.hpp"
#include "index/seed_coder.hpp"
#include "index/word_starts.hpp"
#include "seqio/sequence_bank.hpp"

namespace scoris::index {

class SubjectIndex {
 public:
  /// Index `bank` with word length `coder.w()`, selecting word starts by
  /// the rules BankIndex uses, on `options.pool` when set.  The bank must
  /// outlive the index.  Throws std::invalid_argument for W > kMaxW or
  /// bad options.
  SubjectIndex(const seqio::SequenceBank& bank, const SeedCoder& coder,
               const IndexOptions& options = {});

  SubjectIndex(const SubjectIndex&) = delete;
  SubjectIndex& operator=(const SubjectIndex&) = delete;
  SubjectIndex(SubjectIndex&&) = default;
  SubjectIndex& operator=(SubjectIndex&&) = default;

  [[nodiscard]] const seqio::SequenceBank& bank() const { return *bank_; }
  [[nodiscard]] int w() const { return coder_.w(); }

  /// True when global position `pos` is a word start of the index; the
  /// same bitmap a BankIndex over the same bank and options holds.
  [[nodiscard]] bool is_indexed(seqio::Pos pos) const {
    return indexed_.test(pos);
  }
  [[nodiscard]] const filter::MaskBitmap& indexed_bitmap() const {
    return indexed_;
  }

  /// Visit every code of [lo, hi) the subject holds, in ascending code
  /// order, as fn(code, positions) with the code's positions ascending.
  /// Touches the bucket table over the range and the entries inside it,
  /// never the codes the subject lacks.
  template <typename Fn>
  void for_each_code(SeedCode lo, SeedCode hi, Fn&& fn) const {
    if (lo >= hi) return;
    const std::size_t last = (hi - 1) >> low_bits_;
    for (std::size_t b = lo >> low_bits_; b <= last; ++b) {
      std::size_t i = buckets_[b];
      const std::size_t end = buckets_[b + 1];
      if (i == end) continue;
      const auto top = static_cast<SeedCode>(b << low_bits_);
      if (low_bits_ == 0) {
        // One code per bucket, inside [lo, hi) by the loop bounds.
        fn(top, positions().subspan(i, end - i));
        continue;
      }
      while (i < end) {
        const std::uint8_t low = lows_[i];
        std::size_t j = i + 1;
        while (j < end && lows_[j] == low) ++j;
        const SeedCode code = top | low;
        if (code >= hi) break;
        if (code >= lo) fn(code, positions().subspan(i, j - i));
        i = j;
      }
    }
  }

  /// Total indexed word starts.
  [[nodiscard]] std::size_t total_indexed() const {
    return positions_.size();
  }

  /// Positions excluded by the build-time soft mask (0 when unmasked).
  [[nodiscard]] std::size_t masked_bases() const { return masked_bases_; }

  /// Low code bits kept per word start (2L above); 0 up to W = 8.
  [[nodiscard]] unsigned low_bits() const { return low_bits_; }

  /// Bytes of the bucket table: fixed by W, whatever the bank holds.
  [[nodiscard]] std::size_t dictionary_bytes() const {
    return buckets_.size() * sizeof(std::uint32_t);
  }

  /// Bytes of the per-word arrays: 4 for the position plus the low-bits
  /// byte when W > 8.
  [[nodiscard]] std::size_t chain_bytes() const {
    return positions_.size() * sizeof(std::int32_t) +
           lows_.size() * sizeof(std::uint8_t);
  }

  /// Bytes held by the index: bucket table plus per-word arrays.
  [[nodiscard]] std::size_t memory_bytes() const {
    return dictionary_bytes() + chain_bytes();
  }

 private:
  [[nodiscard]] std::span<const std::int32_t> positions() const {
    return positions_;
  }

  const seqio::SequenceBank* bank_;
  SeedCoder coder_;
  unsigned low_bits_ = 0;
  std::vector<std::uint32_t> buckets_;   // 4^W / 2^low_bits_ + 1 entries
  std::vector<std::int32_t> positions_;  // (code, position) ascending
  std::vector<std::uint8_t> lows_;       // code & (2^low_bits_ - 1)
  filter::MaskBitmap indexed_;           // word-start membership
  std::size_t masked_bases_ = 0;
};

}  // namespace scoris::index
