// The word-start rules and the counting sort every seed index shares.
//
// A position p is a word start of an index when
//   * the W bases from p are all ACGT and lie inside one sequence;
//   * its sequence-local offset is a multiple of the stride;
//   * no base of the word is in the soft mask.
//
// bucket_word_starts selects them and sorts them by (seed code,
// position).  BankIndex (the reference) keys its buckets on the whole
// code, so every bucket is one code and the bucket starts are the 4^W+1
// dictionary.  SubjectIndex (a bank-2 group) keys them on the code's top
// bits only and keeps each word's low code bits beside its position, so
// its table has a fixed size whatever W.  Both come from this one routine,
// so for the same bank and options they select the same word starts in
// the same order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "filter/mask.hpp"
#include "index/seed_coder.hpp"
#include "seqio/sequence_bank.hpp"

namespace scoris::index {

struct IndexOptions {
  /// Index word starts whose *sequence-local* offset is a multiple of
  /// stride (1 = every position; 2 = the paper's asymmetric half-words;
  /// W = BLAT-style non-overlapping tiles).
  int stride = 1;
  const filter::MaskBitmap* mask = nullptr;  ///< optional soft mask
};

/// An index's word starts in (code, position) order, bucketed by the top
/// bits of their codes, `code >> low_bits`.
struct WordBuckets {
  /// One bit per bank position: set at every word start.
  filter::MaskBitmap indexed;
  /// 4^W / 2^low_bits + 1 entries: bucket k holds
  /// positions[starts[k] .. starts[k+1]).
  std::vector<std::uint32_t> starts;
  /// Every word start, ascending by (code, position).
  std::vector<std::int32_t> positions;
  /// code & (2^low_bits - 1) of each word start, beside its position;
  /// empty when low_bits is 0, where each bucket is one code.
  std::vector<std::uint8_t> lows;
  /// Buckets holding at least one word start (the distinct seeds when
  /// low_bits is 0).
  std::size_t filled = 0;
};

/// Low code bits a WordBuckets entry can carry.
inline constexpr unsigned kMaxLowBits = 8;

/// Select `bank`'s word starts under `options` and counting-sort them
/// into 4^W / 2^low_bits buckets, (code, position) ascending.  Throws
/// std::invalid_argument, prefixed by `what`, when W exceeds kMaxW,
/// low_bits exceeds kMaxLowBits or 2W, the stride is below 1, or the mask
/// does not cover the bank.  Beyond the result it allocates one fixed
/// 16 KiB sort scratch, and only when low_bits is above 0.
[[nodiscard]] WordBuckets bucket_word_starts(const seqio::SequenceBank& bank,
                                             const SeedCoder& coder,
                                             const IndexOptions& options,
                                             unsigned low_bits,
                                             const char* what);

}  // namespace scoris::index
