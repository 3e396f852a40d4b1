// The word-start rules and the counting sort every seed index shares.
//
// A position p is a word start of an index when
//   * the W bases from p are all ACGT and lie inside one sequence;
//   * its sequence-local offset is a multiple of the stride;
//   * no base of the word is in the soft mask.
//
// bucket_word_starts selects them and sorts them by (seed code,
// position), through one bucketed counting sort for both indexes: it keys
// its buckets on the code's top bits, 4^min(W,8) buckets (4^9 at W = 13),
// and sorts each bucket by the word's low code bits.  SubjectIndex (a
// bank-2 group) keeps that bucket table and each word's low bits beside
// its position, so its table has a fixed size whatever W.  BankIndex (the
// reference) gets one start per code instead, the 4^W + 1 dictionary,
// derived from each bucket's low bits as the bucket is sorted; the low
// bits are then freed.  For the same bank and options both select the
// same word starts in the same order.
//
// The build runs in three phases, on IndexOptions::pool when one is
// given and inline otherwise:
//   count    the bank is cut into contiguous position ranges, one per
//            pool thread but each at least as long as the bucket count (a
//            smaller bank builds inline), at multiples of 64 positions so
//            that no two ranges write the same bitmap word.  Each range
//            selects its word starts (reading W - 1 bases past its cut, so
//            words that cross it are kept) and counts them in its own
//            bucket table;
//   scatter  an exclusive scan over (bucket, range) gives every range its
//            slots in each bucket, and each range places its word starts
//            there with no atomics;
//   sort     the buckets are sorted, split into bucket ranges.
// Ranges follow bank order, so every bucket fills in ascending positions
// and the arrays are byte-identical for any pool size.  Besides the
// result, the build holds a bucket table for each range but one (never
// more bytes than the positions) and, at W > 8, one low-bits byte per
// word start; each sort task holds a 16 KiB scratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "filter/mask.hpp"
#include "index/seed_coder.hpp"
#include "seqio/sequence_bank.hpp"

namespace scoris::util {
class ThreadPool;
}  // namespace scoris::util

namespace scoris::index {

struct IndexOptions {
  /// Index word starts whose *sequence-local* offset is a multiple of
  /// stride (1 = every position; 2 = the paper's asymmetric half-words;
  /// W = BLAT-style non-overlapping tiles).
  int stride = 1;
  const filter::MaskBitmap* mask = nullptr;  ///< optional soft mask
  /// Pool the build runs on (nullptr = inline).  The arrays are the same
  /// for any pool.
  util::ThreadPool* pool = nullptr;
};

/// What a build keys its word starts on.
enum class Keys {
  kCode,    ///< one bucket per code: 4^W + 1 starts (BankIndex)
  kBucket,  ///< the code's top bits, low bits beside each position
            ///< (SubjectIndex)
};

/// An index's word starts in (code, position) order, bucketed by the top
/// bits of their codes, `code >> low_bits`.
struct WordBuckets {
  /// One bit per bank position: set at every word start.
  filter::MaskBitmap indexed;
  /// Code bits below the bucket key: 0 under Keys::kCode, where each
  /// bucket is one code.
  unsigned low_bits = 0;
  /// 4^W / 2^low_bits + 1 entries: bucket k holds
  /// positions[starts[k] .. starts[k+1]).
  std::vector<std::uint32_t> starts;
  /// Every word start, ascending by (code, position).
  std::vector<std::int32_t> positions;
  /// code & (2^low_bits - 1) of each word start, beside its position;
  /// empty when low_bits is 0.
  std::vector<std::uint8_t> lows;
  /// Buckets holding at least one word start (the distinct seeds under
  /// Keys::kCode).
  std::size_t filled = 0;
};

/// Low code bits a WordBuckets entry can carry.
inline constexpr unsigned kMaxLowBits = 8;

/// Select `bank`'s word starts under `options` and counting-sort them by
/// (code, position) into buckets keyed as `keys` says.  Throws
/// std::invalid_argument, prefixed by `what`, when W exceeds kMaxW, the
/// stride is below 1, or the mask does not cover the bank.
[[nodiscard]] WordBuckets bucket_word_starts(const seqio::SequenceBank& bank,
                                             const SeedCoder& coder,
                                             const IndexOptions& options,
                                             Keys keys, const char* what);

}  // namespace scoris::index
