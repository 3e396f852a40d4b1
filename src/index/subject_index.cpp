#include "index/subject_index.hpp"

#include <algorithm>
#include <utility>

namespace scoris::index {
namespace {

/// Code characters whose bits ride in the per-word byte: none up to
/// W = 8, then one per character beyond 8, at most 4 (one byte).
unsigned low_bits_for(int w) {
  return 2u * static_cast<unsigned>(std::clamp(w - 8, 0, 4));
}

}  // namespace

SubjectIndex::SubjectIndex(const seqio::SequenceBank& bank,
                           const SeedCoder& coder,
                           const IndexOptions& options)
    : bank_(&bank), coder_(coder), low_bits_(low_bits_for(coder.w())) {
  WordBuckets words =
      bucket_word_starts(bank, coder, options, low_bits_, "SubjectIndex");
  if (options.mask != nullptr) masked_bases_ = options.mask->count();
  indexed_ = std::move(words.indexed);
  buckets_ = std::move(words.starts);
  positions_ = std::move(words.positions);
  lows_ = std::move(words.lows);
}

}  // namespace scoris::index
