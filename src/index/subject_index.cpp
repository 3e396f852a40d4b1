#include "index/subject_index.hpp"

#include <utility>

namespace scoris::index {

SubjectIndex::SubjectIndex(const seqio::SequenceBank& bank,
                           const SeedCoder& coder,
                           const IndexOptions& options)
    : bank_(&bank), coder_(coder) {
  WordBuckets words =
      bucket_word_starts(bank, coder, options, Keys::kBucket, "SubjectIndex");
  if (options.mask != nullptr) masked_bases_ = options.mask->count();
  low_bits_ = words.low_bits;
  indexed_ = std::move(words.indexed);
  buckets_ = std::move(words.starts);
  positions_ = std::move(words.positions);
  lows_ = std::move(words.lows);
}

}  // namespace scoris::index
