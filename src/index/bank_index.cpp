#include "index/bank_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "store/format.hpp"

namespace scoris::index {

BankIndex::BankIndex(const seqio::SequenceBank& bank, const SeedCoder& coder,
                     const IndexOptions& options)
    : bank_(&bank), coder_(coder) {
  // Buckets keyed on the whole code: the bucket starts are the 4^W + 1
  // offsets.
  WordBuckets words =
      bucket_word_starts(bank, coder, options, Keys::kCode, "BankIndex");
  if (options.mask != nullptr) masked_bases_ = options.mask->count();
  indexed_ = std::move(words.indexed);
  offsets_storage_ = std::move(words.starts);
  positions_storage_ = std::move(words.positions);
  total_indexed_ = positions_storage_.size();
  distinct_seeds_ = words.filled;
  occ_offsets_ = offsets_storage_;
  occ_positions_ = positions_storage_;
}

std::vector<std::size_t> BankIndex::occupancy_histogram(
    std::size_t buckets) const {
  const std::size_t codes = coder_.num_seeds();
  buckets = std::min(std::max<std::size_t>(1, buckets), codes);
  std::vector<std::size_t> hist(buckets, 0);
  const std::size_t per = (codes + buckets - 1) / buckets;
  // The offsets are cumulative, so a bucket's total is one subtraction.
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t lo = std::min(b * per, codes);
    const std::size_t hi = std::min(lo + per, codes);
    hist[b] = occ_offsets_[hi] - occ_offsets_[lo];
  }
  return hist;
}

void BankIndex::save_body(store::SectionWriter& section) const {
  section.put_u64(total_indexed_);
  section.put_u64(distinct_seeds_);
  section.put_u64(masked_bases_);
  section.put_array(std::span<const std::uint64_t>(indexed_.words()));
  section.put_u64(indexed_.size());
  section.put_array(occ_offsets_);
  section.put_array(occ_positions_);
}

BankIndex BankIndex::load_body(store::SectionReader& section,
                               const seqio::SequenceBank& bank,
                               const SeedCoder& coder,
                               const std::string& what) {
  const auto fail = [&what](const char* problem) {
    throw std::runtime_error(what + ": INDX payload " + problem);
  };
  BankIndex idx(bank, coder, Unbuilt{});
  idx.total_indexed_ = section.read_u64();
  idx.distinct_seeds_ = section.read_u64();
  idx.masked_bases_ = section.read_u64();
  // The bitmap is copied because MaskBitmap owns its words; offsets and
  // positions (the big arrays) stay in the section payload.
  auto words = section.read_array<std::uint64_t>();
  const std::uint64_t bits = section.read_u64();
  if (bits != bank.data_size() || words.size() != (bits + 63) / 64) {
    fail("bitmap size mismatch");
  }
  idx.indexed_ = filter::MaskBitmap::from_words(
      std::move(words), static_cast<std::size_t>(bits));
  idx.occ_offsets_ = section.read_array_view<std::uint32_t>();
  idx.occ_positions_ = section.read_array_view<std::int32_t>();
  idx.owner_ = section.payload_owner();
  if (idx.occ_offsets_.size() != coder.num_seeds() + 1) {
    fail("offsets size mismatch");
  }
  if (idx.occ_positions_.size() != idx.total_indexed_) {
    fail("positions size mismatch");
  }

  if (idx.occ_offsets_.front() != 0 ||
      idx.occ_offsets_.back() != idx.total_indexed_ ||
      !std::is_sorted(idx.occ_offsets_.begin(), idx.occ_offsets_.end())) {
    fail("offsets are not ascending from 0 to the position count");
  }
  const auto w = static_cast<std::size_t>(coder.w());
  for (const std::int32_t p : idx.occ_positions_) {
    if (p < 0 || static_cast<std::size_t>(p) + w > bank.data_size() ||
        !idx.indexed_.test(static_cast<std::size_t>(p))) {
      fail("position outside the bank's indexed word starts");
    }
  }
  return idx;
}

}  // namespace scoris::index
