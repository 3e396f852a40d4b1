#include "index/bank_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "store/format.hpp"

namespace scoris::index {

namespace {

/// Call fn(p, local, code) for every all-ACGT W-word of `bank` — global
/// start p, sequence-local start `local`, seed code — from the last
/// sequence's last word down to the first sequence's first.  Words never
/// span a sequence boundary.
template <typename Fn>
void for_each_word_descending(const seqio::SequenceBank& bank,
                              const SeedCoder& coder, Fn&& fn) {
  const auto codes = bank.data();
  const auto w = static_cast<std::size_t>(coder.w());
  for (std::size_t s = bank.size(); s-- > 0;) {
    const std::size_t off = bank.offset(s);
    std::size_t run = 0;  // concrete bases starting at the current position
    SeedCode code = 0;
    for (std::size_t local = bank.length(s); local-- > 0;) {
      const seqio::Code c = codes[off + local];
      if (!seqio::is_base(c)) {
        run = 0;
        continue;
      }
      code = coder.roll_left(code, c);
      if (++run >= w) fn(off + local, local, code);
    }
  }
}

}  // namespace

BankIndex::BankIndex(const seqio::SequenceBank& bank, const SeedCoder& coder,
                     const IndexOptions& options)
    : bank_(&bank), coder_(coder) {
  if (coder.w() > 13) {
    throw std::invalid_argument("BankIndex: W > 13 dictionary too large");
  }
  if (options.stride < 1) {
    throw std::invalid_argument("BankIndex: stride must be >= 1");
  }
  if (options.mask != nullptr && options.mask->size() != bank.data_size()) {
    throw std::invalid_argument("BankIndex: mask size mismatch");
  }
  const auto w = static_cast<std::size_t>(coder.w());
  const auto stride = static_cast<std::size_t>(options.stride);
  const std::size_t num_seeds = coder.num_seeds();
  indexed_ = filter::MaskBitmap(bank.data_size());
  if (options.mask != nullptr) masked_bases_ = options.mask->count();

  // Pass 1: select the word starts and count them per code.  The stride
  // applies to *sequence-local* offsets, so the indexed word set never
  // depends on what precedes a sequence in the bank (this keeps sliced
  // and chunked runs bit-identical, see core/chunked.hpp).
  offsets_storage_.assign(num_seeds + 1, 0);
  for_each_word_descending(
      bank, coder, [&](std::size_t p, std::size_t local, SeedCode code) {
        if (local % stride != 0) return;
        if (options.mask != nullptr && options.mask->any_in(p, w)) return;
        indexed_.set(p);
        if (offsets_storage_[code]++ == 0) ++distinct_seeds_;
        ++total_indexed_;
      });

  // Running sums turn each count into its bucket's end; pass 2 fills
  // every bucket back to front while walking positions downwards, which
  // leaves each offset at its bucket's start and each bucket ascending.
  std::uint32_t end = 0;
  for (std::size_t code = 0; code < num_seeds; ++code) {
    end += offsets_storage_[code];
    offsets_storage_[code] = end;
  }
  offsets_storage_[num_seeds] = end;
  positions_storage_.resize(total_indexed_);
  for_each_word_descending(
      bank, coder, [&](std::size_t p, std::size_t, SeedCode code) {
        if (indexed_.test(p)) {
          positions_storage_[--offsets_storage_[code]] =
              static_cast<std::int32_t>(p);
        }
      });
  occ_offsets_ = offsets_storage_;
  occ_positions_ = positions_storage_;
}

std::vector<std::size_t> BankIndex::occupancy_histogram(
    std::size_t buckets) const {
  const std::size_t codes = coder_.num_seeds();
  buckets = std::min(std::max<std::size_t>(1, buckets), codes);
  std::vector<std::size_t> hist(buckets, 0);
  const std::size_t per = (codes + buckets - 1) / buckets;
  for (std::size_t code = 0; code < codes; ++code) {
    hist[code / per] += occ_offsets_[code + 1] - occ_offsets_[code];
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
