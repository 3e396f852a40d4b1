#include "index/word_starts.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

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

/// Buckets up to this size sort by insertion.
constexpr std::size_t kInsertionMax = 16;
/// Buckets up to this size sort through a scratch of this many positions
/// (16 KiB); larger ones, rare outside low-complexity input, sort in place.
constexpr std::size_t kScratchEntries = 4096;

/// Order one bucket's n entries by low bits.  Positions arrive ascending
/// and stay ascending among equal low bits, so the bucket ends in (code,
/// position) order.  `scratch` holds kScratchEntries positions.
void sort_bucket(std::uint8_t* low, std::int32_t* pos, std::size_t n,
                 std::size_t num_lows, std::int32_t* scratch) {
  if (std::is_sorted(low, low + n)) return;
  if (n <= kInsertionMax) {
    for (std::size_t i = 1; i < n; ++i) {
      const std::uint8_t l = low[i];
      const std::int32_t p = pos[i];
      std::size_t j = i;
      for (; j > 0 && low[j - 1] > l; --j) {
        low[j] = low[j - 1];
        pos[j] = pos[j - 1];
      }
      low[j] = l;
      pos[j] = p;
    }
    return;
  }
  // first[v] .. first[v+1] is low value v's range of the sorted bucket.
  std::array<std::uint32_t, (1u << kMaxLowBits) + 1> first;
  std::fill_n(first.begin(), num_lows + 1, 0u);
  for (std::size_t i = 0; i < n; ++i) ++first[low[i] + 1u];
  for (std::size_t v = 1; v <= num_lows; ++v) first[v] += first[v - 1];
  std::array<std::uint32_t, 1u << kMaxLowBits> next;
  std::copy_n(first.begin(), num_lows, next.begin());
  if (n <= kScratchEntries) {
    // A stable counting sort through the scratch.
    for (std::size_t i = 0; i < n; ++i) scratch[next[low[i]]++] = pos[i];
    std::copy_n(scratch, n, pos);
  } else {
    // Swap every entry into its value's range (an American flag sort),
    // then restore each range's ascending positions.
    for (std::size_t v = 0; v < num_lows; ++v) {
      while (next[v] < first[v + 1]) {
        const std::uint8_t x = low[next[v]];
        if (x == v) {
          ++next[v];
          continue;
        }
        std::swap(low[next[v]], low[next[x]]);
        std::swap(pos[next[v]], pos[next[x]]);
        ++next[x];
      }
    }
    for (std::size_t v = 0; v < num_lows; ++v) {
      std::sort(pos + first[v], pos + first[v + 1]);
    }
  }
  for (std::size_t v = 0; v < num_lows; ++v) {
    std::fill(low + first[v], low + first[v + 1],
              static_cast<std::uint8_t>(v));
  }
}

}  // namespace

WordBuckets bucket_word_starts(const seqio::SequenceBank& bank,
                               const SeedCoder& coder,
                               const IndexOptions& options,
                               unsigned low_bits, const char* what) {
  const auto fail = [what](const std::string& problem) {
    throw std::invalid_argument(std::string(what) + ": " + problem);
  };
  if (coder.w() > kMaxW) {
    fail("W > " + std::to_string(kMaxW) + " dictionary too large");
  }
  if (low_bits > kMaxLowBits ||
      low_bits > 2u * static_cast<unsigned>(coder.w())) {
    fail("low_bits " + std::to_string(low_bits) + " out of range");
  }
  if (options.stride < 1) fail("stride must be >= 1");
  if (options.mask != nullptr && options.mask->size() != bank.data_size()) {
    fail("mask size mismatch");
  }
  const auto w = static_cast<std::size_t>(coder.w());
  const auto stride = static_cast<std::size_t>(options.stride);
  const std::size_t buckets = coder.num_seeds() >> low_bits;
  WordBuckets out;
  out.indexed = filter::MaskBitmap(bank.data_size());
  out.starts.assign(buckets + 1, 0);

  // Pass 1: select the word starts and count them per bucket.  The stride
  // applies to *sequence-local* offsets, so the indexed word set never
  // depends on what precedes a sequence in the bank (this keeps sliced
  // and chunked runs bit-identical, see core/chunked.hpp).
  for_each_word_descending(
      bank, coder, [&](std::size_t p, std::size_t local, SeedCode code) {
        if (local % stride != 0) return;
        if (options.mask != nullptr && options.mask->any_in(p, w)) return;
        out.indexed.set(p);
        ++out.starts[code >> low_bits];
      });

  // Running sums turn each count into its bucket's end; pass 2 fills
  // every bucket back to front while walking positions downwards, which
  // leaves each start at its bucket's start and each bucket ascending.
  std::uint32_t end = 0;
  for (std::size_t k = 0; k < buckets; ++k) {
    if (out.starts[k] != 0) ++out.filled;
    end += out.starts[k];
    out.starts[k] = end;
  }
  out.starts[buckets] = end;
  out.positions.resize(end);
  if (low_bits > 0) out.lows.resize(end);
  const SeedCode low_mask = (SeedCode{1} << low_bits) - 1;
  for_each_word_descending(
      bank, coder, [&](std::size_t p, std::size_t, SeedCode code) {
        if (!out.indexed.test(p)) return;
        const std::uint32_t slot = --out.starts[code >> low_bits];
        out.positions[slot] = static_cast<std::int32_t>(p);
        if (low_bits > 0) {
          out.lows[slot] = static_cast<std::uint8_t>(code & low_mask);
        }
      });

  if (low_bits > 0) {
    std::vector<std::int32_t> scratch(kScratchEntries);
    for (std::size_t k = 0; k < buckets; ++k) {
      sort_bucket(out.lows.data() + out.starts[k],
                  out.positions.data() + out.starts[k],
                  out.starts[k + 1] - out.starts[k],
                  std::size_t{1} << low_bits, scratch.data());
    }
  }
  return out;
}

}  // namespace scoris::index
