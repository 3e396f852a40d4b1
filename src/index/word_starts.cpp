#include "index/word_starts.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>
#include <ranges>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/threading.hpp"

namespace scoris::index {
namespace {

/// Code bits below a bucket's key at word length w: none up to W = 8,
/// then two per character beyond 8, at most 8 (one byte), so the build
/// sorts into 4^min(W, 8) buckets, and 4^9 at W = 13.
unsigned bucket_low_bits(int w) {
  return 2u * static_cast<unsigned>(std::clamp(w - 8, 0, 4));
}

/// Run fn(0) .. fn(count - 1) on `pool`, or inline when it is null.
void run_on(util::ThreadPool* pool, std::size_t count,
            const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    util::run_tasks(*pool, count, util::Schedule::kStealing, fn);
  } else {
    util::run_tasks(count, 1, util::Schedule::kStatic, fn);
  }
}

/// Call fn(p, local, code) for every W-word of `bank` that starts in
/// [lo, hi), ascending: global start p, sequence-local start `local`,
/// seed code `code`.  The W bases are ACGT, lie inside one sequence and,
/// when `mask` is set, none of them is masked.  Words starting before hi
/// end up to W - 1 bases past it, so the walk reads that far.
template <typename Fn>
void for_each_word(const seqio::SequenceBank& bank, const SeedCoder& coder,
                   const filter::MaskBitmap* mask, std::size_t lo,
                   std::size_t hi, Fn&& fn) {
  const auto codes = bank.data();
  const auto w = static_cast<std::size_t>(coder.w());
  // Start at the first sequence that ends after lo.
  const auto seqs = std::views::iota(std::size_t{0}, bank.size());
  const auto ends_before = [&](std::size_t s) {
    return bank.offset(s) + bank.length(s) <= lo;
  };
  const auto first = std::ranges::partition_point(seqs, ends_before);
  for (auto s = static_cast<std::size_t>(first - seqs.begin());
       s < bank.size() && bank.offset(s) < hi; ++s) {
    const std::size_t off = bank.offset(s);
    const std::size_t len = bank.length(s);
    if (len < w) continue;
    const std::size_t from = std::max(off, lo);
    const std::size_t to = std::min(off + len - w + 1, hi);
    if (from >= to) continue;
    std::size_t run = 0;       // concrete bases ending at q
    std::size_t clean = from;  // no masked base in [clean, q]
    SeedCode code = 0;
    for (std::size_t q = from; q + 1 < to + w; ++q) {
      const seqio::Code c = codes[q];
      if (!seqio::is_base(c)) {
        run = 0;
        continue;
      }
      code = coder.roll_right(code, c);
      if (mask != nullptr && mask->test(q)) clean = q + 1;
      if (++run < w) continue;
      const std::size_t p = q + 1 - w;
      if (p >= clean) fn(p, p - off, code);
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
/// position) order.  `scratch` holds kScratchEntries positions.  When
/// `code_starts` is set, also write each low value v's start, `base` plus
/// the entries below v, to code_starts[v], and return the values the
/// bucket holds (0 otherwise).
std::size_t sort_bucket(std::uint8_t* low, std::int32_t* pos, std::size_t n,
                        std::size_t num_lows, std::int32_t* scratch,
                        std::uint32_t base, std::uint32_t* code_starts) {
  // first[v] .. first[v+1] is low value v's range of the sorted bucket.
  std::array<std::uint32_t, (1u << kMaxLowBits) + 1> first;
  std::size_t present = 0;
  if (code_starts != nullptr || n > kInsertionMax) {
    std::fill_n(first.begin(), num_lows + 1, 0u);
    for (std::size_t i = 0; i < n; ++i) ++first[low[i] + 1u];
    for (std::size_t v = 1; v <= num_lows; ++v) first[v] += first[v - 1];
    if (code_starts != nullptr) {
      for (std::size_t v = 0; v < num_lows; ++v) {
        code_starts[v] = base + first[v];
        present += first[v + 1] != first[v] ? 1 : 0;
      }
    }
  }
  if (std::is_sorted(low, low + n)) return present;
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
    return present;
  }
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
  return present;
}

}  // namespace

WordBuckets bucket_word_starts(const seqio::SequenceBank& bank,
                               const SeedCoder& coder,
                               const IndexOptions& options, Keys keys,
                               const char* what) {
  const auto fail = [what](const std::string& problem) {
    std::string message(what);
    message += ": ";
    message += problem;
    throw std::invalid_argument(message);
  };
  if (coder.w() > kMaxW) {
    std::string problem = "W > ";
    problem += std::to_string(kMaxW);
    problem += " dictionary too large";
    fail(problem);
  }
  if (options.stride < 1) fail("stride must be >= 1");
  if (options.mask != nullptr && options.mask->size() != bank.data_size()) {
    fail("mask size mismatch");
  }
  const auto stride = static_cast<std::size_t>(options.stride);
  const unsigned low_bits = bucket_low_bits(coder.w());
  const std::size_t num_lows = std::size_t{1} << low_bits;
  const std::size_t buckets = coder.num_seeds() >> low_bits;

  // Contiguous position ranges in bank order, cut at multiples of 64 so
  // that no two ranges share a word of the bitmap.  Each range holds at
  // least as many positions as its table has buckets: the tables never
  // outweigh the positions, and a bank too small to repay a table's
  // zeroing, scan and cross-core traffic builds inline.
  const std::size_t n = bank.data_size();
  const std::size_t blocks = (n + 63) / 64;
  const std::size_t threads =
      options.pool != nullptr ? options.pool->thread_count() : 1;
  const std::size_t ranges =
      std::max<std::size_t>(1, std::min({threads, blocks, n / buckets}));
  const auto cut = [&](std::size_t r) {
    return std::min(n, 64 * (r * blocks / ranges));
  };

  // Pass 1: each range selects its word starts, writes its bitmap words
  // and counts its words per bucket in its own table.  The stride applies
  // to *sequence-local* offsets, so the indexed word set never depends on
  // what precedes a sequence in the bank (this keeps sliced and chunked
  // runs bit-identical, see core/chunked.hpp).  The last range's table is
  // starts[1 ..]: it fills the last slots of every bucket, so once it has
  // placed its words its cursor for bucket k is where bucket k + 1 starts.
  std::vector<std::uint64_t> bits(blocks, 0);
  std::vector<std::uint32_t> starts(buckets + 1, 0);
  std::vector<std::uint32_t> earlier_tables((ranges - 1) * buckets, 0);
  std::vector<std::uint32_t*> tables(ranges, starts.data() + 1);
  for (std::size_t r = 0; r + 1 < ranges; ++r) {
    tables[r] = earlier_tables.data() + r * buckets;
  }
  run_on(options.pool, ranges, [&](std::size_t r) {
    std::uint32_t* count = tables[r];
    std::size_t word = cut(r) / 64;
    std::uint64_t acc = 0;  // the bits of `word` so far
    const auto select = [&](std::size_t p, std::size_t local, SeedCode code) {
      if (stride != 1 && local % stride != 0) return;
      if (p / 64 != word) {
        bits[word] = acc;
        word = p / 64;
        acc = 0;
      }
      acc |= std::uint64_t{1} << (p % 64);
      ++count[code >> low_bits];
    };
    for_each_word(bank, coder, options.mask, cut(r), cut(r + 1), select);
    if (acc != 0) bits[word] = acc;
  });

  // An exclusive scan over (bucket, range) turns every count into that
  // range's first slot in the bucket: ranges follow bank order, so each
  // bucket fills in ascending positions whatever the number of ranges.
  WordBuckets out;
  out.indexed = filter::MaskBitmap::from_words(std::move(bits), n);
  std::uint32_t total = 0;
  for (std::size_t k = 0; k < buckets; ++k) {
    const std::uint32_t first = total;
    for (std::uint32_t* t : tables) total += std::exchange(t[k], total);
    out.filled += total != first ? 1 : 0;
  }

  // Pass 2: each range walks its words again and scatters its word starts
  // into its slots, with no two ranges writing the same slot.
  out.positions.resize(total);
  if (low_bits > 0) out.lows.resize(total);
  const SeedCode low_mask = static_cast<SeedCode>(num_lows - 1);
  run_on(options.pool, ranges, [&](std::size_t r) {
    std::uint32_t* next = tables[r];
    const auto place = [&](std::size_t p, std::size_t, SeedCode code) {
      if (!out.indexed.test(p)) return;
      const std::uint32_t slot = next[code >> low_bits]++;
      out.positions[slot] = static_cast<std::int32_t>(p);
      if (low_bits > 0) {
        out.lows[slot] = static_cast<std::uint8_t>(code & low_mask);
      }
    };
    for_each_word(bank, coder, nullptr, cut(r), cut(r + 1), place);
  });
  earlier_tables = std::vector<std::uint32_t>();  // frees, unlike `= {}`

  if (low_bits == 0) {
    // Every bucket is one code: the bucket starts are the code starts.
    out.starts = std::move(starts);
    return out;
  }

  // Sort each bucket by its low bits, split over bucket ranges.  Under
  // Keys::kCode each sorted bucket also writes its codes' starts.
  std::vector<std::uint32_t> code_starts;
  if (keys == Keys::kCode) code_starts.resize(coder.num_seeds() + 1);
  const std::size_t tasks = ranges == 1 ? 1 : 4 * ranges;
  std::vector<std::size_t> filled(tasks, 0);
  std::uint8_t* lows = out.lows.data();
  std::int32_t* positions = out.positions.data();
  std::uint32_t* codes = code_starts.empty() ? nullptr : code_starts.data();
  run_on(options.pool, tasks, [&](std::size_t t) {
    std::vector<std::int32_t> scratch(kScratchEntries);
    std::size_t present = 0;
    for (std::size_t k = buckets * t / tasks; k < buckets * (t + 1) / tasks;
         ++k) {
      const std::uint32_t at = starts[k];
      const std::uint32_t size = starts[k + 1] - at;
      if (codes == nullptr && size <= 1) continue;  // already in order
      present += sort_bucket(lows + at, positions + at, size, num_lows,
                             scratch.data(), at,
                             codes == nullptr ? nullptr
                                              : codes + (k << low_bits));
    }
    filled[t] = present;
  });

  if (keys == Keys::kBucket) {
    out.low_bits = low_bits;
    out.starts = std::move(starts);
    return out;
  }
  code_starts.back() = total;
  out.starts = std::move(code_starts);
  out.lows = std::vector<std::uint8_t>();
  out.filled = std::accumulate(filled.begin(), filled.end(), std::size_t{0});
  return out;
}

}  // namespace scoris::index
