// Differential test of step 2's ungapped x-drop walk: the plain extension
// (align::extend_ungapped, which BLASTN, its BLAT configuration and the
// order-rule ablation run) and the ORIS ordered extension
// (core::extend_ordered) must return exactly what the frozen copy of the
// walks they replaced returns (tests/frozen_ungapped.hpp): the same HSP
// bounds and score, and the same left and right abort decisions, under
// every kernel this CPU runs.  Cases: random pairs at 0-15% substitutions,
// ambiguity codes, sentinels at both ends and between sequences, plain
// spans without sentinels, (AC)^n repeats that abort on both sides and
// tie on equal codes, W from 4 to 13, DUST-masked and stride-2 indexes,
// where words inside a match run are not indexed, and runs around the
// length the walk matches inline before it calls the kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "align/scoring.hpp"
#include "align/simd/kernel_dispatch.hpp"
#include "align/ungapped.hpp"
#include "core/ordered_extend.hpp"
#include "filter/dust.hpp"
#include "frozen_ungapped.hpp"
#include "index/bank_index.hpp"
#include "simulate/generators.hpp"
#include "simulate/mutate.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris {
namespace {

using align::simd::Kernel;
using align::simd::KernelOps;
using scoris::testing::CodeStr;
using seqio::Code;
using seqio::kSentinel;
using seqio::Pos;

std::vector<const KernelOps*> kernels() {
  std::vector<const KernelOps*> out;
  for (const Kernel k : {Kernel::kScalar, Kernel::kAvx2}) {
    if (align::simd::cpu_supports(k)) out.push_back(&align::simd::kernel(k));
  }
  return out;
}

simulate::MutationModel substitutions(double rate) {
  simulate::MutationModel m;
  m.sub_rate = rate;
  m.ins_rate = 0.0;
  m.del_rate = 0.0;
  return m;
}

/// Match 2, mismatch 1, x-drop 6: mismatches cost less, so walks ride
/// through more of them than under the default scoring.
align::ScoringParams alt_params() {
  align::ScoringParams p;
  p.match = 2;
  p.mismatch = 1;
  p.xdrop_ungapped = 6;
  return p;
}

std::vector<align::ScoringParams> param_sets() {
  return {align::ScoringParams{}, alt_params()};
}

bool word_matches(std::span<const Code> a, std::size_t p1,
                  std::span<const Code> b, std::size_t p2, int w) {
  if (p1 + static_cast<std::size_t>(w) > a.size() ||
      p2 + static_cast<std::size_t>(w) > b.size()) {
    return false;
  }
  for (int k = 0; k < w; ++k) {
    const Code c = a[p1 + static_cast<std::size_t>(k)];
    if (!seqio::is_base(c) || c != b[p2 + static_cast<std::size_t>(k)]) {
      return false;
    }
  }
  return true;
}

/// Runs the plain walk, live and frozen, from every seed of W matching
/// bases; returns the seeds tried.  `all_pairs` tries every (p1, p2),
/// otherwise only the main diagonal.
std::size_t expect_same_plain(std::span<const Code> a, std::span<const Code> b,
                              int w, bool all_pairs) {
  std::size_t seeds = 0;
  for (const align::ScoringParams& params : param_sets()) {
    for (std::size_t p1 = 0; p1 < a.size(); ++p1) {
      const std::size_t lo = all_pairs ? 0 : p1;
      const std::size_t hi = all_pairs ? b.size() : p1 + 1;
      for (std::size_t p2 = lo; p2 < hi; ++p2) {
        if (!word_matches(a, p1, b, p2, w)) continue;
        ++seeds;
        for (const KernelOps* ops : kernels()) {
          const align::Hsp live = align::extend_ungapped(
              a, b, static_cast<Pos>(p1), static_cast<Pos>(p2), w, params,
              *ops);
          const align::Hsp ref = align::frozen::extend_ungapped(
              a, b, static_cast<Pos>(p1), static_cast<Pos>(p2), w, params,
              *ops);
          EXPECT_EQ(live, ref) << ops->name << " w=" << w << " seed (" << p1
                               << ", " << p2 << ") match " << params.match;
        }
      }
    }
  }
  return seeds;
}

/// What a batch of ordered walks did, so cases can check their coverage.
struct OrderedTally {
  std::size_t pairs = 0;
  std::size_t aborted_left = 0;
  std::size_t aborted_right = 0;
  std::size_t hsps = 0;
};

/// Runs the ordered walk, live and frozen, over every seed pair the two
/// indexes share, under each kernel and scoring.
OrderedTally expect_same_ordered(const index::BankIndex& idx1,
                                 const index::BankIndex& idx2) {
  OrderedTally tally;
  const index::SeedCoder& coder = idx1.coder();
  const auto seq1 = idx1.bank().data();
  for (const align::ScoringParams& params : param_sets()) {
    for (std::size_t p1 = 0; p1 < seq1.size(); ++p1) {
      if (!idx1.is_indexed(static_cast<Pos>(p1))) continue;
      const index::SeedCode code =
          coder.code_unchecked(seq1, static_cast<Pos>(p1));
      for (const std::int32_t p2 : idx2.occurrences_span(code)) {
        ++tally.pairs;
        const core::OrderedExtendOutcome ref =
            core::frozen::extend_ordered_with(
                idx1, idx2, static_cast<Pos>(p1), static_cast<Pos>(p2), code,
                params, *kernels().front());
        tally.aborted_left += ref.aborted_left ? 1 : 0;
        tally.aborted_right += ref.aborted_right ? 1 : 0;
        tally.hsps += ref.hsp.has_value() ? 1 : 0;
        for (const KernelOps* ops : kernels()) {
          const core::OrderedExtendOutcome live = core::extend_ordered(
              idx1, idx2, static_cast<Pos>(p1), static_cast<Pos>(p2), code,
              params, *ops);
          const std::string at = std::string(ops->name) +
                                 " w=" + std::to_string(coder.w()) +
                                 " pair (" + std::to_string(p1) + ", " +
                                 std::to_string(p2) + ")";
          EXPECT_EQ(live.aborted_left, ref.aborted_left) << at;
          EXPECT_EQ(live.aborted_right, ref.aborted_right) << at;
          EXPECT_EQ(live.hsp, ref.hsp) << at;
        }
      }
    }
  }
  return tally;
}

CodeStr framed(const CodeStr& body) {
  CodeStr s;
  s += kSentinel;
  s += body;
  s += kSentinel;
  return s;
}

/// Overwrites about one position in `every` with an ambiguity code.
void sprinkle_ns(simulate::Rng& rng, CodeStr& s, std::uint64_t every) {
  for (Code& c : s) {
    if (rng.next_below(every) == 0) c = seqio::kAmbiguous;
  }
}

/// How a planted match run ends.
enum class RunEnd { kMismatch, kAmbiguous, kSentinel, kSpanEdge };

/// One side of a planted seed, read outwards from it: the part inside
/// the span and the part past its edge, in each sequence.
struct PlantedSide {
  CodeStr inside_a;
  CodeStr inside_b;
  CodeStr outside_a;
  CodeStr outside_b;
};

/// `len` matching bases, then `end`.  Past the end come kInlineRun + 2
/// more matching bases and a mismatch, so a walk that overran the end,
/// inline or in the kernel, would match on.
PlantedSide plant_side(simulate::Rng& rng, std::size_t len, RunEnd end) {
  PlantedSide s;
  s.inside_a = simulate::random_codes(rng, len);
  s.inside_b = s.inside_a;
  CodeStr tail_a =
      simulate::random_codes(rng, align::detail::kInlineRun + 3);
  CodeStr tail_b = tail_a;
  tail_b.back() ^= 1;
  switch (end) {
    case RunEnd::kMismatch: {
      const auto c = static_cast<Code>(rng.next_below(4));
      s.inside_a += c;
      s.inside_b += static_cast<Code>(c ^ 2);
      break;
    }
    case RunEnd::kAmbiguous:
      s.inside_a += seqio::kAmbiguous;
      s.inside_b += seqio::kAmbiguous;
      break;
    case RunEnd::kSentinel:
      s.inside_a += kSentinel;
      s.inside_b += kSentinel;
      break;
    case RunEnd::kSpanEdge:
      s.outside_a = tail_a;
      s.outside_b = tail_b;
      return s;
  }
  s.inside_a += tail_a;
  s.inside_b += tail_b;
  return s;
}

/// Two sequences of equal layout holding a seed of `w` bases between
/// the two planted sides, and the span [lo, hi) the sides leave inside.
struct Planted {
  CodeStr a;
  CodeStr b;
  std::size_t lo = 0;
  std::size_t hi = 0;
};

Planted plant(simulate::Rng& rng, int w, const PlantedSide& left,
              const PlantedSide& right) {
  const auto reversed = [](CodeStr s) {
    std::reverse(s.begin(), s.end());
    return s;
  };
  const CodeStr seed =
      simulate::random_codes(rng, static_cast<std::size_t>(w));
  Planted p;
  p.a = reversed(left.outside_a) + reversed(left.inside_a) + seed +
        right.inside_a + right.outside_a;
  p.b = reversed(left.outside_b) + reversed(left.inside_b) + seed +
        right.inside_b + right.outside_b;
  p.lo = left.outside_a.size();
  p.hi = p.a.size() - right.outside_a.size();
  return p;
}

/// A bank of the pieces of `s` between its sentinels, so that the bank's
/// data is `s` framed by two more.
seqio::SequenceBank split_at_sentinels(const CodeStr& s) {
  seqio::SequenceBank bank("planted");
  std::size_t from = 0;
  for (std::size_t k = 0; k <= s.size(); ++k) {
    if (k == s.size() || s[k] == kSentinel) {
      bank.add_codes(scoris::testing::numbered("p", bank.size()),
                     s.substr(from, k - from));
      from = k + 1;
    }
  }
  return bank;
}

TEST(UngappedDifferential, PlainRandomPairsAcrossDivergenceAndW) {
  simulate::Rng rng(2301);
  std::size_t seeds = 0;
  for (const double rate : {0.0, 0.01, 0.03, 0.06, 0.10, 0.15}) {
    for (int w = 4; w <= 13; ++w) {
      const CodeStr a = simulate::random_codes(rng, 300);
      const CodeStr b = simulate::mutate(rng, a, substitutions(rate));
      seeds += expect_same_plain(framed(a), framed(b), w,
                                 /*all_pairs=*/false);
    }
  }
  EXPECT_GT(seeds, 5000u);
}

TEST(UngappedDifferential, PlainOffDiagonalHitsAndAmbiguityCodes) {
  // Short words on unrelated and N-sprinkled sequences: every word pair
  // the two share, most of them random hits that stop within a few bases,
  // and equal N pairs that must not match.
  simulate::Rng rng(2302);
  std::size_t seeds = 0;
  for (int w = 4; w <= 6; ++w) {
    CodeStr a = simulate::random_codes(rng, 300);
    CodeStr b = simulate::mutate(rng, a, substitutions(0.05));
    sprinkle_ns(rng, a, 25);
    sprinkle_ns(rng, b, 25);
    b[40] = seqio::kAmbiguous;
    a[40] = seqio::kAmbiguous;
    seeds += expect_same_plain(framed(a), framed(b), w, /*all_pairs=*/true);
  }
  EXPECT_GT(seeds, 1000u);
}

TEST(UngappedDifferential, PlainSpansWithoutSentinels) {
  // Raw code arrays: the walks stop at the span's edges, including seeds
  // flush against either end and spans of unequal length.
  simulate::Rng rng(2303);
  std::size_t seeds = 0;
  for (int w = 4; w <= 13; ++w) {
    const CodeStr a = simulate::random_codes(rng, 120);
    CodeStr b = simulate::mutate(rng, a, substitutions(0.02));
    seeds += expect_same_plain(a, b, w, /*all_pairs=*/false);
    b.resize(90);
    seeds += expect_same_plain(a, b, w, /*all_pairs=*/false);
    seeds += expect_same_plain(b, a, w, /*all_pairs=*/false);
  }
  const CodeStr word = scoris::testing::codes_of("ACGTACGTACGTA");
  seeds += expect_same_plain(word, word, 13, /*all_pairs=*/false);
  EXPECT_GT(seeds, 2000u);
}

TEST(UngappedDifferential, ShortRunsEndEveryWayOnBothSides) {
  // Runs of every length from 0 to kInlineRun + 2 on each side of a seed,
  // the ones the walk matches inline and the first it hands to the
  // kernel, each ending at a mismatch, at an N in both sequences, at a
  // sentinel in both or at the span's edge, with matching bases past
  // every end.  The plain walk runs on spans cut out of longer buffers
  // (W = 1 between two edges gives spans shorter than kInlineRun), the
  // ordered walk on banks whose sentinels split the sequences.
  simulate::Rng rng(2307);
  const std::size_t longest = align::detail::kInlineRun + 2;
  const RunEnd ends[] = {RunEnd::kMismatch, RunEnd::kAmbiguous,
                         RunEnd::kSentinel, RunEnd::kSpanEdge};
  std::size_t seeds = 0;
  std::size_t short_spans = 0;
  OrderedTally total;
  for (std::size_t left_len = 0; left_len <= longest; ++left_len) {
    for (std::size_t right_len = 0; right_len <= longest; ++right_len) {
      for (const RunEnd left_end : ends) {
        for (const RunEnd right_end : ends) {
          const PlantedSide left = plant_side(rng, left_len, left_end);
          const PlantedSide right = plant_side(rng, right_len, right_end);
          for (const int w : {1, 4}) {
            const Planted p = plant(rng, w, left, right);
            const std::span<const Code> a(p.a);
            const std::span<const Code> b(p.b);
            seeds += expect_same_plain(a.subspan(p.lo, p.hi - p.lo),
                                       b.subspan(p.lo, p.hi - p.lo), w,
                                       /*all_pairs=*/false);
            if (p.hi - p.lo < align::detail::kInlineRun) ++short_spans;
          }
          if (left_end == RunEnd::kSpanEdge ||
              right_end == RunEnd::kSpanEdge) {
            continue;
          }
          const Planted p = plant(rng, 4, left, right);
          const seqio::SequenceBank bank1 = split_at_sentinels(p.a);
          const seqio::SequenceBank bank2 = split_at_sentinels(p.b);
          const index::SeedCoder coder(4);
          const index::BankIndex idx1(bank1, coder);
          const index::BankIndex idx2(bank2, coder);
          const OrderedTally t = expect_same_ordered(idx1, idx2);
          total.pairs += t.pairs;
          total.aborted_left += t.aborted_left;
          total.aborted_right += t.aborted_right;
          total.hsps += t.hsps;
        }
      }
    }
  }
  EXPECT_GT(seeds, 20000u);
  EXPECT_GT(short_spans, 0u);
  EXPECT_GT(total.pairs, 5000u);
  EXPECT_GT(total.aborted_left, 0u);
  EXPECT_GT(total.aborted_right, 0u);
  EXPECT_GT(total.hsps, 0u);
}

TEST(UngappedDifferential, OrderedRandomBanksAcrossW) {
  // Several sequences per bank, so sentinels sit between sequences as
  // well as at both ends; N-sprinkled mutated copies at 0-15%.
  simulate::Rng rng(2304);
  OrderedTally total;
  for (int w = 4; w <= 12; ++w) {
    seqio::SequenceBank b1("b1");
    seqio::SequenceBank b2("b2");
    const double rates[] = {0.0, 0.04, 0.08, 0.15};
    for (const double rate : rates) {
      const CodeStr a = simulate::random_codes(rng, w <= 5 ? 70 : 160);
      CodeStr b = simulate::mutate(rng, a, substitutions(rate));
      sprinkle_ns(rng, b, 60);
      b1.add_codes(scoris::testing::numbered("s", b1.size()), a);
      b2.add_codes(scoris::testing::numbered("t", b2.size()), b);
    }
    const index::SeedCoder coder(w);
    const index::BankIndex idx1(b1, coder);
    const index::BankIndex idx2(b2, coder);
    const OrderedTally t = expect_same_ordered(idx1, idx2);
    total.pairs += t.pairs;
    total.aborted_left += t.aborted_left;
    total.aborted_right += t.aborted_right;
    total.hsps += t.hsps;
  }
  EXPECT_GT(total.pairs, 5000u);
  EXPECT_GT(total.aborted_left, 0u);
  EXPECT_GT(total.aborted_right, 0u);
  EXPECT_GT(total.hsps, 0u);
}

TEST(UngappedDifferential, OrderedSelfComparisonAtTheLargestW) {
  // W = 13 over one index compared with itself: each planted copy pairs
  // with the other, and every word with itself.
  simulate::Rng rng(2305);
  const CodeStr a = simulate::random_codes(rng, 200);
  seqio::SequenceBank bank("self");
  bank.add_codes("a", a);
  bank.add_codes("b", simulate::mutate(rng, a, substitutions(0.05)));
  const index::SeedCoder coder(index::kMaxW);
  const index::BankIndex idx(bank, coder);
  const OrderedTally t = expect_same_ordered(idx, idx);
  EXPECT_GT(t.pairs, 400u);
  EXPECT_GT(t.hsps, 0u);
}

TEST(UngappedDifferential, OrderedRepeatsAbortOnBothSidesAndTie) {
  // (AC)^n against (AC)^m: every even-offset word has the anchor's code
  // (a tie: the left rule aborts on it, the right rule does not) and every
  // odd-offset word CA... sits beside it, so walks abort on both sides.
  OrderedTally total;
  for (int w = 4; w <= 9; ++w) {
    CodeStr ac1;
    CodeStr ac2;
    for (int k = 0; k < 30; ++k) ac1 += scoris::testing::codes_of("AC");
    for (int k = 0; k < 23; ++k) ac2 += scoris::testing::codes_of("AC");
    seqio::SequenceBank b1("ac1");
    seqio::SequenceBank b2("ac2");
    b1.add_codes("r", ac1);
    b2.add_codes("r", ac2 + scoris::testing::codes_of("GG") + ac2);
    const index::SeedCoder coder(w);
    const index::BankIndex idx1(b1, coder);
    const index::BankIndex idx2(b2, coder);
    const OrderedTally t = expect_same_ordered(idx1, idx2);
    total.pairs += t.pairs;
    total.aborted_left += t.aborted_left;
    total.aborted_right += t.aborted_right;
    total.hsps += t.hsps;
  }
  EXPECT_GT(total.aborted_left, 100u);
  EXPECT_GT(total.aborted_right, 100u);
  EXPECT_GT(total.hsps, 0u);
}

TEST(UngappedDifferential, OrderedMaskedAndStrideTwoIndexes) {
  // DUST-masked low-complexity stretches inside planted homology, and
  // stride-2 subject indexes: the walks cross words that match but are
  // not indexed, which must not abort.
  simulate::Rng rng(2306);
  OrderedTally total;
  for (int w = 8; w <= 11; ++w) {
    seqio::SequenceBank b1("b1");
    seqio::SequenceBank b2("b2");
    for (int s = 0; s < 3; ++s) {
      CodeStr a = simulate::random_codes(rng, 80);
      for (int k = 0; k < 12; ++k) a += scoris::testing::codes_of("AC");
      a += simulate::random_codes(rng, 20);
      for (int k = 0; k < 30; ++k) a += scoris::testing::codes_of("A");
      a += simulate::random_codes(rng, 80);
      b1.add_codes(scoris::testing::numbered("s", b1.size()), a);
      b2.add_codes(scoris::testing::numbered("t", b2.size()),
                   simulate::mutate(rng, a, substitutions(0.03)));
    }
    const filter::MaskBitmap mask1 = filter::dust_mask(b1);
    const filter::MaskBitmap mask2 = filter::dust_mask(b2);
    ASSERT_GT(mask1.count(), 0u);
    const index::SeedCoder coder(w);
    index::IndexOptions masked1;
    masked1.mask = &mask1;
    index::IndexOptions masked2;
    masked2.mask = &mask2;
    index::IndexOptions stride2;
    stride2.stride = 2;
    index::IndexOptions masked_stride2 = masked2;
    masked_stride2.stride = 2;
    const index::BankIndex idx1(b1, coder, masked1);
    for (const index::IndexOptions& opt :
         {masked2, stride2, masked_stride2}) {
      const index::BankIndex idx2(b2, coder, opt);
      const OrderedTally t = expect_same_ordered(idx1, idx2);
      total.pairs += t.pairs;
      total.aborted_left += t.aborted_left;
      total.aborted_right += t.aborted_right;
      total.hsps += t.hsps;
    }
    const index::BankIndex plain1(b1, coder);
    const index::BankIndex stride_idx2(b2, coder, stride2);
    const OrderedTally t = expect_same_ordered(plain1, stride_idx2);
    total.pairs += t.pairs;
    total.hsps += t.hsps;
  }
  EXPECT_GT(total.pairs, 1000u);
  EXPECT_GT(total.aborted_left, 0u);
  EXPECT_GT(total.hsps, 0u);
}

}  // namespace
}  // namespace scoris
