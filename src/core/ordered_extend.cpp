#include "core/ordered_extend.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>

#include "align/ungapped.hpp"

namespace scoris::core {

using seqio::Code;
using seqio::Pos;

namespace {

/// The order rule as the ungapped walk's per-character hook, for one
/// side.  It slides the code of the window of W consecutive characters
/// over each character the walk passes, and aborts on a matched window
/// that is an enumerable seed (indexed in both banks) with a lower code
/// than the anchor's, or an equal one on the left.  The subject side
/// needs only is_indexed(), so one body serves a BankIndex and a
/// SubjectIndex subject.
template <align::Direction D, typename Subject>
struct OrderRule {
  static constexpr bool kSeesMatches = true;
  static constexpr bool kLeft = D == align::Direction::kLeft;

  OrderRule(const index::BankIndex& idx1, const Subject& idx2,
            index::SeedCode anchor)
      : idx1(idx1),
        idx2(idx2),
        coder(idx1.coder()),
        w(coder.w()),
        anchor(anchor),
        window(anchor),
        run(w) {
    assert(idx2.w() == w);
  }

  /// seq1[i] == seq2[j] is the matched character: the window starts at
  /// (i, j) on the left and ends there on the right.
  bool matched(Code c, std::size_t i, std::size_t j) {
    slide(c);
    ++run;
    if (run < w) return false;
    if constexpr (kLeft) {
      // Lower or equal code: this HSP is generated from that seed
      // instead (the leftmost of equal codes is the canonical generator).
      aborted = window <= anchor && idx1.is_indexed(static_cast<Pos>(i)) &&
                idx2.is_indexed(static_cast<Pos>(j));
    } else {
      // Strictly lower code to the right aborts; an equal code loses
      // against us by the left rule.
      const auto back = static_cast<Pos>(w - 1);
      aborted = window < anchor &&
                idx1.is_indexed(static_cast<Pos>(i) - back) &&
                idx2.is_indexed(static_cast<Pos>(j) - back);
    }
    return aborted;
  }

  /// The window slides over a mismatch too, so that it is valid again
  /// after W more matches (only the low 2 bits of the character enter).
  void stepped_over(Code c) {
    slide(c);
    run = 0;
  }

  void slide(Code c) {
    window = kLeft ? coder.roll_left(window, static_cast<Code>(c & 3))
                   : coder.roll_right(window, static_cast<Code>(c & 3));
  }

  const index::BankIndex& idx1;
  const Subject& idx2;
  const index::SeedCoder& coder;
  const int w;
  const index::SeedCode anchor;
  index::SeedCode window;
  int run;  ///< consecutive matching characters ending at the window
  bool aborted = false;
};

template <typename Subject>
OrderedExtendOutcome extend_ordered_with(const index::BankIndex& idx1,
                                         const Subject& idx2, Pos p1, Pos p2,
                                         index::SeedCode anchor,
                                         const align::ScoringParams& params,
                                         const align::simd::KernelOps& ops) {
  // Bank data always starts and ends with kSentinel, so both sides stop
  // on a sentinel before they reach either end of the banks.
  assert(idx1.bank().data()[0] == seqio::kSentinel &&
         idx2.bank().data()[0] == seqio::kSentinel);
  OrderRule<align::Direction::kLeft, Subject> left(idx1, idx2, anchor);
  OrderRule<align::Direction::kRight, Subject> right(idx1, idx2, anchor);
  OrderedExtendOutcome out;
  out.hsp = align::extend_seed(idx1.bank().data(), idx2.bank().data(), p1,
                               p2, idx1.w(), params, ops, left, right);
  out.aborted_left = left.aborted;
  out.aborted_right = right.aborted;
  return out;
}

}  // namespace

OrderedExtendOutcome extend_ordered(const index::BankIndex& idx1,
                                    const index::BankIndex& idx2, Pos p1,
                                    Pos p2, index::SeedCode anchor,
                                    const align::ScoringParams& params,
                                    const align::simd::KernelOps& ops) {
  return extend_ordered_with(idx1, idx2, p1, p2, anchor, params, ops);
}

namespace {

// HSP reservation from the exact pair count is capped: the pair count is
// an upper bound (most pairs abort or score under S1) and repetitive
// banks can make it enormous.
constexpr std::size_t kReserveCap = 1u << 16;

template <typename Subject>
void scan_range(const index::BankIndex& idx1, const Subject& idx2,
                const SeedScanParams& params, index::SeedCode code_lo,
                index::SeedCode code_hi, SeedScanResult& out) {
  const auto seq1 = idx1.bank().data();
  const auto seq2 = idx2.bank().data();
  const int w = idx1.w();
  const align::simd::KernelOps& ops =
      params.kernel != nullptr ? *params.kernel : align::simd::dispatch();

  // Exact pair count over the range, O(1) per subject code from the
  // reference's offsets; pre-sizes the output so the hot loop never
  // reallocates mid-scan.
  std::size_t pairs = 0;
  idx2.for_each_code(code_lo, code_hi,
                     [&](index::SeedCode code,
                         std::span<const std::int32_t> occ2) {
                       pairs += idx1.occurrence_count(code) * occ2.size();
                     });
  out.hsps.reserve(out.hsps.size() + std::min(pairs, kReserveCap));

  idx2.for_each_code(code_lo, code_hi, [&](index::SeedCode code,
                                           std::span<const std::int32_t>
                                               occ2) {
    const auto occ1 = idx1.occurrences_span(code);
    if (occ1.empty()) return;
    out.hit_pairs += occ1.size() * occ2.size();

    for (const std::int32_t p1 : occ1) {
      for (std::size_t k = 0; k < occ2.size(); ++k) {
        if (k + 1 < occ2.size()) {
          // The next pair's bank2 window is a data-dependent random
          // access; start pulling it in while this pair extends.
          __builtin_prefetch(seq2.data() + occ2[k + 1]);
        }
        const std::int32_t p2 = occ2[k];
        if (params.enforce_order) {
          const OrderedExtendOutcome o = extend_ordered_with(
              idx1, idx2, static_cast<Pos>(p1), static_cast<Pos>(p2), code,
              params.scoring, ops);
          if (!o.hsp.has_value()) {
            ++out.order_aborts;
            continue;
          }
          if (o.hsp->score >= params.min_hsp_score) {
            out.hsps.push_back(*o.hsp);
          }
        } else {
          const align::Hsp h = align::extend_ungapped(
              seq1, seq2, static_cast<Pos>(p1), static_cast<Pos>(p2), w,
              params.scoring, ops);
          if (h.score >= params.min_hsp_score) out.hsps.push_back(h);
        }
      }
    }
  });
}

}  // namespace

void scan_seed_range(const index::BankIndex& idx1,
                     const index::SubjectIndex& idx2,
                     const SeedScanParams& params, index::SeedCode code_lo,
                     index::SeedCode code_hi, SeedScanResult& out) {
  scan_range(idx1, idx2, params, code_lo, code_hi, out);
}

void scan_seed_range(const index::BankIndex& idx1,
                     const index::BankIndex& idx2,
                     const SeedScanParams& params, index::SeedCode code_lo,
                     index::SeedCode code_hi, SeedScanResult& out) {
  scan_range(idx1, idx2, params, code_lo, code_hi, out);
}

}  // namespace scoris::core
