// A frozen copy of the ungapped x-drop walks as they were before one
// walk, templated on direction and on a per-character hook, replaced them:
// align::extend_left_plain, align::extend_right_plain and their
// two-sided align::extend_ungapped, and core::extend_ordered_with, the
// ORIS ordered walk.  Kept verbatim apart from the namespaces, `inline`,
// the `frozen::` on the two side calls and the SideExtension type they
// returned, which is defined here.  Linked only into the differential
// test, which asserts that the live walks return the same HSP bounds,
// score and abort decisions.  Do not edit: it is the reference, not a
// second implementation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>

#include "align/records.hpp"
#include "align/scoring.hpp"
#include "align/simd/kernel_dispatch.hpp"
#include "core/ordered_extend.hpp"
#include "index/bank_index.hpp"
#include "seqio/nucleotide.hpp"

namespace scoris::align::frozen {

using seqio::Code;
using seqio::is_base;
using seqio::kSentinel;
using seqio::Pos;

/// One-sided left extension: returns (score_gain, new_start_offset) where
/// score_gain >= 0 is the best additional score found left of p1/p2 and
/// new_start_offset is how many characters the HSP start moves left.
struct SideExtension {
  int score_gain = 0;
  seqio::Pos span = 0;  ///< characters added on this side
};

// Both walks below consume a whole run of matching concrete bases per
// iteration (one kernel call), then handle exactly one boundary character
// — a mismatch, an ambiguity code, a sentinel, or the span edge — with
// the scalar scoring rules.  The x-drop deficit only grows at boundary
// characters and the in-run score is monotone, so checking the drop-off
// once per iteration and taking the best score at the run end reproduces
// the per-character loop exactly.

inline SideExtension extend_left_plain(std::span<const Code> seq1,
                                std::span<const Code> seq2, Pos p1, Pos p2,
                                const ScoringParams& params,
                                const simd::KernelOps& ops) {
  SideExtension best;
  int score = 0;
  int maxi = 0;
  std::size_t i = p1;  // next character examined is seq1[i - 1]
  std::size_t j = p2;
  Pos steps = 0;
  while (maxi - score < params.xdrop_ungapped) {
    const std::size_t avail = std::min<std::size_t>(i, j);
    const std::size_t run =
        ops.match_run_bwd(seq1.data() + i, seq2.data() + j, avail);
    if (run > 0) {
      score += static_cast<int>(run) * params.match;
      steps += static_cast<Pos>(run);
      i -= run;
      j -= run;
      if (score > maxi) {
        maxi = score;
        best.score_gain = score;
        best.span = steps;
      }
    }
    if (i == 0 || j == 0) break;
    const Code a = seq1[i - 1];
    const Code b = seq2[j - 1];
    if (a == kSentinel || b == kSentinel) break;
    score += params.score(a, b);
    ++steps;
    --i;
    --j;
  }
  return best;
}

inline SideExtension extend_right_plain(std::span<const Code> seq1,
                                 std::span<const Code> seq2, Pos p1, Pos p2,
                                 const ScoringParams& params,
                                 const simd::KernelOps& ops) {
  SideExtension best;
  int score = 0;
  int maxi = 0;
  std::size_t i = p1;
  std::size_t j = p2;
  Pos steps = 0;
  while (maxi - score < params.xdrop_ungapped) {
    const std::size_t avail =
        std::min<std::size_t>(seq1.size() - i, seq2.size() - j);
    const std::size_t run =
        ops.match_run_fwd(seq1.data() + i, seq2.data() + j, avail);
    if (run > 0) {
      score += static_cast<int>(run) * params.match;
      steps += static_cast<Pos>(run);
      i += run;
      j += run;
      if (score > maxi) {
        maxi = score;
        best.score_gain = score;
        best.span = steps;
      }
    }
    if (i >= seq1.size() || j >= seq2.size()) break;
    const Code a = seq1[i];
    const Code b = seq2[j];
    if (a == kSentinel || b == kSentinel) break;
    score += params.score(a, b);
    ++steps;
    ++i;
    ++j;
  }
  return best;
}

inline Hsp extend_ungapped(std::span<const Code> seq1, std::span<const Code> seq2,
                    Pos p1, Pos p2, int w, const ScoringParams& params,
                    const simd::KernelOps& ops) {
  assert(w > 0);
  const SideExtension left =
      frozen::extend_left_plain(seq1, seq2, p1, p2, params, ops);
  const SideExtension right =
      frozen::extend_right_plain(seq1, seq2, p1 + static_cast<Pos>(w),
                         p2 + static_cast<Pos>(w), params, ops);
  Hsp hsp;
  hsp.s1 = p1 - left.span;
  hsp.s2 = p2 - left.span;
  hsp.e1 = p1 + static_cast<Pos>(w) + right.span;
  hsp.e2 = p2 + static_cast<Pos>(w) + right.span;
  hsp.score = w * params.match + left.score_gain + right.score_gain;
  return hsp;
}

}  // namespace scoris::align::frozen

namespace scoris::core::frozen {

using seqio::Code;
using seqio::kSentinel;
using seqio::Pos;

template <typename Subject>
OrderedExtendOutcome extend_ordered_with(const index::BankIndex& idx1,
                                         const Subject& idx2, Pos p1, Pos p2,
                                         index::SeedCode anchor,
                                         const align::ScoringParams& params,
                                         const align::simd::KernelOps& ops) {
  // Bank data always starts and ends with kSentinel, so the walks below
  // terminate on a sentinel before they can run off either span; the
  // kernel calls are additionally bounded so their vector loads stay
  // inside the buffers.
  const auto seq1 = idx1.bank().data();
  const auto seq2 = idx2.bank().data();
  const index::SeedCoder& coder = idx1.coder();
  const int w = coder.w();
  assert(idx2.w() == w);
  assert(seq1[0] == kSentinel && seq2[0] == kSentinel);

  OrderedExtendOutcome out;
  int left_gain = 0;
  Pos left_span = 0;
  int right_gain = 0;
  Pos right_span = 0;

  // ---- left extension -------------------------------------------------
  {
    int score = 0;
    int maxi = 0;
    int run = w;  // consecutive matching characters ending at the window
    index::SeedCode window = anchor;
    std::size_t i = p1;  // next character examined is seq1[i - 1]
    std::size_t j = p2;
    Pos steps = 0;
    while (maxi - score < params.xdrop_ungapped) {
      const std::size_t avail = std::min<std::size_t>(i, j);
      const std::size_t r =
          ops.match_run_bwd(seq1.data() + i, seq2.data() + j, avail);
      // Walk the run for the order rule: slide the window across each
      // matched character and test the abort condition.  A W-match window
      // starts at (i-t, j-t): it is an enumerable seed when both indexes
      // contain it, and lower-or-equal code => this HSP is generated from
      // that seed instead.
      for (std::size_t t = 1; t <= r; ++t) {
        window = coder.roll_left(window,
                                 static_cast<Code>(seq1[i - t] & 3));
        ++run;
        if (run >= w && window <= anchor &&
            idx1.is_indexed(static_cast<Pos>(i - t)) &&
            idx2.is_indexed(static_cast<Pos>(j - t))) {
          out.aborted_left = true;
          return out;
        }
      }
      if (r > 0) {
        score += static_cast<int>(r) * params.match;
        steps += static_cast<Pos>(r);
        i -= r;
        j -= r;
        if (score > maxi) {
          maxi = score;
          left_gain = score;
          left_span = steps;
        }
      }
      const Code a = seq1[i - 1];
      const Code b = seq2[j - 1];
      if (a == kSentinel || b == kSentinel) break;
      // Slide the window left regardless of match so it is valid again
      // after W pushes (only the low 2 bits of the character enter).
      window = coder.roll_left(window, static_cast<Code>(a & 3));
      score -= params.mismatch;
      run = 0;
      ++steps;
      --i;
      --j;
    }
  }

  // ---- right extension -------------------------------------------------
  {
    int score = 0;
    int maxi = 0;
    int run = w;
    index::SeedCode window = anchor;
    std::size_t i = p1 + static_cast<Pos>(w);
    std::size_t j = p2 + static_cast<Pos>(w);
    Pos steps = 0;
    while (maxi - score < params.xdrop_ungapped) {
      const std::size_t avail =
          std::min<std::size_t>(seq1.size() - i, seq2.size() - j);
      const std::size_t r =
          ops.match_run_fwd(seq1.data() + i, seq2.data() + j, avail);
      for (std::size_t t = 0; t < r; ++t) {
        window = coder.roll_right(window,
                                  static_cast<Code>(seq1[i + t] & 3));
        ++run;
        if (run >= w && window < anchor) {
          const Pos q1 =
              static_cast<Pos>(i + t) - static_cast<Pos>(w) + 1;
          const Pos q2 =
              static_cast<Pos>(j + t) - static_cast<Pos>(w) + 1;
          // Strictly lower code to the right aborts; equal codes do not
          // (the leftmost occurrence — us — is the canonical generator).
          if (idx1.is_indexed(q1) && idx2.is_indexed(q2)) {
            out.aborted_right = true;
            return out;
          }
        }
      }
      if (r > 0) {
        score += static_cast<int>(r) * params.match;
        steps += static_cast<Pos>(r);
        i += r;
        j += r;
        if (score > maxi) {
          maxi = score;
          right_gain = score;
          right_span = steps;
        }
      }
      const Code a = seq1[i];
      const Code b = seq2[j];
      if (a == kSentinel || b == kSentinel) break;
      window = coder.roll_right(window, static_cast<Code>(a & 3));
      score -= params.mismatch;
      run = 0;
      ++steps;
      ++i;
      ++j;
    }
  }

  align::Hsp hsp;
  hsp.s1 = p1 - left_span;
  hsp.s2 = p2 - left_span;
  hsp.e1 = p1 + static_cast<Pos>(w) + right_span;
  hsp.e2 = p2 + static_cast<Pos>(w) + right_span;
  hsp.score = w * params.match + left_gain + right_gain;
  out.hsp = hsp;
  return out;
}

}  // namespace scoris::core::frozen
