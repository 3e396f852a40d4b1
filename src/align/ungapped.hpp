// Ungapped (HSP) x-drop extension: the one walk behind the ORIS ordered
// extension (core/ordered_extend.hpp) and the plain extension that the
// BLASTN baseline, its BLAT configuration and the A1 order-rule ablation
// run.
//
// Extension starts from a W-character exact seed match and walks left,
// then right, remembering the best score; a side stops when its running
// score falls `xdrop_ungapped` below its best, at a sequence boundary
// (kSentinel), or at the edge of the spans.  Each direction is one
// instantiation of walk() below, and a per-character hook tells the
// plain extension from the ordered one: PlainWalk looks at nothing, and
// the ORIS order rule rolls a seed code over every matched character and
// may abort the side.
//
// The walk is built on the SIMD match-run kernels (align/simd/): a whole
// run of identical concrete bases is consumed per iteration, and then one
// boundary character — a mismatch, an ambiguity code, a sentinel or the
// span edge — is handled with the scalar rules.  A run's first
// kInlineRun characters are matched inline, under the kernel's own
// predicate and bound, and the kernel is called, from there on, only for
// a run that matched all of them: most runs end within a few bases, and
// those never pay for the indirect call.  Because the score is
// monotone within a run (every character adds +match), folding a whole
// run into one update reproduces the per-character loop exactly: the
// x-drop condition can only trip right after a mismatch, and the best
// score within a run is always at its end.  A hook's abort discards all
// scoring state, so testing it over the run before folding the run's
// score is outcome-equivalent to the interleaved per-character order.
// The kernel (`ops`) never changes the outcome, only its speed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>

#include "align/records.hpp"
#include "align/scoring.hpp"
#include "align/simd/kernel_dispatch.hpp"
#include "seqio/nucleotide.hpp"

namespace scoris::align {

enum class Direction { kLeft, kRight };

/// The plain extension's hook.  A hook sees each mismatch the walk steps
/// over (`stepped_over(c)`), and, when its kSeesMatches is true, each
/// matched character (`matched(c, i, j)`, with its positions in seq1 and
/// seq2; true aborts the side).  This one sees no match, so the walk
/// skips its per-character loop.
struct PlainWalk {
  static constexpr bool kSeesMatches = false;
  static void stepped_over(seqio::Code /*c*/) {}
};

namespace detail {

/// Characters of each run the walk matches inline before it calls a
/// match-run kernel.  Chosen by measurement: in step 2 over a random-hit
/// bank pair 4 beat 2 and 8, and over an EST pair the three were within
/// the host's noise.
inline constexpr std::size_t kInlineRun = 4;

/// One side of the walk from (i, j): leftwards the next character is
/// seq[i - 1], rightwards seq[i].  Sets `gain` and `span` to the best
/// score over the seed and the characters it adds; false when the hook
/// aborted.
template <Direction D, typename Hook>
bool walk(std::span<const seqio::Code> seq1,
          std::span<const seqio::Code> seq2, std::size_t i, std::size_t j,
          const ScoringParams& params, const simd::KernelOps& ops,
          Hook& hook, int& gain, seqio::Pos& span) {
  constexpr bool kLeft = D == Direction::kLeft;
  int score = 0;
  int maxi = 0;
  seqio::Pos steps = 0;
  while (maxi - score < params.xdrop_ungapped) {
    // The kernel's contract, run inline over the run's first characters:
    // a match is an equal concrete base, and no read passes `max`.
    const std::size_t max = kLeft ? std::min(i, j)
                                  : std::min(seq1.size() - i, seq2.size() - j);
    const std::size_t head = std::min(max, kInlineRun);
    std::size_t run = 0;
    while (run < head) {
      const seqio::Code a = kLeft ? seq1[i - 1 - run] : seq1[i + run];
      const seqio::Code b = kLeft ? seq2[j - 1 - run] : seq2[j + run];
      if (a != b || !seqio::is_base(a)) break;
      ++run;
    }
    if (run == kInlineRun) {
      run += kLeft ? ops.match_run_bwd(seq1.data() + i - run,
                                       seq2.data() + j - run, max - run)
                   : ops.match_run_fwd(seq1.data() + i + run,
                                       seq2.data() + j + run, max - run);
    }
    if constexpr (Hook::kSeesMatches) {
      for (std::size_t t = 0; t < run; ++t) {
        const std::size_t a = kLeft ? i - 1 - t : i + t;
        const std::size_t b = kLeft ? j - 1 - t : j + t;
        if (hook.matched(seq1[a], a, b)) return false;
      }
    }
    if (run > 0) {
      score += static_cast<int>(run) * params.match;
      steps += static_cast<seqio::Pos>(run);
      i = kLeft ? i - run : i + run;
      j = kLeft ? j - run : j + run;
      if (score > maxi) {
        maxi = score;
        gain = score;
        span = steps;
      }
    }
    if (kLeft ? (i == 0 || j == 0)
              : (i >= seq1.size() || j >= seq2.size())) {
      break;
    }
    const seqio::Code a = kLeft ? seq1[i - 1] : seq1[i];
    const seqio::Code b = kLeft ? seq2[j - 1] : seq2[j];
    if (a == seqio::kSentinel || b == seqio::kSentinel) break;
    // The kernel's run is maximal, so this character is a mismatch.
    hook.stepped_over(a);
    score -= params.mismatch;
    ++steps;
    i = kLeft ? i - 1 : i + 1;
    j = kLeft ? j - 1 : j + 1;
  }
  return true;
}

}  // namespace detail

/// Two-sided extension of the exact seed match seq1[p1, p1+w) ==
/// seq2[p2, p2+w): the left side walks with hook `left`, then the right
/// side with `right`.  Returns the HSP, or nullopt when a hook aborted
/// (the right side is not walked after a left abort).  The caller
/// guarantees the seed characters match and are concrete bases.
template <typename LeftHook, typename RightHook>
std::optional<Hsp> extend_seed(std::span<const seqio::Code> seq1,
                               std::span<const seqio::Code> seq2,
                               seqio::Pos p1, seqio::Pos p2, int w,
                               const ScoringParams& params,
                               const simd::KernelOps& ops, LeftHook& left,
                               RightHook& right) {
  const auto wp = static_cast<seqio::Pos>(w);
  int left_gain = 0;
  seqio::Pos left_span = 0;
  int right_gain = 0;
  seqio::Pos right_span = 0;
  if (!detail::walk<Direction::kLeft>(seq1, seq2, p1, p2, params, ops, left,
                                      left_gain, left_span) ||
      !detail::walk<Direction::kRight>(seq1, seq2, p1 + wp, p2 + wp, params,
                                       ops, right, right_gain, right_span)) {
    return std::nullopt;
  }
  Hsp hsp;
  hsp.s1 = p1 - left_span;
  hsp.s2 = p2 - left_span;
  hsp.e1 = p1 + wp + right_span;
  hsp.e2 = p2 + wp + right_span;
  hsp.score = w * params.match + left_gain + right_gain;
  return hsp;
}

/// The plain extension: the maximal-scoring HSP containing the seed
/// seq1[p1, p1+w) == seq2[p2, p2+w).  Positions are global bank
/// positions, or offsets into spans without sentinels.
[[nodiscard]] Hsp extend_ungapped(
    std::span<const seqio::Code> seq1, std::span<const seqio::Code> seq2,
    seqio::Pos p1, seqio::Pos p2, int w, const ScoringParams& params,
    const simd::KernelOps& ops = simd::dispatch());

}  // namespace scoris::align
