#include "core/ordered_extend.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>

#include "align/ungapped.hpp"

namespace scoris::core {

using seqio::Code;
using seqio::kSentinel;
using seqio::Pos;

// The two walks below consume a whole run of matching concrete bases per
// iteration (one match-run kernel call) and then handle exactly one
// boundary character — a mismatch, an ambiguity code, or a sentinel — with
// the scalar rules.  The order rule still has to look at every matched
// character (the rolling window code changes at each one), but that walk
// is branch-light: no per-character match test, score compare, or best
// bookkeeping.  Scoring folds at the run end: the score is monotone within
// a run, so one best-score update there equals the per-character updates,
// and the x-drop deficit only grows at boundary characters, so checking it
// once per iteration reproduces the per-character loop exactly.  Aborts
// discard all scoring state, so checking them before folding the run's
// score is outcome-equivalent to the interleaved per-character order.

namespace {

// The subject side needs only bank() and is_indexed(), so one body serves
// a BankIndex and a SubjectIndex subject.
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

}  // namespace

OrderedExtendOutcome extend_ordered(const index::BankIndex& idx1,
                                    const index::BankIndex& idx2, Pos p1,
                                    Pos p2, index::SeedCode anchor,
                                    const align::ScoringParams& params,
                                    const align::simd::KernelOps& ops) {
  return extend_ordered_with(idx1, idx2, p1, p2, anchor, params, ops);
}

OrderedExtendOutcome extend_ordered(const index::BankIndex& idx1,
                                    const index::BankIndex& idx2, Pos p1,
                                    Pos p2, index::SeedCode anchor,
                                    const align::ScoringParams& params) {
  return extend_ordered(idx1, idx2, p1, p2, anchor, params,
                        align::simd::dispatch());
}

OrderedExtendOutcome extend_ordered(const index::BankIndex& idx1,
                                    const index::BankIndex& idx2, Pos p1,
                                    Pos p2,
                                    const align::ScoringParams& params) {
  const index::SeedCode anchor =
      idx1.coder().code_unchecked(idx1.bank().data(), p1);
  return extend_ordered(idx1, idx2, p1, p2, anchor, params,
                        align::simd::dispatch());
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
