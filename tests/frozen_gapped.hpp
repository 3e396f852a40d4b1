// A frozen copy of align::extend_gapped (with xdrop_one_direction) and
// align::banded_global_stats as they were before the DP loops were
// rewritten branch-free.  Kept verbatim apart from the namespace and
// `inline`, and linked only into the differential test, which asserts that
// the live code returns the same extents, scores, statistics and column
// operations.  Do not edit: it is the reference, not a second
// implementation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "align/gapped.hpp"

namespace scoris::align::frozen {
namespace {

using seqio::Code;
using seqio::kSentinel;
using seqio::Pos;

constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

struct OneDirResult {
  std::int32_t score = 0;
  std::size_t len1 = 0;  // characters of seq1 consumed at the best cell
  std::size_t len2 = 0;
};

/// Reusable per-thread DP scratch.  Step 3 runs one extension per HSP, so
/// avoiding a fresh allocation per call matters; the arrays grow to the
/// longest extension seen by this thread and are reused.
struct Scratch {
  std::vector<std::int32_t> h_prev;
  std::vector<std::int32_t> h_cur;
  std::vector<std::int32_t> f;

  void ensure(std::size_t n) {
    if (h_prev.size() < n) {
      const std::size_t cap = std::max(n, h_prev.size() * 2 + 64);
      h_prev.resize(cap);
      h_cur.resize(cap);
      f.resize(cap);
    }
  }
};

thread_local Scratch tl_scratch;

/// Adaptive-band x-drop extension of the (implicit) sequences a[0..) and
/// b[0..), read through `dir` (+1 forward from the anchor, -1 backward).
/// Sequence ends are discovered lazily: a kSentinel (or running off the
/// span, or exceeding max_extent) terminates that axis — no pre-scan.
OneDirResult xdrop_one_direction(std::span<const Code> seq1, Pos anchor1,
                                 std::span<const Code> seq2, Pos anchor2,
                                 int dir, std::size_t max_extent,
                                 const ScoringParams& params) {
  OneDirResult best;  // the empty extension scores 0

  // Available span on each axis before the bank boundary (sentinels are
  // detected during the walk; these bounds only prevent out-of-range
  // reads).
  const std::size_t n1 =
      std::min(max_extent, dir > 0 ? seq1.size() - anchor1
                                   : static_cast<std::size_t>(anchor1));
  std::size_t n2 =
      std::min(max_extent, dir > 0 ? seq2.size() - anchor2
                                   : static_cast<std::size_t>(anchor2));
  if (n1 == 0 || n2 == 0) return best;

  const auto a = [&](std::size_t i) -> Code {
    return seq1[dir > 0 ? anchor1 + i
                        : static_cast<std::size_t>(anchor1 - 1 - i)];
  };
  const auto b = [&](std::size_t j) -> Code {
    return seq2[dir > 0 ? anchor2 + j
                        : static_cast<std::size_t>(anchor2 - 1 - j)];
  };

  const int xdrop = params.xdrop_gapped;
  const int gap_first = params.gap_first();
  const int ge = params.gap_extend;

  Scratch& sc = tl_scratch;
  sc.ensure(64);
  auto* h_prev = &sc.h_prev;
  auto* h_cur = &sc.h_cur;
  auto& f = sc.f;

  std::int32_t best_score = 0;

  // Row 0: pure gaps in seq1 (consume b only).
  (*h_prev)[0] = 0;
  std::size_t prev_lo = 0;
  std::size_t prev_hi = 0;
  for (std::size_t j = 1; j <= n2; ++j) {
    if (b(j - 1) == kSentinel) {
      n2 = j - 1;
      break;
    }
    const std::int32_t v = -(params.gap_open + static_cast<int>(j) * ge);
    if (best_score - v > xdrop) break;
    // ensure() may reallocate vector storage, but h_prev/h_cur point at the
    // vector objects themselves, so they stay valid.
    sc.ensure(j + 2);
    (*h_prev)[j] = v;
    prev_hi = j;
  }
  // The scratch persists across calls; row 1 reads f[] over the row-0
  // window, so those entries must not leak F values from a previous
  // extension.  (Later rows only read f[] where the previous row wrote it.)
  std::fill(f.begin(), f.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(f.size(), prev_hi + 2)),
            kNegInf);

  for (std::size_t i = 1; i <= n1; ++i) {
    const Code ai = a(i - 1);
    if (ai == kSentinel) break;

    const auto hp = [&](std::size_t j) -> std::int32_t {
      return (j < prev_lo || j > prev_hi) ? kNegInf : (*h_prev)[j];
    };
    const auto fp = [&](std::size_t j) -> std::int32_t {
      return (j < prev_lo || j > prev_hi) ? kNegInf : f[j];
    };

    std::int32_t e = kNegInf;  // horizontal gap state, row-local
    std::size_t new_lo = SIZE_MAX;
    std::size_t new_hi = 0;
    std::int32_t row_best = kNegInf;
    std::size_t row_best_j = 0;

    std::size_t j = prev_lo;

    // Column 0 (no b consumed): only vertical gaps reach it.
    if (j == 0) {
      const std::int32_t v = -(params.gap_open + static_cast<int>(i) * ge);
      const std::int32_t h0 = (best_score - v > xdrop) ? kNegInf : v;
      (*h_cur)[0] = h0;
      if (h0 > kNegInf) {
        new_lo = 0;
        new_hi = 0;
      }
      j = 1;
    }

    const std::size_t j_limit = std::min(n2, prev_hi + 1);
    for (; j <= n2; ++j) {
      // Beyond the previous row's reach only the row-local E can feed us.
      if (j > j_limit && e <= best_score - xdrop) break;

      const Code bj = b(j - 1);
      if (bj == kSentinel) {
        n2 = j - 1;  // bank boundary on the b axis
        break;
      }
      sc.ensure(j + 2);

      // Vertical gap: consume a(i) without b.
      const std::int32_t hpj = hp(j);
      const std::int32_t f_open = hpj > kNegInf ? hpj - gap_first : kNegInf;
      const std::int32_t fpj = fp(j);
      const std::int32_t f_ext = fpj > kNegInf ? fpj - ge : kNegInf;
      const std::int32_t f_val = std::max(f_open, f_ext);

      // Diagonal: consume a(i) and b(j).
      const std::int32_t hpd = j >= 1 ? hp(j - 1) : kNegInf;
      const std::int32_t diag =
          hpd > kNegInf ? hpd + params.score(ai, bj) : kNegInf;

      std::int32_t h = std::max({diag, e, f_val});
      if (best_score - h > xdrop) h = kNegInf;
      (*h_cur)[j] = h;
      f[j] = f_val;  // safe: fp(j) was consumed above

      if (h > kNegInf) {
        if (new_lo == SIZE_MAX) new_lo = j;
        new_hi = j;
        if (h > row_best) {
          row_best = h;
          row_best_j = j;
        }
      }

      // E for the next column of this row.
      const std::int32_t e_open = h > kNegInf ? h - gap_first : kNegInf;
      const std::int32_t e_ext = e > kNegInf ? e - ge : kNegInf;
      e = std::max(e_open, e_ext);
      if (best_score - e > xdrop) e = kNegInf;
    }

    if (new_lo == SIZE_MAX) break;  // no live cell: extension finished

    if (row_best > best_score) {
      best_score = row_best;
      best.score = best_score;
      best.len1 = i;
      best.len2 = row_best_j;
    }

    std::swap(h_prev, h_cur);
    prev_lo = new_lo;
    prev_hi = new_hi;
  }

  // The swap dance may leave h_prev/h_cur pointing at either buffer; no
  // state persists between calls, so nothing to restore.
  return best;
}

}  // namespace

inline GappedExtent extend_gapped(std::span<const Code> seq1,
                                  std::span<const Code> seq2, Pos mid1,
                                  Pos mid2, const ScoringParams& params,
                                  std::size_t max_extent) {
  const OneDirResult right =
      xdrop_one_direction(seq1, mid1, seq2, mid2, +1, max_extent, params);
  const OneDirResult left =
      xdrop_one_direction(seq1, mid1, seq2, mid2, -1, max_extent, params);

  GappedExtent out;
  out.s1 = mid1 - static_cast<Pos>(left.len1);
  out.s2 = mid2 - static_cast<Pos>(left.len2);
  out.e1 = mid1 + static_cast<Pos>(right.len1);
  out.e2 = mid2 + static_cast<Pos>(right.len2);
  out.score = left.score + right.score;
  return out;
}

inline AlignmentStats banded_global_stats(std::span<const Code> seq1, Pos s1,
                                          Pos e1, std::span<const Code> seq2,
                                          Pos s2, Pos e2,
                                          const ScoringParams& params,
                                          std::int32_t* out_score,
                                          std::vector<AlignOp>* out_ops) {
  const std::size_t n1 = e1 - s1;
  const std::size_t n2 = e2 - s2;
  AlignmentStats stats;
  if (out_ops != nullptr) out_ops->clear();

  // Degenerate cases: one side empty -> all-gap alignment.
  if (n1 == 0 || n2 == 0) {
    const std::size_t g = std::max(n1, n2);
    stats.length = static_cast<std::uint32_t>(g);
    stats.gap_columns = static_cast<std::uint32_t>(g);
    stats.gap_opens = g > 0 ? 1 : 0;
    if (out_score != nullptr) {
      *out_score = g == 0 ? 0
                          : -(params.gap_open +
                              static_cast<int>(g) * params.gap_extend);
    }
    if (out_ops != nullptr) {
      out_ops->assign(g, n1 == 0 ? AlignOp::kGapInSeq1 : AlignOp::kGapInSeq2);
    }
    return stats;
  }

  // Band over k = j - i.  Any x-drop path deviates from the straight
  // endpoint-to-endpoint line by at most xdrop/gap_extend gap columns.
  const int excursion = params.xdrop_gapped / std::max(1, params.gap_extend);
  const int dn = static_cast<int>(n2) - static_cast<int>(n1);
  const int kmin = std::min(0, dn) - excursion - 2;
  const int kmax = std::max(0, dn) + excursion + 2;
  const std::size_t band = static_cast<std::size_t>(kmax - kmin + 1);

  // Traceback byte per cell: bits 0-1 = H source (0 diag, 1 E, 2 F,
  // 3 unreachable); bit 2: the E state feeding the *next* column extends an
  // E run; bit 3: the F state of this cell extends an F run.
  std::vector<std::uint8_t> tb((n1 + 1) * band, 3);
  std::vector<std::int32_t> h_prev(band, kNegInf);
  std::vector<std::int32_t> h_cur(band, kNegInf);
  std::vector<std::int32_t> f_prev(band, kNegInf);
  std::vector<std::int32_t> f_cur(band, kNegInf);

  const int gap_first = params.gap_first();
  const int ge = params.gap_extend;

  const auto kidx = [&](std::size_t i, std::size_t j) -> std::size_t {
    return static_cast<std::size_t>(static_cast<int>(j) -
                                    static_cast<int>(i) - kmin);
  };
  const auto in_band = [&](std::size_t i, std::size_t j) -> bool {
    const int k = static_cast<int>(j) - static_cast<int>(i);
    return k >= kmin && k <= kmax;
  };

  // Row 0: E chain along the top edge.
  for (std::size_t j = 0; j <= n2 && in_band(0, j); ++j) {
    h_prev[kidx(0, j)] =
        j == 0 ? 0 : -(params.gap_open + static_cast<int>(j) * ge);
    tb[kidx(0, j)] = j == 0 ? 0 : static_cast<std::uint8_t>(1 | 4);
  }

  for (std::size_t i = 1; i <= n1; ++i) {
    std::fill(h_cur.begin(), h_cur.end(), kNegInf);
    std::fill(f_cur.begin(), f_cur.end(), kNegInf);
    std::int32_t e = kNegInf;
    const Code ai = seq1[s1 + i - 1];
    const std::size_t j_lo = static_cast<std::size_t>(
        std::max<std::int64_t>(0, static_cast<std::int64_t>(i) + kmin));
    const std::size_t j_hi = static_cast<std::size_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(n2), static_cast<std::int64_t>(i) + kmax));

    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const std::size_t k = kidx(i, j);

      // F: vertical gap, from (i-1, j) which sits at band column k+1.
      std::int32_t f_val = kNegInf;
      bool f_ext = false;
      if (k + 1 < band) {
        const std::int32_t f_open =
            h_prev[k + 1] > kNegInf ? h_prev[k + 1] - gap_first : kNegInf;
        const std::int32_t f_cont =
            f_prev[k + 1] > kNegInf ? f_prev[k + 1] - ge : kNegInf;
        f_val = std::max(f_open, f_cont);
        f_ext = f_cont > f_open;
      }
      f_cur[k] = f_val;

      // Diagonal from (i-1, j-1) = band column k of the previous row.
      std::int32_t diag = kNegInf;
      if (j >= 1 && h_prev[k] > kNegInf) {
        diag = h_prev[k] + params.score(ai, seq2[s2 + j - 1]);
      }

      std::int32_t h = diag;
      std::uint8_t trace = 0;
      if (e > h) {
        h = e;
        trace = 1;
      }
      if (f_val > h) {
        h = f_val;
        trace = 2;
      }
      if (h <= kNegInf) trace = 3;
      h_cur[k] = h;

      std::uint8_t byte = trace;
      if (f_ext) byte |= 8;

      // E feeding column j+1 of this row.
      const std::int32_t e_open = h > kNegInf ? h - gap_first : kNegInf;
      const std::int32_t e_cont = e > kNegInf ? e - ge : kNegInf;
      if (e_cont > e_open) byte |= 4;
      e = std::max(e_open, e_cont);

      tb[i * band + k] = byte;
    }
    h_prev.swap(h_cur);
    f_prev.swap(f_cur);
  }

  if (!in_band(n1, n2)) {
    throw std::logic_error("banded_global_stats: endpoint outside band");
  }
  const std::int32_t final_score = h_prev[kidx(n1, n2)];
  if (out_score != nullptr) *out_score = final_score;

  // Traceback.  State 0 = H, 1 = E (gap in seq1, consumes b), 2 = F (gap in
  // seq2, consumes a).  E-continuation for the E state entered at (i,j) is
  // encoded in the byte of (i, j-1); F-continuation in the byte of (i,j).
  std::size_t i = n1;
  std::size_t j = n2;
  int state = 0;
  while (i > 0 || j > 0) {
    const std::uint8_t byte = tb[i * band + kidx(i, j)];
    if (state == 0) {
      const int src = byte & 3;
      if (src == 0 && i > 0 && j > 0) {
        const Code a = seq1[s1 + i - 1];
        const Code b = seq2[s2 + j - 1];
        ++stats.length;
        if (seqio::is_base(a) && a == b) {
          ++stats.matches;
        } else {
          ++stats.mismatches;
        }
        if (out_ops != nullptr) out_ops->push_back(AlignOp::kMatch);
        --i;
        --j;
      } else if (src == 1) {
        state = 1;
        ++stats.gap_opens;
      } else if (src == 2) {
        state = 2;
        ++stats.gap_opens;
      } else {
        throw std::logic_error("banded_global_stats: broken traceback");
      }
      continue;
    }
    if (state == 1) {
      // Gap in seq1: consume b(j).
      ++stats.length;
      ++stats.gap_columns;
      if (out_ops != nullptr) out_ops->push_back(AlignOp::kGapInSeq1);
      const std::uint8_t left_byte =
          (j >= 1) ? tb[i * band + kidx(i, j - 1)] : 0;
      --j;
      if ((left_byte & 4) == 0) state = 0;
      continue;
    }
    // state == 2: gap in seq2, consume a(i).
    ++stats.length;
    ++stats.gap_columns;
    if (out_ops != nullptr) out_ops->push_back(AlignOp::kGapInSeq2);
    const bool f_continues = (byte & 8) != 0;
    --i;
    if (!f_continues) state = 0;
  }

  if (out_ops != nullptr) std::reverse(out_ops->begin(), out_ops->end());
  return stats;
}

}  // namespace scoris::align::frozen
