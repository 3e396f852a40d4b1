#include "align/gapped.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace scoris::align {
namespace {

using seqio::Code;
using seqio::kSentinel;
using seqio::Pos;

constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

// Both DP loops write each cell update without branches on cell values:
// H, E and F are taken with std::max, dead states are clamped back to
// exactly kNegInf (so every comparison reads as it would behind a
// `> kNegInf` guard), and the trace bits come from compares and ORs.

struct OneDirResult {
  std::int32_t score = 0;
  std::size_t len1 = 0;  // characters of seq1 consumed at the best cell
  std::size_t len2 = 0;
  std::size_t cells = 0;  // DP cells computed in rows 1..
};

/// Reusable per-thread x-drop scratch.  Step 3 runs one extension per HSP,
/// so avoiding a fresh allocation per call matters; the arrays grow to the
/// longest extension seen by this thread and are reused.
struct XdropScratch {
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

/// Reusable per-thread banded-DP scratch: one H and one F row over the
/// band, each updated in place, and the traceback matrix.
struct BandScratch {
  std::vector<std::int32_t> h;
  std::vector<std::int32_t> f;
  std::vector<std::uint8_t> tb;
};

thread_local XdropScratch tl_xdrop;
thread_local BandScratch tl_band;

/// The code a row's seq1 character matches: ambiguous bases and markers
/// match nothing (ScoringParams::score).
int match_code(Code c) { return seqio::is_base(c) ? c : -1; }

/// Character i of a walk that starts at `base` and steps by Dir.
template <int Dir>
Code at(const Code* base, std::size_t i) {
  return base[Dir * static_cast<std::ptrdiff_t>(i)];
}

/// Adaptive-band x-drop extension from the anchor, forward (Dir = +1:
/// seq[anchor + i]) or backward (Dir = -1: seq[anchor - 1 - i]).  Sequence
/// ends are discovered lazily: a kSentinel (or running off the span, or
/// exceeding max_extent) terminates that axis — no pre-scan.
template <int Dir>
OneDirResult xdrop_one_direction(std::span<const Code> seq1, Pos anchor1,
                                 std::span<const Code> seq2, Pos anchor2,
                                 std::size_t max_extent,
                                 const ScoringParams& params) {
  OneDirResult best;  // the empty extension scores 0

  // Available span on each axis before the bank boundary (sentinels are
  // detected during the walk; these bounds only prevent out-of-range
  // reads).
  const std::size_t n1 =
      std::min(max_extent, Dir > 0 ? seq1.size() - anchor1
                                   : static_cast<std::size_t>(anchor1));
  std::size_t n2 =
      std::min(max_extent, Dir > 0 ? seq2.size() - anchor2
                                   : static_cast<std::size_t>(anchor2));
  if (n1 == 0 || n2 == 0) return best;
  // Both sides are non-empty, so a backward walk's base (the character
  // just before the anchor) lies inside the span.
  const Code* a = seq1.data() + (Dir > 0 ? anchor1 : anchor1 - 1);
  const Code* b = seq2.data() + (Dir > 0 ? anchor2 : anchor2 - 1);

  const int xdrop = params.xdrop_gapped;
  const int gap_first = params.gap_first();
  const int ge = params.gap_extend;
  const std::int32_t match_score = params.match;
  const std::int32_t mismatch_score = -params.mismatch;

  XdropScratch& sc = tl_xdrop;
  std::int32_t best_score = 0;

  // Row 0: pure gaps in seq1 (consume b only), within xdrop of the empty
  // extension's score 0.
  std::size_t prev_lo = 0;
  std::size_t prev_hi = 0;
  while (prev_hi < n2) {
    const std::size_t j = prev_hi + 1;
    if (at<Dir>(b, j - 1) == kSentinel) {
      n2 = j - 1;
      break;
    }
    if (params.gap_open + static_cast<int>(j) * ge > xdrop) break;
    prev_hi = j;
  }
  sc.ensure(prev_hi + 3);
  for (std::size_t j = 0; j <= prev_hi; ++j) {
    sc.h_prev[j] =
        j == 0 ? 0 : -(params.gap_open + static_cast<int>(j) * ge);
  }
  // The scratch persists across calls; row 1 reads f[] over the row-0
  // window, so those entries must not leak F values from a previous
  // extension.  (Later rows only read f[] where the previous row wrote it,
  // or the edge sentinel.)
  std::fill_n(sc.f.begin(), prev_hi + 2, kNegInf);

  for (std::size_t i = 1; i <= n1; ++i) {
    const Code ai = at<Dir>(a, i - 1);
    if (ai == kSentinel) break;
    const int am = match_code(ai);
    // Cells below this are pruned; it moves only between rows.
    const std::int32_t live_min = best_score - xdrop;

    // Columns up to prev_hi were read by earlier rows; the first one past
    // the previous row's reach may sit on a bank boundary.
    std::size_t hi = std::min(n2, prev_hi + 1);
    if (hi > prev_hi && at<Dir>(b, hi - 1) == kSentinel) {
      n2 = prev_hi;  // bank boundary on the b axis
      hi = prev_hi;
    }

    sc.ensure(prev_hi + 3);
    std::int32_t* hp = sc.h_prev.data();
    std::int32_t* hc = sc.h_cur.data();
    std::int32_t* f = sc.f.data();
    // Edge sentinels: the previous row is dead outside [prev_lo, prev_hi].
    hp[prev_hi + 1] = kNegInf;
    f[prev_hi + 1] = kNegInf;
    if (prev_lo > 0) hp[prev_lo - 1] = kNegInf;

    std::int32_t e = kNegInf;  // horizontal gap state, row-local
    std::size_t new_lo = SIZE_MAX;
    std::size_t new_hi = 0;
    std::int32_t row_best = kNegInf;
    std::size_t row_best_j = 0;

    std::size_t j = prev_lo;

    // Column 0 (no b consumed): only vertical gaps reach it.
    if (j == 0) {
      const std::int32_t v = -(params.gap_open + static_cast<int>(i) * ge);
      const std::int32_t h0 = v < live_min ? kNegInf : v;
      hc[0] = h0;
      if (h0 > kNegInf) {
        new_lo = 0;
        new_hi = 0;
      }
      j = 1;
    }

    for (; j <= hi; ++j) {
      // Vertical gap: consume a(i) without b.  Diagonal: consume both; a
      // dead predecessor stays far below live_min whatever it scores.
      const std::int32_t f_val =
          std::max({hp[j] - gap_first, f[j] - ge, kNegInf});
      const std::int32_t s = static_cast<int>(at<Dir>(b, j - 1)) == am
                                 ? match_score
                                 : mismatch_score;
      std::int32_t h = std::max({hp[j - 1] + s, e, f_val});
      h = h < live_min ? kNegInf : h;
      hc[j] = h;
      f[j] = f_val;

      const bool live = h != kNegInf;
      new_lo = std::min(new_lo, live ? j : SIZE_MAX);
      new_hi = live ? j : new_hi;
      row_best_j = h > row_best ? j : row_best_j;
      row_best = std::max(row_best, h);

      // E for the next column of this row.
      const std::int32_t e_next = std::max(h - gap_first, e - ge);
      e = e_next < live_min ? kNegInf : e_next;
    }

    // Past the previous row's reach only the row-local E feeds a cell, and
    // a live E falls by min(gap_first, gap_extend) a column; that bounds
    // the run, so the scratch grows once for it.
    if (hi == prev_hi + 1 && hi < n2 && e > live_min) {
      const std::int32_t drop = std::min(gap_first, ge);
      std::size_t run = n2 - hi;
      if (drop > 0) {
        const auto reach = static_cast<std::size_t>((e - live_min - 1) / drop);
        run = std::min(run, reach + 1);
      }
      sc.ensure(hi + run + 3);
      hc = sc.h_cur.data();
      f = sc.f.data();
      for (; j <= n2 && e > live_min; ++j) {
        if (at<Dir>(b, j - 1) == kSentinel) {
          n2 = j - 1;
          break;
        }
        hc[j] = e;
        f[j] = kNegInf;
        new_lo = std::min(new_lo, j);
        new_hi = j;
        if (e > row_best) {
          row_best = e;
          row_best_j = j;
        }
        const std::int32_t e_next = std::max(e - gap_first, e - ge);
        e = e_next < live_min ? kNegInf : e_next;
      }
    }
    best.cells += j - prev_lo;

    if (new_lo == SIZE_MAX) break;  // no live cell: extension finished

    if (row_best > best_score) {
      best_score = row_best;
      best.score = best_score;
      best.len1 = i;
      best.len2 = row_best_j;
    }

    std::swap(sc.h_prev, sc.h_cur);
    prev_lo = new_lo;
    prev_hi = new_hi;
  }
  return best;
}

}  // namespace

GappedExtent extend_gapped(std::span<const Code> seq1,
                           std::span<const Code> seq2, Pos mid1, Pos mid2,
                           const ScoringParams& params,
                           std::size_t max_extent) {
  const OneDirResult right =
      xdrop_one_direction<+1>(seq1, mid1, seq2, mid2, max_extent, params);
  const OneDirResult left =
      xdrop_one_direction<-1>(seq1, mid1, seq2, mid2, max_extent, params);

  GappedExtent out;
  out.s1 = mid1 - static_cast<Pos>(left.len1);
  out.s2 = mid2 - static_cast<Pos>(left.len2);
  out.e1 = mid1 + static_cast<Pos>(right.len1);
  out.e2 = mid2 + static_cast<Pos>(right.len2);
  out.score = left.score + right.score;
  out.cells = left.cells + right.cells;
  return out;
}

AlignmentStats banded_global_stats(std::span<const Code> seq1, Pos s1, Pos e1,
                                   std::span<const Code> seq2, Pos s2, Pos e2,
                                   const ScoringParams& params,
                                   std::int32_t* out_score,
                                   std::vector<AlignOp>* out_ops,
                                   std::size_t* out_cells) {
  const std::size_t n1 = e1 - s1;
  const std::size_t n2 = e2 - s2;
  AlignmentStats stats;
  if (out_ops != nullptr) out_ops->clear();
  if (out_cells != nullptr) *out_cells = 0;

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
  // E run; bit 3: the F state of this cell extends an F run.  Cells no row
  // computes keep 3, so a path that strays onto one is caught below.
  BandScratch& sc = tl_band;
  sc.tb.assign((n1 + 1) * band, 3);
  // Row i updates band column k in place after reading columns k
  // (diagonal) and k + 1 (vertical) of row i - 1, so each row reads only
  // cells the previous row wrote, row 0's initial values, or the dead cell
  // at index `band` that stands for the vertical step out of the band.
  sc.h.assign(band + 1, kNegInf);
  sc.f.assign(band + 1, kNegInf);
  std::uint8_t* tb = sc.tb.data();
  std::int32_t* h = sc.h.data();
  std::int32_t* f = sc.f.data();

  const int gap_first = params.gap_first();
  const int ge = params.gap_extend;
  const std::int32_t match_score = params.match;
  const std::int32_t mismatch_score = -params.mismatch;

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
    h[kidx(0, j)] = j == 0 ? 0 : -(params.gap_open + static_cast<int>(j) * ge);
    tb[kidx(0, j)] = j == 0 ? 0 : static_cast<std::uint8_t>(1 | 4);
  }

  const Code* b = seq2.data() + s2;
  std::size_t cells = 0;
  for (std::size_t i = 1; i <= n1; ++i) {
    const int am = match_code(seq1[s1 + i - 1]);
    const std::size_t j_lo = static_cast<std::size_t>(
        std::max<std::int64_t>(0, static_cast<std::int64_t>(i) + kmin));
    const std::size_t j_hi = static_cast<std::size_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(n2), static_cast<std::int64_t>(i) + kmax));
    cells += j_hi - j_lo + 1;
    std::uint8_t* row = tb + i * band;
    std::int32_t e = kNegInf;

    // One cell at band column k whose diagonal candidate is `diag`.  Ties
    // go to the diagonal, then E, then F.
    const auto cell = [&](std::size_t k, std::int32_t diag) {
      // F: vertical gap, from (i-1, j) which sits at band column k+1.
      const std::int32_t f_open = std::max(h[k + 1] - gap_first, kNegInf);
      const std::int32_t f_cont = std::max(f[k + 1] - ge, kNegInf);
      const std::int32_t f_val = std::max(f_open, f_cont);
      const std::int32_t diag_or_e = std::max(diag, e);
      const std::int32_t hv = std::max(diag_or_e, f_val);
      const bool from_f = f_val > diag_or_e;
      const bool from_e = (e > diag) & !from_f;
      // E feeding column j+1 of this row.
      const std::int32_t e_open = std::max(hv - gap_first, kNegInf);
      const std::int32_t e_cont = std::max(e - ge, kNegInf);
      row[k] = static_cast<std::uint8_t>(
          (static_cast<unsigned>(from_f) << 1) | static_cast<unsigned>(from_e) |
          (hv == kNegInf ? 3u : 0u) |
          (static_cast<unsigned>(e_cont > e_open) << 2) |
          (static_cast<unsigned>(f_cont > f_open) << 3));
      h[k] = hv;
      f[k] = f_val;
      e = std::max(e_open, e_cont);
    };

    std::size_t j = j_lo;
    std::size_t k = kidx(i, j_lo);
    if (j == 0) {  // column 0 has no diagonal predecessor
      cell(k, kNegInf);
      ++j;
      ++k;
    }
    for (; j <= j_hi; ++j, ++k) {
      // Diagonal from (i-1, j-1) = band column k of the previous row.
      const std::int32_t hd = h[k];
      const std::int32_t s = b[j - 1] == am ? match_score : mismatch_score;
      cell(k, hd == kNegInf ? kNegInf : hd + s);
    }
  }
  if (out_cells != nullptr) *out_cells = cells;

  if (!in_band(n1, n2)) {
    throw std::logic_error("banded_global_stats: endpoint outside band");
  }
  const std::int32_t final_score = h[kidx(n1, n2)];
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
        const Code bj = seq2[s2 + j - 1];
        ++stats.length;
        if (seqio::is_base(a) && a == bj) {
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

}  // namespace scoris::align
