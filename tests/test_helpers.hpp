// Shared helpers for the test suites: tiny brute-force oracles and
// convenience constructors.  Everything here is deliberately simple and
// quadratic — correctness references, not production code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "align/records.hpp"
#include "align/scoring.hpp"
#include "seqio/nucleotide.hpp"
#include "seqio/sequence_bank.hpp"

namespace scoris::testing {

using CodeStr = std::basic_string<seqio::Code>;

inline CodeStr codes_of(std::string_view bases) {
  return seqio::encode(bases);
}

/// 64-bit FNV-1a of `bytes` — a compact fingerprint for pinning output
/// bytes in tests (not a cryptographic digest).
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Flip one payload byte of the first section tagged `tag` (skipping
/// `occurrence` earlier matches) in a store/format.hpp container blob —
/// header `[magic 4][version u32][endian u32]`, then sections
/// `[tag 4][len u64][crc u32][payload]`.  Returns false when no such
/// section (with a non-empty payload) exists, leaving the blob unchanged.
inline bool corrupt_section(std::string& blob, std::string_view tag,
                            std::size_t occurrence = 0) {
  std::size_t pos = 12;
  while (pos + 16 <= blob.size()) {
    const std::string_view found(blob.data() + pos, 4);
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i) {
      len |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(blob[pos + 4 + i]))
             << (8 * i);
    }
    if (found == tag && len > 0) {
      if (occurrence == 0) {
        blob[pos + 16 + len / 2] ^= 0x01;
        return true;
      }
      --occurrence;
    }
    pos += 16 + len;
  }
  return false;
}

/// All maximal ungapped local alignments ("HSPs") between a and b that
/// (1) contain at least one exact W-match and (2) score >= min_score,
/// where an HSP is the best-scoring segment that plain two-sided x-drop
/// extension from any of its W-match anchors would produce.  Because every
/// anchor of the same segment extends to the same maximal segment under
/// x-drop (for clean inputs), de-duplicating by coordinates yields the
/// ground-truth unique HSP set that ORIS step 2 must reproduce.
inline std::vector<align::Hsp> brute_force_hsps(
    std::span<const seqio::Code> a, std::span<const seqio::Code> b, int w,
    int min_score, const align::ScoringParams& params) {
  std::vector<align::Hsp> out;
  const auto n = a.size();
  const auto m = b.size();
  for (std::size_t i = 0; i + static_cast<std::size_t>(w) <= n; ++i) {
    for (std::size_t j = 0; j + static_cast<std::size_t>(w) <= m; ++j) {
      bool word = true;
      for (int k = 0; k < w && word; ++k) {
        const seqio::Code x = a[i + static_cast<std::size_t>(k)];
        const seqio::Code y = b[j + static_cast<std::size_t>(k)];
        word = seqio::is_base(x) && x == y;
      }
      if (!word) continue;

      // Two-sided x-drop extension from this anchor (plain, unordered).
      int score = w * params.match;
      // left
      {
        int run = 0, best = 0;
        std::int64_t x = static_cast<std::int64_t>(i) - 1;
        std::int64_t y = static_cast<std::int64_t>(j) - 1;
        int gain = 0, span = 0, steps = 0;
        while (x >= 0 && y >= 0 && best - run < params.xdrop_ungapped) {
          const seqio::Code ca = a[static_cast<std::size_t>(x)];
          const seqio::Code cb = b[static_cast<std::size_t>(y)];
          if (ca == seqio::kSentinel || cb == seqio::kSentinel) break;
          run += (seqio::is_base(ca) && ca == cb) ? params.match
                                                  : -params.mismatch;
          ++steps;
          if (run > best) {
            best = run;
            gain = run;
            span = steps;
          }
          --x;
          --y;
        }
        score += gain;
        align::Hsp h;
        h.s1 = static_cast<seqio::Pos>(i - static_cast<std::size_t>(span));
        h.s2 = static_cast<seqio::Pos>(j - static_cast<std::size_t>(span));
        // right
        int run2 = 0, best2 = 0, gain2 = 0, span2 = 0, steps2 = 0;
        std::size_t x2 = i + static_cast<std::size_t>(w);
        std::size_t y2 = j + static_cast<std::size_t>(w);
        while (x2 < n && y2 < m && best2 - run2 < params.xdrop_ungapped) {
          const seqio::Code ca = a[x2];
          const seqio::Code cb = b[y2];
          if (ca == seqio::kSentinel || cb == seqio::kSentinel) break;
          run2 += (seqio::is_base(ca) && ca == cb) ? params.match
                                                   : -params.mismatch;
          ++steps2;
          if (run2 > best2) {
            best2 = run2;
            gain2 = run2;
            span2 = steps2;
          }
          ++x2;
          ++y2;
        }
        score += gain2;
        h.e1 = static_cast<seqio::Pos>(i + static_cast<std::size_t>(w) +
                                       static_cast<std::size_t>(span2));
        h.e2 = static_cast<seqio::Pos>(j + static_cast<std::size_t>(w) +
                                       static_cast<std::size_t>(span2));
        h.score = score;
        if (score >= min_score) out.push_back(h);
      }
    }
  }
  // De-duplicate by coordinates.
  const auto key = [](const align::Hsp& h) {
    return std::tuple(h.s1, h.e1, h.s2, h.e2);
  };
  std::sort(out.begin(), out.end(), [&](const auto& x, const auto& y) {
    return key(x) < key(y);
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [&](const auto& x, const auto& y) {
                          return key(x) == key(y);
                        }),
            out.end());
  return out;
}

/// Full-matrix global Gotoh alignment with traceback — exact oracle for
/// align::banded_global_stats on small inputs.
struct GlobalGotohResult {
  long long score = 0;
  align::AlignmentStats stats;
};

inline GlobalGotohResult global_gotoh_oracle(std::span<const seqio::Code> a,
                                             std::span<const seqio::Code> b,
                                             const align::ScoringParams& p) {
  constexpr long long kNeg = std::numeric_limits<long long>::min() / 4;
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  const long long gf = p.gap_first();
  const long long ge = p.gap_extend;

  const auto at = [m](std::size_t i, std::size_t j) {
    return i * (m + 1) + j;
  };
  std::vector<long long> H((n + 1) * (m + 1), kNeg);
  std::vector<long long> E((n + 1) * (m + 1), kNeg);
  std::vector<long long> F((n + 1) * (m + 1), kNeg);
  H[at(0, 0)] = 0;
  for (std::size_t j = 1; j <= m; ++j) {
    E[at(0, j)] = -(p.gap_open + static_cast<long long>(j) * ge);
    H[at(0, j)] = E[at(0, j)];
  }
  for (std::size_t i = 1; i <= n; ++i) {
    F[at(i, 0)] = -(p.gap_open + static_cast<long long>(i) * ge);
    H[at(i, 0)] = F[at(i, 0)];
  }
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      E[at(i, j)] = std::max(H[at(i, j - 1)] - gf, E[at(i, j - 1)] - ge);
      F[at(i, j)] = std::max(H[at(i - 1, j)] - gf, F[at(i - 1, j)] - ge);
      const long long diag =
          H[at(i - 1, j - 1)] + p.score(a[i - 1], b[j - 1]);
      H[at(i, j)] = std::max({diag, E[at(i, j)], F[at(i, j)]});
    }
  }

  GlobalGotohResult r;
  r.score = H[at(n, m)];
  // Traceback for stats.
  std::size_t i = n, j = m;
  int state = 0;  // 0=H 1=E 2=F
  bool in_gap = false;
  while (i > 0 || j > 0) {
    if (state == 0) {
      const long long h = H[at(i, j)];
      if (i > 0 && j > 0 &&
          h == H[at(i - 1, j - 1)] + p.score(a[i - 1], b[j - 1])) {
        ++r.stats.length;
        if (seqio::is_base(a[i - 1]) && a[i - 1] == b[j - 1]) {
          ++r.stats.matches;
        } else {
          ++r.stats.mismatches;
        }
        --i;
        --j;
        in_gap = false;
      } else if (j > 0 && h == E[at(i, j)]) {
        state = 1;
        ++r.stats.gap_opens;
      } else {
        state = 2;
        ++r.stats.gap_opens;
      }
      continue;
    }
    if (state == 1) {
      ++r.stats.length;
      ++r.stats.gap_columns;
      const bool cont = j > 1 && E[at(i, j)] == E[at(i, j - 1)] - ge;
      --j;
      if (!cont) state = 0;
      continue;
    }
    ++r.stats.length;
    ++r.stats.gap_columns;
    const bool cont = i > 1 && F[at(i, j)] == F[at(i - 1, j)] - ge;
    --i;
    if (!cont) state = 0;
  }
  (void)in_gap;
  return r;
}

}  // namespace scoris::testing
