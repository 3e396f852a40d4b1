#include "blast/blastn.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "align/ungapped.hpp"
#include "index/bank_index.hpp"
#include "util/timer.hpp"

namespace scoris::blast {
namespace {

using align::Hsp;
using index::SeedCode;
using seqio::Code;
using seqio::Pos;

/// NCBI nucleotide lookup tables are built over (at most) 8-mers even for
/// word size 11; a hit must then be *verified* by exact-match extension to
/// the full word (blast_nalookup / na_scan in the C toolkit).  This is the
/// central structural difference from ORIS, which affords a full-width
/// 4^W dictionary (5N bytes) and never verifies.
constexpr int kLookupWidth = 8;

}  // namespace

BlastN::BlastN(BlastOptions options) : options_(std::move(options)) {
  karlin_ = stats::karlin_match_mismatch(options_.scoring.match,
                                         options_.scoring.mismatch);
}

BlastResult BlastN::run(const seqio::SequenceBank& bank1,
                        const seqio::SequenceBank& bank2) const {
  using seqio::Strand;
  if (options_.strand == Strand::kPlus) {
    return run_single(bank1, bank2, /*minus=*/false);
  }
  const seqio::SequenceBank rc = seqio::reverse_complement(bank2);
  if (options_.strand == Strand::kMinus) {
    return run_single(bank1, rc, /*minus=*/true);
  }
  BlastResult plus = run_single(bank1, bank2, /*minus=*/false);
  BlastResult minus = run_single(bank1, rc, /*minus=*/true);
  plus.alignments.insert(plus.alignments.end(), minus.alignments.begin(),
                         minus.alignments.end());
  std::sort(plus.alignments.begin(), plus.alignments.end(),
            [](const align::GappedAlignment& x,
               const align::GappedAlignment& y) {
              return std::tuple(x.evalue, -x.bitscore, x.seq1, x.s1, x.seq2,
                                x.s2, x.minus) <
                     std::tuple(y.evalue, -y.bitscore, y.seq1, y.s1, y.seq2,
                                y.s2, y.minus);
            });
  auto& s = plus.stats;
  const auto& m = minus.stats;
  s.index_seconds += m.index_seconds;
  s.scan_seconds += m.scan_seconds;
  s.gapped_seconds += m.gapped_seconds;
  s.total_seconds += m.total_seconds;
  s.hit_pairs += m.hit_pairs;
  s.verified_words += m.verified_words;
  s.diag_skipped += m.diag_skipped;
  s.two_hit_deferred += m.two_hit_deferred;
  s.hsps += m.hsps;
  s.duplicate_hsps += m.duplicate_hsps;
  s.alignments = plus.alignments.size();
  return plus;
}

BlastResult BlastN::run_single(const seqio::SequenceBank& bank1,
                               const seqio::SequenceBank& bank2,
                               bool minus) const {
  BlastResult result;
  util::WallTimer total;

  const int w = options_.w;
  const int lut_w = std::min(w, kLookupWidth);
  // Scan stride: every w-mer of the stream contains (w - lut_w + 1)
  // lookup-word start offsets, so scanning this stride misses nothing.
  const std::size_t stride = static_cast<std::size_t>(w - lut_w + 1);

  // ---- setup: mask + database lookup table ---------------------------------
  util::WallTimer t1;
  const index::SeedCoder coder(lut_w);

  filter::MaskBitmap mask1;
  filter::MaskBitmap mask2;
  index::IndexOptions iopt1;
  if (options_.dust) {
    mask1 = filter::dust_mask(bank1, options_.dust_params);
    mask2 = filter::dust_mask(bank2, options_.dust_params);
    iopt1.mask = &mask1;
  }
  const index::BankIndex db(bank1, coder, iopt1);
  result.stats.index_seconds = t1.seconds();

  // ---- seed scan + verification + ungapped extension -----------------------
  util::WallTimer t2;
  const auto seq1 = bank1.data();
  const auto seq2 = bank2.data();
  const std::size_t n1 = seq1.size();
  const std::size_t n2 = seq2.size();

  // Per-diagonal high-water mark: furthest bank2 position already covered
  // by an ungapped extension on that diagonal.  diag = p1 - p2 + n2 maps
  // into [0, n1 + n2).  Classic BLASTN redundancy structure.
  std::vector<std::int64_t> diag_level(n1 + n2, -1);
  result.stats.diag_array_bytes = diag_level.capacity() * sizeof(std::int64_t);

  // Two-hit mode: last verified-word position per diagonal.
  std::vector<std::int64_t> diag_last;
  if (options_.two_hit) {
    diag_last.assign(n1 + n2, std::numeric_limits<std::int64_t>::min() / 2);
    result.stats.diag_array_bytes +=
        diag_last.capacity() * sizeof(std::int64_t);
  }

  std::vector<Hsp> hsps;

  // Stream bank2 with a rolling lookup word, visiting every `stride`-th
  // valid word start (NCBI scans its packed database the same way).
  std::size_t run = 0;
  SeedCode code = 0;
  for (std::size_t p2 = 0; p2 < n2; ++p2) {
    const Code c = seq2[p2];
    if (!seqio::is_base(c)) {
      run = 0;
      continue;
    }
    ++run;
    code = coder.roll_right(code, c);
    if (run < static_cast<std::size_t>(lut_w)) continue;
    const std::size_t word_start = p2 + 1 - static_cast<std::size_t>(lut_w);
    if (word_start % stride != 0) continue;
    if (options_.dust &&
        mask2.any_in(word_start, static_cast<std::size_t>(lut_w))) {
      continue;
    }

    for (const std::int32_t h1 : db.occurrences_span(code)) {
      ++result.stats.hit_pairs;
      const auto p1 = static_cast<std::size_t>(h1);
      const std::size_t diag = p1 - word_start + n2;
      if (diag_level[diag] >= static_cast<std::int64_t>(word_start)) {
        ++result.stats.diag_skipped;
        continue;
      }

      // Verify the lookup hit extends to a full w-mer exact match
      // (left then right, counting identical concrete bases).
      std::size_t left = 0;
      {
        std::size_t i = p1;
        std::size_t j = word_start;
        while (i > 0 && j > 0) {
          const Code a = seq1[i - 1];
          const Code b = seq2[j - 1];
          if (!seqio::is_base(a) || a != b) break;
          --i;
          --j;
          ++left;
          if (left + static_cast<std::size_t>(lut_w) >=
              static_cast<std::size_t>(w)) {
            break;
          }
        }
      }
      std::size_t right = 0;
      {
        std::size_t i = p1 + static_cast<std::size_t>(lut_w);
        std::size_t j = word_start + static_cast<std::size_t>(lut_w);
        while (i < n1 && j < n2 &&
               left + static_cast<std::size_t>(lut_w) + right <
                   static_cast<std::size_t>(w)) {
          const Code a = seq1[i];
          const Code b = seq2[j];
          if (!seqio::is_base(a) || a != b) break;
          ++i;
          ++j;
          ++right;
        }
      }
      if (left + static_cast<std::size_t>(lut_w) + right <
          static_cast<std::size_t>(w)) {
        continue;  // verification failed: no full word here
      }
      ++result.stats.verified_words;

      if (options_.two_hit) {
        // Gapped-BLAST style trigger: extend only when a previous verified
        // hit exists on this diagonal within the window.  (The protein
        // non-overlap constraint is dropped: the stride-4 nucleotide scan
        // produces hits denser than the word size.)
        const std::int64_t prev = diag_last[diag];
        diag_last[diag] = static_cast<std::int64_t>(word_start);
        const std::int64_t dist =
            static_cast<std::int64_t>(word_start) - prev;
        if (dist <= 0 || dist > options_.two_hit_window) {
          ++result.stats.two_hit_deferred;
          continue;
        }
      }

      const Pos s1 = static_cast<Pos>(p1 - left);
      const Pos s2 = static_cast<Pos>(word_start - left);
      const Hsp h =
          align::extend_ungapped(seq1, seq2, s1, s2, w, options_.scoring);
      diag_level[diag] = static_cast<std::int64_t>(h.e2);
      if (h.score >= options_.min_hsp_score) hsps.push_back(h);
    }
  }

  // Explicit de-duplication (sort + unique), part of the classic pipeline.
  const auto key = [](const Hsp& h) {
    return std::tuple(h.s1, h.e1, h.s2, h.e2);
  };
  std::sort(hsps.begin(), hsps.end(),
            [&](const Hsp& x, const Hsp& y) { return key(x) < key(y); });
  const auto new_end = std::unique(
      hsps.begin(), hsps.end(),
      [&](const Hsp& x, const Hsp& y) { return key(x) == key(y); });
  result.stats.duplicate_hsps =
      static_cast<std::size_t>(std::distance(new_end, hsps.end()));
  hsps.erase(new_end, hsps.end());
  result.stats.hsps = hsps.size();
  result.stats.scan_seconds = t2.seconds();

  // ---- gapped stage (shared with SCORIS-N) ---------------------------------
  util::WallTimer t3;
  core::GappedStageOptions gopt;
  gopt.scoring = options_.scoring;
  gopt.max_evalue = options_.max_evalue;
  gopt.max_gap_extent = options_.max_gap_extent;
  gopt.threads = options_.threads;
  gopt.length_adjust = true;  // NCBI-style effective search space
  result.alignments =
      core::gapped_stage(hsps, bank1, bank2, karlin_, gopt,
                         &result.stats.gapped);
  result.stats.gapped_seconds = t3.seconds();
  if (minus) {
    for (auto& a : result.alignments) a.minus = true;
  }

  result.stats.alignments = result.alignments.size();
  result.stats.total_seconds = total.seconds();
  return result;
}

}  // namespace scoris::blast
