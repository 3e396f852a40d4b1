#include "blast/blat_like.hpp"

#include <algorithm>
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

}  // namespace

BlatLike::BlatLike(BlatOptions options) : options_(std::move(options)) {
  karlin_ = stats::karlin_match_mismatch(options_.scoring.match,
                                         options_.scoring.mismatch);
}

BlatResult BlatLike::run(const seqio::SequenceBank& bank1,
                         const seqio::SequenceBank& bank2) const {
  using seqio::Strand;
  if (options_.strand == Strand::kPlus) {
    return run_single(bank1, bank2, /*minus=*/false);
  }
  const seqio::SequenceBank rc = seqio::reverse_complement(bank2);
  if (options_.strand == Strand::kMinus) {
    return run_single(bank1, rc, /*minus=*/true);
  }
  BlatResult plus = run_single(bank1, bank2, /*minus=*/false);
  BlatResult minus = run_single(bank1, rc, /*minus=*/true);
  plus.alignments.insert(plus.alignments.end(), minus.alignments.begin(),
                         minus.alignments.end());
  std::sort(plus.alignments.begin(), plus.alignments.end(),
            core::step4_less);
  plus.stats.total_seconds += minus.stats.total_seconds;
  plus.stats.hit_pairs += minus.stats.hit_pairs;
  plus.stats.hsps += minus.stats.hsps;
  plus.stats.alignments = plus.alignments.size();
  return plus;
}

BlatResult BlatLike::run_single(const seqio::SequenceBank& bank1,
                                const seqio::SequenceBank& bank2,
                                bool minus) const {
  BlatResult result;
  util::WallTimer total;
  const int w = options_.w;

  // ---- setup: mask + tiled (non-overlapping) database index ---------------
  util::WallTimer t1;
  const index::SeedCoder coder(w);
  filter::MaskBitmap mask1;
  filter::MaskBitmap mask2;
  index::IndexOptions iopt1;
  iopt1.stride = w;  // BLAT's defining choice: non-overlapping tiles
  if (options_.dust) {
    mask1 = filter::dust_mask(bank1, options_.dust_params);
    mask2 = filter::dust_mask(bank2, options_.dust_params);
    iopt1.mask = &mask1;
  }
  const index::BankIndex db(bank1, coder, iopt1);
  result.stats.index_bytes = db.memory_bytes();
  result.stats.index_seconds = t1.seconds();

  // ---- query scan (every position) + ungapped extension --------------------
  util::WallTimer t2;
  const auto seq1 = bank1.data();
  const auto seq2 = bank2.data();
  const std::size_t n1 = seq1.size();
  const std::size_t n2 = seq2.size();

  std::vector<std::int64_t> diag_level(n1 + n2, -1);
  std::vector<Hsp> hsps;

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
    if (run < static_cast<std::size_t>(w)) continue;
    const std::size_t word_start = p2 + 1 - static_cast<std::size_t>(w);
    if (options_.dust && mask2.any_in(word_start, static_cast<std::size_t>(w))) {
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
      const Hsp h = align::extend_ungapped(seq1, seq2, static_cast<Pos>(p1),
                                           static_cast<Pos>(word_start), w,
                                           options_.scoring);
      diag_level[diag] = static_cast<std::int64_t>(h.e2);
      if (h.score >= options_.min_hsp_score) hsps.push_back(h);
    }
  }

  const auto key = [](const Hsp& h) {
    return std::tuple(h.s1, h.e1, h.s2, h.e2);
  };
  std::sort(hsps.begin(), hsps.end(),
            [&](const Hsp& x, const Hsp& y) { return key(x) < key(y); });
  hsps.erase(std::unique(hsps.begin(), hsps.end(),
                         [&](const Hsp& x, const Hsp& y) {
                           return key(x) == key(y);
                         }),
             hsps.end());
  result.stats.hsps = hsps.size();
  result.stats.scan_seconds = t2.seconds();

  // ---- gapped stage (shared) -----------------------------------------------
  util::WallTimer t3;
  core::GappedStageOptions gopt;
  gopt.scoring = options_.scoring;
  gopt.max_evalue = options_.max_evalue;
  gopt.max_gap_extent = options_.max_gap_extent;
  gopt.threads = options_.threads;
  result.alignments = core::gapped_stage(hsps, bank1, bank2, karlin_, gopt,
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
