// BlatLike — a BLAT-style comparator (the paper's section-4 perspective:
// "Comparing SCORIS-N with other programs which have also been designed
// for dealing with large DNA sequences and which also handle sequence
// indexing into main memory (BLAT, FLASH, BLASTZ)").
//
// BLAT's defining memory/speed trade-off (Kent 2002): the database index
// stores only NON-OVERLAPPING W-mers (stride = W), cutting index memory by
// a factor of W, and the query is scanned at every position against it.
// Consequences reproduced here:
//  * index memory ~ N/W position entries instead of N (vs ORIS's 5N bytes);
//  * a homologous region is detected only if it contains an exact W-mer
//    match aligned to the database's W-grid, so sensitivity drops for
//    diverged sequences — BLAT is built for high-identity comparisons;
//  * hit volume is ~1/W of a full index scan, so the search stage is fast.
//
// The ungapped/gapped machinery and statistics are shared with the other
// two programs, so the three-way comparison (bench_a5_comparators)
// isolates the indexing strategies.
#pragma once

#include <vector>

#include "align/records.hpp"
#include "align/scoring.hpp"
#include "core/gapped_stage.hpp"
#include "filter/dust.hpp"
#include "seqio/sequence_bank.hpp"
#include "seqio/strand.hpp"
#include "stats/karlin.hpp"

namespace scoris::blast {

struct BlatOptions {
  int w = 11;
  align::ScoringParams scoring;
  int min_hsp_score = 25;
  double max_evalue = 1e-3;
  bool dust = true;
  filter::DustParams dust_params;
  seqio::Strand strand = seqio::Strand::kPlus;
  int threads = 1;
  std::size_t max_gap_extent = 1u << 20;
};

struct BlatStats {
  double index_seconds = 0.0;
  double scan_seconds = 0.0;
  double gapped_seconds = 0.0;
  double total_seconds = 0.0;
  std::size_t hit_pairs = 0;
  std::size_t diag_skipped = 0;
  std::size_t hsps = 0;
  std::size_t index_bytes = 0;  ///< tiled index memory
  core::GappedStageStats gapped;
  std::size_t alignments = 0;
};

struct BlatResult {
  std::vector<align::GappedAlignment> alignments;
  BlatStats stats;
};

class BlatLike {
 public:
  explicit BlatLike(BlatOptions options = {});

  /// Compare bank1 (database, tiled index) against bank2 (scanned query
  /// stream).  Same orientation as core::Pipeline / BlastN.
  [[nodiscard]] BlatResult run(const seqio::SequenceBank& bank1,
                               const seqio::SequenceBank& bank2) const;

  [[nodiscard]] const BlatOptions& options() const { return options_; }
  [[nodiscard]] const stats::KarlinParams& karlin() const { return karlin_; }

 private:
  [[nodiscard]] BlatResult run_single(const seqio::SequenceBank& bank1,
                                      const seqio::SequenceBank& bank2,
                                      bool minus) const;

  BlatOptions options_;
  stats::KarlinParams karlin_;
};

}  // namespace scoris::blast
