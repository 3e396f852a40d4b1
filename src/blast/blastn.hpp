// BlastN — a from-scratch BLASTN-style baseline (the paper's comparator).
//
// The paper benchmarks SCORIS-N against NCBI BLASTN 2.2.17
// (`blastall -p blastn -m 8 -e 0.001 -S 1`); that binary is unavailable
// offline, so this module reimplements the classic BLASTN pipeline on the
// same substrates, preserving the structural differences that the paper's
// measurements exercise:
//
//  * like the NCBI C-toolkit blastn, the lookup table is built over 8-mers
//    even for word size 11 (a full 4^11 table was considered too large);
//    bank2 is scanned at stride (w - 8 + 1) and every lookup hit must be
//    *verified* by exact-match extension to the full word — 64x more
//    candidate hits than ORIS's full-width 4^W dictionary sees, which is
//    precisely the cost the ORIS 5N-byte index eliminates;
//  * hits arrive in scan order — scattered accesses into the database
//    index, in contrast to ORIS's seed-ordered batching;
//  * a per-diagonal high-water-mark array suppresses hits inside already
//    extended regions (NCBI's classic redundancy trick), which costs
//    O(diagonal-space) memory that ORIS does not need;
//  * surviving HSPs must be sorted + de-duplicated explicitly (ORIS gets
//    uniqueness from the seed order for free);
//  * the gapped stage and statistics are shared with SCORIS-N
//    (core::gapped_stage), so measured differences isolate hit detection
//    and ungapped extension — exactly the paper's contribution.
//
// Sensitivity differences with SCORIS-N arise naturally from the diagonal
// high-water-mark pruning vs. the seed-order abort; the paper observes a
// few percent disagreement both ways (section 3.4).
//
// blat_options() configures the same pipeline as a BLAT-style comparator
// (Kent, Genome Res. 2002; the paper's section-4 perspective on programs
// that index a bank in main memory).  BLAT's defining trade-off is its
// database index: only NON-OVERLAPPING W-mers (tile stride W), looked up
// at full width W, with the stream scanned at every position.  So:
//  * the index holds ~N/W positions instead of N (vs ORIS's 5N bytes);
//  * a homologous region is found only if it holds an exact W-mer match
//    aligned to the database's W-grid, so sensitivity drops on diverged
//    sequences — BLAT is built for high-identity comparisons;
//  * hit volume is ~1/W of a full index scan, and a hit needs no
//    verification.
// The ungapped walk, the gapped stage and the statistics are shared, so
// the three-way comparison (bench_a5_comparators) isolates the indexing
// strategies.
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

struct BlastOptions {
  /// Two defaults deliberately differ from core::Options, reproducing the
  /// paper's explanation of its few-percent mutual misses (section 3.4):
  ///  * e-values use NCBI's effective-length correction (length_adjust in
  ///    the gapped stage) while SCORIS-N uses the paper's plain m*n
  ///    formula — "there are probably slight differences in the
  ///    computation of this information, leading to reject borderline
  ///    alignments";
  ///  * the DUST level differs slightly — "the SCORIS-N low complexity
  ///    filter presents some difference with the dust filter included in
  ///    BLASTN".
  /// Third difference: the extension drop-offs are tuned differently —
  /// "the gapped and ungapped extension procedures have been rewritten
  /// and tuned for maximal performances. Small differences exist,
  /// especially for deciding if it is worth to continue the extension."
  BlastOptions() {
    dust_params.level = 18;       // slightly more aggressive DUST
    scoring.xdrop_ungapped = 20;  // NCBI blastn-flavored, vs SCORIS-N's 16
    scoring.xdrop_gapped = 25;    // vs SCORIS-N's 20
  }

  int w = 11;
  align::ScoringParams scoring;
  int min_hsp_score = 25;
  double max_evalue = 1e-3;
  bool dust = true;
  filter::DustParams dust_params;
  /// Strands of bank2 to search (paper runs blastall with -S 1 = plus).
  seqio::Strand strand = seqio::Strand::kPlus;
  int threads = 1;  ///< used by the shared gapped stage
  std::size_t max_gap_extent = 1u << 20;
  /// Classic two-hit trigger: require a second non-overlapping word hit on
  /// the same diagonal within `two_hit_window` before extending (Gapped
  /// BLAST, Altschul 1997). Off by default — blastn 2.2.x used one-hit for
  /// nucleotide searches, but the option is part of the family.
  bool two_hit = false;
  int two_hit_window = 40;
  /// BLAT's index: the database's non-overlapping W-mers (stride W) at
  /// lookup width W, so hits need no verification and the stream is
  /// scanned at every position.  Both follow `w`.
  bool tile_database = false;
  /// NCBI's effective-length correction of e-values; false = the plain
  /// m*n search space of the paper's formula.
  bool length_adjust = true;
};

/// The BLAT-style configuration: a tiled database, plain m*n e-values,
/// and SCORIS-N's default drop-offs and DUST level.
[[nodiscard]] BlastOptions blat_options();

/// One run's counters.  A both-strand run adds the two strands' seconds
/// and counters, `gapped` included; it keeps the larger `index_bytes` and
/// `diag_array_bytes`, because the strands run one after the other and
/// each frees its tables before the next is built.
struct BlastStats {
  double index_seconds = 0.0;
  double scan_seconds = 0.0;    ///< seed scan + ungapped extension
  double gapped_seconds = 0.0;
  double total_seconds = 0.0;
  std::size_t hit_pairs = 0;       ///< lookup-word hits examined
  std::size_t verified_words = 0;  ///< hits surviving full-word verification
  std::size_t diag_skipped = 0;    ///< hits inside an extended region
  std::size_t two_hit_deferred = 0;  ///< first hits waiting for a partner
  std::size_t hsps = 0;            ///< unique HSPs above S1
  std::size_t duplicate_hsps = 0;  ///< removed by the explicit dedup
  std::size_t diag_array_bytes = 0;
  std::size_t index_bytes = 0;     ///< the database lookup table
  core::GappedStageStats gapped;
  std::size_t alignments = 0;
};

struct BlastResult {
  std::vector<align::GappedAlignment> alignments;
  BlastStats stats;
};

class BlastN {
 public:
  explicit BlastN(BlastOptions options = {});

  /// Compare bank1 (database / m8 query column) against bank2 (scanned
  /// stream / m8 subject column).  Same orientation as a scoris::Session
  /// search of bank2 against reference bank1, so outputs are directly
  /// comparable.
  [[nodiscard]] BlastResult run(const seqio::SequenceBank& bank1,
                                const seqio::SequenceBank& bank2) const;

  [[nodiscard]] const BlastOptions& options() const { return options_; }
  [[nodiscard]] const stats::KarlinParams& karlin() const { return karlin_; }

 private:
  [[nodiscard]] BlastResult run_single(const seqio::SequenceBank& bank1,
                                       const seqio::SequenceBank& bank2,
                                       bool minus) const;

  BlastOptions options_;
  stats::KarlinParams karlin_;
};

}  // namespace scoris::blast
