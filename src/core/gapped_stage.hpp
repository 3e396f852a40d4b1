// Step 3 of the pipeline: HSPs -> gapped alignments (paper section 2.3).
//
// HSPs are sorted by (subject sequence, diagonal, start); each one is
// gap-extended from its midpoint unless it is already contained in a
// previously produced alignment — the diagonal-sorted order makes that
// containment test a short backward scan (the paper's data-locality
// argument).  This stage is deliberately shared between SCORIS-N and the
// BLASTN baseline so that the measured performance difference isolates the
// hit-detection/ungapped stage, which is where the ORIS contribution lives.
#pragma once

#include <cstddef>
#include <vector>

#include "align/records.hpp"
#include "align/scoring.hpp"
#include "seqio/sequence_bank.hpp"
#include "stats/karlin.hpp"

namespace scoris::util {
class ThreadPool;
}  // namespace scoris::util

namespace scoris::core {

struct GappedStageOptions {
  align::ScoringParams scoring;
  double max_evalue = 1e-3;
  std::size_t max_gap_extent = 1u << 20;
  int threads = 1;
  /// Reusable worker pool (a Session's); when set it supersedes
  /// `threads` and no threads are spawned per call.
  util::ThreadPool* pool = nullptr;
  /// NCBI-style effective-length correction: shrink m and n by the
  /// expected HSP length before computing e-values.  Off for SCORIS-N
  /// (the paper's plain m*n formula); on for the BLASTN baseline — the
  /// resulting borderline e-value disagreements are the paper's stated
  /// source of the few-percent mutual misses (section 3.4).
  bool length_adjust = false;
};

struct GappedStageStats {
  std::size_t hsps_in = 0;
  std::size_t skipped_contained = 0;  ///< HSPs inside an existing alignment
  std::size_t gapped_extensions = 0;
  /// Extensions whose pure-diagonal path gave the statistics directly.
  std::size_t fast_path = 0;
  /// Extensions re-aligned by banded_global_stats (the second DP); with
  /// fast_path they add up to gapped_extensions.
  std::size_t second_dp = 0;
  std::size_t below_cutoff = 0;       ///< extensions failing the e-value cut
  std::size_t exact_duplicates = 0;   ///< identical alignments removed
  /// DP cells computed by the x-drop pass of every extension.
  std::size_t xdrop_cells = 0;
  /// DP cells computed by the second DP's banded re-alignments.
  std::size_t band_cells = 0;

  /// Adds every counter of `o` (slice and group totals).
  GappedStageStats& operator+=(const GappedStageStats& o);
};

/// The step-4 output ordering, shared by every merge point in the code
/// base (this stage's final sort and the exec engine's cross-group merge):
/// increasing e-value, then decreasing bit score, then coordinates, with
/// the minus-strand flag as the final tie break (plus before minus).
[[nodiscard]] bool step4_less(const align::GappedAlignment& x,
                              const align::GappedAlignment& y);

/// Consume `hsps` (sorted in place) and produce e-value-filtered gapped
/// alignments, sorted by increasing e-value (paper step 4 ordering).
[[nodiscard]] std::vector<align::GappedAlignment> gapped_stage(
    std::vector<align::Hsp>& hsps, const seqio::SequenceBank& bank1,
    const seqio::SequenceBank& bank2, const stats::KarlinParams& karlin,
    const GappedStageOptions& options, GappedStageStats* out_stats = nullptr);

}  // namespace scoris::core
