// Gapped x-drop extension (step 3 of the ORIS pipeline, and the gapped
// stage of the BLASTN baseline).
//
// Two pieces:
//  * extend_gapped(): from an anchor point (typically the middle of an
//    HSP, paper section 2.3) grow an affine-gap alignment left and right
//    with an adaptive-band x-drop dynamic program (the BLAST ALIGN-style
//    band: only cells within xdrop_gapped of the running best survive a
//    row).  Returns endpoints and raw score.
//  * banded_global_stats(): once endpoints are fixed, re-align the two
//    substrings with a banded global Gotoh DP *with traceback* to obtain
//    the m8 column statistics (identities, mismatches, gap opens, length).
//    The band is wide enough to contain any path the x-drop pass could
//    have produced, so the recomputed score is >= the x-drop score.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "align/records.hpp"
#include "align/scoring.hpp"

namespace scoris::align {

/// Result of a two-sided gapped extension from an anchor point.
struct GappedExtent {
  seqio::Pos s1 = 0;
  seqio::Pos e1 = 0;
  seqio::Pos s2 = 0;
  seqio::Pos e2 = 0;
  std::int32_t score = 0;
  /// x-drop DP cells computed, both directions (rows past the anchor).
  std::size_t cells = 0;
};

/// Extend from the anchor pair (mid1, mid2): the returned region satisfies
/// s1 <= mid1 <= e1 and s2 <= mid2 <= e2 (half-open ends).  Extension never
/// crosses a kSentinel and each direction explores at most `max_extent`
/// characters.
[[nodiscard]] GappedExtent extend_gapped(std::span<const seqio::Code> seq1,
                                         std::span<const seqio::Code> seq2,
                                         seqio::Pos mid1, seqio::Pos mid2,
                                         const ScoringParams& params,
                                         std::size_t max_extent = 1u << 20);

/// Alignment column operations, in alignment order.
enum class AlignOp : std::uint8_t {
  kMatch = 0,      ///< diagonal column (match or mismatch)
  kGapInSeq1 = 1,  ///< column consumes seq2 only (gap in seq1)
  kGapInSeq2 = 2,  ///< column consumes seq1 only (gap in seq2)
};

/// Banded global affine alignment of seq1[s1,e1) vs seq2[s2,e2).
/// Returns column statistics and writes the global score to *out_score when
/// non-null.  When `out_ops` is non-null it receives the optimal path's
/// column operations in alignment order (for pairwise display / CIGAR).
/// The band automatically covers the length difference plus the largest
/// gap excursion an x-drop path could make.  When `out_cells` is non-null
/// it receives the number of DP cells computed (rows 1..e1 - s1).
[[nodiscard]] AlignmentStats banded_global_stats(
    std::span<const seqio::Code> seq1, seqio::Pos s1, seqio::Pos e1,
    std::span<const seqio::Code> seq2, seqio::Pos s2, seqio::Pos e2,
    const ScoringParams& params, std::int32_t* out_score = nullptr,
    std::vector<AlignOp>* out_ops = nullptr, std::size_t* out_cells = nullptr);

}  // namespace scoris::align
