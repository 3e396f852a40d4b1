// The ORIS ordered ungapped extension — the paper's key contribution
// (section 2.2 and its extend_left listing).
//
// Extension of the seed hit (p1, p2) proceeds exactly like the plain
// x-drop extension, but additionally recomputes the seed code of every
// window of W consecutive *matching* characters it walks over:
//
//  * left extension aborts when it meets an enumerable seed whose code is
//    lower than OR EQUAL to the anchor's — the HSP is (or will be)
//    generated from that occurrence instead (the <= makes the leftmost
//    occurrence of equal-code seeds the canonical generator);
//  * right extension aborts only on a STRICTLY lower code — an equal code
//    to the right loses against us by the left rule.
//
// Together the two rules guarantee each HSP is generated exactly once
// across the enumeration of every seed code the two banks share, in
// increasing code order, with no de-duplication structure.
//
// One refinement over the paper's listing: a candidate seed only causes an
// abort when it is actually enumerable as a hit, i.e. present in *both*
// bank indexes (is_indexed).  With full indexing this is always
// true for a W-match window; with DUST masking or stride-2 asymmetric
// indexing an excluded word must not abort (it will never anchor an
// extension, so aborting would lose the HSP entirely).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "align/records.hpp"
#include "align/scoring.hpp"
#include "align/simd/kernel_dispatch.hpp"
#include "index/bank_index.hpp"
#include "index/subject_index.hpp"

namespace scoris::core {

/// Statistics of one ordered extension (for the pipeline's counters).
struct OrderedExtendOutcome {
  std::optional<align::Hsp> hsp;  ///< nullopt when the order rule aborted
  bool aborted_left = false;
  bool aborted_right = false;
};

/// Ordered two-sided ungapped extension of the exact seed match
/// idx1.bank()[p1, p1+W) == idx2.bank()[p2, p2+W): the ungapped walk of
/// align/ungapped.hpp with the order rule as its per-character hook.
/// `anchor` must be the seed code at p1/p2 (the enumeration loop already
/// has it, so it is passed instead of recomputed).  `ops` selects the
/// match-run kernel used to consume identical-base stretches; the scalar
/// order-rule walk over each run is identical for every kernel, so the
/// outcome — HSP bounds, score, and abort decisions — is kernel-invariant.
[[nodiscard]] OrderedExtendOutcome extend_ordered(
    const index::BankIndex& idx1, const index::BankIndex& idx2,
    seqio::Pos p1, seqio::Pos p2, index::SeedCode anchor,
    const align::ScoringParams& params,
    const align::simd::KernelOps& ops = align::simd::dispatch());

/// Step-2 kernel parameters (the slice of core::Options the scan needs;
/// kept separate so this header stays independent of the pipeline).
struct SeedScanParams {
  align::ScoringParams scoring;
  int min_hsp_score = 25;     ///< S1 threshold for keeping HSPs
  bool enforce_order = true;  ///< false = A1 ablation (plain extension)
  /// Match-run kernel for the extension walks; nullptr = runtime-dispatched
  /// best (align::simd::dispatch()).  Output is kernel-invariant.
  const align::simd::KernelOps* kernel = nullptr;
};

/// One worker's step-2 output over a seed-code range.  Because the order
/// rule makes HSP output disjoint across disjoint code ranges,
/// concatenating results of a contiguous ascending partition of
/// [0, 4^W) reproduces the sequential scan exactly — this is the
/// invariant the exec engine's shards are built on.
struct SeedScanResult {
  std::vector<align::Hsp> hsps;
  std::size_t hit_pairs = 0;
  std::size_t order_aborts = 0;
};

/// Walk the seed codes of [code_lo, code_hi) that the subject `idx2`
/// holds, in increasing order, look each one up in the reference `idx1`,
/// and run the ordered (or, for the ablation, plain ungapped) extension
/// over every occurrence pair: bank-1 positions outermost, both ascending.
/// HSPs are appended to `out` in enumeration order.  The two overloads
/// share one body and, for the same banks and options, produce the same
/// result: a SubjectIndex subject visits only the codes it holds, a
/// BankIndex subject (perfbench's composer, the micro-benchmarks) every
/// code of the range.
void scan_seed_range(const index::BankIndex& idx1,
                     const index::SubjectIndex& idx2,
                     const SeedScanParams& params, index::SeedCode code_lo,
                     index::SeedCode code_hi, SeedScanResult& out);
void scan_seed_range(const index::BankIndex& idx1,
                     const index::BankIndex& idx2,
                     const SeedScanParams& params, index::SeedCode code_lo,
                     index::SeedCode code_hi, SeedScanResult& out);

}  // namespace scoris::core
