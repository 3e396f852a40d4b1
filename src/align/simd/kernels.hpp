// Raw match-run kernels — one pair of functions per instruction set.
//
// The primitive every step-2 extension is built from is "how many leading
// characters of these two code arrays are identical concrete bases?".  A
// character pair counts as a match exactly when a[i] == b[i] AND a[i] < 4:
// equal kAmbiguous or kSentinel bytes compare equal but are NOT matches,
// which is precisely the `is_base(a) && a == b` predicate of the scalar
// x-drop loops.  The AVX2 variant evaluates 32 characters per iteration
// and reduces to the first mismatch via movemask +
// count-trailing/leading-zeros.  The ungapped walk tests a run's first
// few characters inline under this same predicate and bound, and calls a
// kernel only from there on, for runs that are still matching.
//
// Bounds contract: a caller passes `max`, the number of characters it can
// legally read in the walk direction, and every load stays inside those
// `max` bytes (vector loads are only issued for full in-bounds blocks; the
// tail falls back to the scalar loop).  No padding or alignment is required
// of the sequence buffers.
//
// These functions are implementation details of the dispatch layer; call
// through align::simd::KernelOps (kernel_dispatch.hpp) instead.
#pragma once

#include <cstddef>

#include "seqio/nucleotide.hpp"

namespace scoris::align::simd {

/// Leading i in [0, max) with a[i] == b[i] and a[i] a concrete base.
std::size_t match_run_fwd_scalar(const seqio::Code* a, const seqio::Code* b,
                                 std::size_t max);

/// Leading i in [0, max) with a[-1-i] == b[-1-i] and a[-1-i] a concrete
/// base (the walk moves towards lower addresses; `a`/`b` point one past
/// the first character examined).
std::size_t match_run_bwd_scalar(const seqio::Code* a, const seqio::Code* b,
                                 std::size_t max);

#if defined(__x86_64__) || defined(__i386__)
std::size_t match_run_fwd_avx2(const seqio::Code* a, const seqio::Code* b,
                               std::size_t max);
std::size_t match_run_bwd_avx2(const seqio::Code* a, const seqio::Code* b,
                               std::size_t max);
#endif

}  // namespace scoris::align::simd
