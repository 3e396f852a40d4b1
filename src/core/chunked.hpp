// Bank2 slicing under a memory budget.
//
// The paper bounds bank size by available memory (section 3.1: the index
// costs ~5 N bytes per bank, so "comparing two chromosomes of 40 MBytes
// will require, at least, a free memory space of 400 MBytes").  When the
// reference index plus a bank2 index do not fit the budget,
// plan_budget_slices cuts bank2 into sequence ranges; the exec engine
// processes one slice at a time (slice_bank materializes it) and remaps
// results back to the original bank's coordinates.  Because ORIS
// statistics use |bank1| x |subject sequence| as the search space and
// sequences are never split, the result is bit-identical to an unsliced
// run.  Session::search plans the slices from SearchLimits.
#pragma once

#include <cstddef>
#include <vector>

#include "core/exec/plan.hpp"
#include "core/options.hpp"
#include "seqio/sequence_bank.hpp"

namespace scoris::core {

struct ChunkedOptions {
  Options pipeline;
  /// Approximate budget for the two in-memory indexes (bytes).  The
  /// driver slices bank2 so that index1 + slice-index fit; bank1 must fit
  /// on its own.  Default 256 MB.
  std::size_t memory_budget_bytes = 256u << 20;
  /// Lower bound on slices (testing hook; 0 = derive from the budget).
  std::size_t min_chunks = 0;
};

/// Estimated index bytes for a bank at word length w (the paper's ~5N plus
/// the 4^W dictionary).  For a bank2 slice it is a conservative bound:
/// the slice's SubjectIndex holds a fixed bucket table in place of the
/// 4^W term, which the budget planner still charges.
[[nodiscard]] std::size_t estimated_index_bytes(
    const seqio::SequenceBank& bank, int w);

/// Copy a contiguous sequence range [from, to) of a bank into a new bank.
/// `from == to` yields an empty bank.
[[nodiscard]] seqio::SequenceBank slice_bank(const seqio::SequenceBank& bank,
                                             std::size_t from, std::size_t to);

/// The budget-driven slice plan for the exec engine: bank2 is cut into
/// the fewest contiguous sequence ranges whose estimated slice index fits
/// next to `bank1_bytes` under the budget (at least options.min_chunks
/// slices, never more than one per sequence).  An empty bank yields one
/// empty slice.
[[nodiscard]] std::vector<exec::SliceRange> plan_budget_slices(
    std::size_t bank1_bytes, const seqio::SequenceBank& bank2,
    const ChunkedOptions& options);

}  // namespace scoris::core
