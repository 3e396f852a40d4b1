// ExecutionPlan — the sharded decomposition of one bank comparison.
//
// The paper's section 4 parallelizes step 2 by partitioning the outer
// seed-code loop (the order rule keeps workers' HSP outputs disjoint) and
// step 3 by subject sequence.  The exec engine generalizes that into one
// unit of work used by *every* entry path: a Shard is the step-2 scan of
// one seed-code range for one (strand x bank2-slice) group.  A plan is the
// full cross product, group-major, with seed ranges in ascending code
// order — concatenating shard outputs in plan order therefore reproduces
// the sequential scan byte for byte, whatever the shard count, schedule,
// or thread count.  plan_groups alone fixes the group order, which is
// also the cross-group merge's tie-break order, so the engine and the
// distributed coordinator cannot drift apart on it.
//
// Seed-range boundaries are *adaptive*: they are placed on the bank1
// dictionary's occupancy histogram so every shard carries a comparable
// number of bank1 occurrences, instead of a uniform code split that lands
// entire repeat families in one unlucky worker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "index/bank_index.hpp"
#include "seqio/strand.hpp"
#include "util/threading.hpp"

namespace scoris::core::exec {

/// Contiguous seed-code range [lo, hi).
struct SeedRange {
  index::SeedCode lo = 0;
  index::SeedCode hi = 0;
};

/// Contiguous bank2 sequence range [from, to).
struct SliceRange {
  std::size_t from = 0;
  std::size_t to = 0;
};

/// One (strand x bank2-slice) group.  Groups execute sequentially (the
/// memory budget admits one slice index at a time); shards within a group
/// run on the scheduler.
struct ShardGroup {
  bool minus = false;  ///< subject side is the slice's reverse complement
  SliceRange slice;
  std::size_t first_shard = 0;  ///< offset into ExecutionPlan::shards
  std::size_t shard_count = 0;
};

/// One schedulable unit of step-2 work.
struct Shard {
  std::uint32_t group = 0;  ///< index into ExecutionPlan::groups
  SeedRange codes;
};

struct ExecutionPlan {
  std::vector<ShardGroup> groups;  ///< slice-major, plus before minus
  std::vector<Shard> shards;       ///< group-major, ascending code ranges
  int threads = 1;
  util::Schedule schedule = util::Schedule::kStealing;
};

/// What compile_plan decomposes: which strands, which bank2 slices, and
/// how step 2 is sharded and scheduled.
struct PlanRequest {
  seqio::Strand strand = seqio::Strand::kPlus;
  /// Bank2 sequence slices, in processing order.  Empty = the chunked
  /// driver did not split; compile_plan inserts the whole-bank slice
  /// [0, bank2_size).
  std::vector<SliceRange> slices;
  std::size_t bank2_size = 0;  ///< sequences in bank2 (for the default slice)
  int threads = 1;
  /// Seed-code shards per group; 0 = auto (1 single-threaded, else
  /// threads * 8, matching the pre-engine chunk factor).
  std::size_t shards = 0;
  util::Schedule schedule = util::Schedule::kStealing;
};

/// Split [0, 4^W) into at most `shards` contiguous ascending ranges whose
/// bank1 occupancy (from idx1.occupancy_histogram) is as even as the
/// bucket granularity allows.  Empty ranges are collapsed, so fewer than
/// `shards` ranges come back when the occupancy is concentrated; the
/// ranges always cover the full code space.  Returns the paired weights
/// via `weights` when non-null.
[[nodiscard]] std::vector<SeedRange> split_seed_ranges(
    const index::BankIndex& idx1, std::size_t shards,
    std::vector<std::size_t>* weights = nullptr);

/// The (strand x slice) groups of a comparison, slice-major with plus
/// before minus; empty `slices` = the whole bank [0, bank2_size).  A
/// group's position in this list is its tie-break key in the
/// cross-group merge, so the engine (through compile_plan) and the
/// distributed coordinator both take their groups from here.  The
/// shard fields are left zero.
[[nodiscard]] std::vector<ShardGroup> plan_groups(
    seqio::Strand strand, const std::vector<SliceRange>& slices,
    std::size_t bank2_size);

/// Compile the comparison against `idx1` into shard tasks.
[[nodiscard]] ExecutionPlan compile_plan(const index::BankIndex& idx1,
                                         const PlanRequest& request);

}  // namespace scoris::core::exec
