// The sharded execution engine: the one way a comparison runs.
//
// execute() compiles a comparison into an ExecutionPlan (see plan.hpp)
// and runs it against a reference index built beforehand (Session's
// constructor, a .scix store, or a distributed worker's job setup):
//
//   groups   each (strand x bank2-slice) group is processed in plan
//            order: the slice is materialized (and reverse-complemented
//            for minus groups), masked and indexed as a SubjectIndex (no
//            4^W array), its seed-code shards run through util::run_tasks
//            (static or claim-the-next-shard) over that one shared
//            index, and the group's HSPs feed the gapped stage;
//   merge    group alignments are remapped to bank2-global coordinates
//            and delivered to the HitSink in the canonical step-4 order:
//            a single-group plan delivers its group the moment it
//            finishes; a multi-group plan collects each group as a
//            sorted run (in memory under the delivery budget, CRC-framed
//            temp spill files over it) and streams them through a
//            stable k-way merge in bounded batches (see
//            core/exec/run_merge.hpp).
//
// Determinism: shard outputs concatenate in ascending seed-code order, so
// the HSP stream — and therefore the m8 output — is byte-identical for
// any thread count, shard count, or schedule.  Timing and shard-balance
// numbers land in PipelineStats through reduce_seconds; the reference
// index is counted once (bytes and masked bases), whatever the number of
// slices or strands.
#pragma once

#include <vector>

#include "core/exec/plan.hpp"
#include "core/hit_sink.hpp"
#include "core/options.hpp"
#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "stats/karlin.hpp"

namespace scoris::core::exec {

/// One comparison, ready for planning.  `idx1` and `bank2` are required.
/// `idx1` is the reference (query-side) index; the engine reads bank1
/// from `idx1->bank()`.  It must have been built with the run's
/// effective word length (std::invalid_argument otherwise), stride 1,
/// and the run's DUST setting.
struct ExecRequest {
  const index::BankIndex* idx1 = nullptr;
  const seqio::SequenceBank* bank2 = nullptr;
  /// Bank2 sequence slices in processing order; empty = one whole-bank
  /// slice.  Must partition [0, bank2->size()) for exact results.
  std::vector<SliceRange> slices;
  Options options;
  /// Base Karlin-Altschul parameters (composition_stats re-solves per
  /// group from the actual bank compositions).
  stats::KarlinParams karlin;
  /// Reusable worker pool (a Session's); nullptr = a transient pool per
  /// scheduling point when `options.threads > 1`.
  util::ThreadPool* pool = nullptr;
  /// Optional per-query trace collector: the engine records spans for
  /// the index/scan/gapped/merge stages of every group (Chrome
  /// trace_event export via obs::TraceRecorder).  nullptr = no tracing,
  /// zero overhead on the scan path.
  obs::TraceRecorder* trace = nullptr;
};

/// What a run reports besides the alignments it streamed.
struct ExecSummary {
  PipelineStats stats;
  std::size_t groups = 0;  ///< (strand x slice) groups executed
  std::size_t slices = 0;  ///< bank2 slices in the plan
};

/// Compile and run the comparison, streaming alignments through `sink`
/// (at least one on_group call, then exactly one on_stats).  Throws
/// std::invalid_argument when `idx1`'s word length differs from the
/// options' effective W.
ExecSummary execute(const ExecRequest& request, HitSink& sink);

}  // namespace scoris::core::exec
