// SCORIS-N: the four-step ORIS pipeline (paper figure 1).
//
//   step 1  index both banks (optional DUST mask, optional stride-2
//           asymmetric indexing of bank2): the reference once, as 4^W
//           seed offsets + the positions of every word start grouped by
//           seed (index/bank_index.hpp); each bank2 group as its word
//           starts in (code, position) order under a fixed bucket table,
//           with no 4^W array (index/subject_index.hpp)
//   step 2  walk the seed codes bank2 holds in increasing order and look
//           each one up in the reference; for every occurrence pair run
//           the ordered ungapped extension; keep HSPs scoring >= S1 —
//           uniqueness comes from the order rule alone
//   step 3  gapped extension with diagonal-sorted containment dedup
//   step 4  e-value sort, m8 output
//
// Steps 2 and 3 parallelise exactly as the paper's section 4 sketches:
// the outer seed loop partitions by seed-code range (workers can never
// produce the same HSP thanks to the order rule), and step 3 partitions by
// subject sequence.  Results are deterministic and thread-count-invariant.
//
// The code lives in core/exec/: one engine (exec::execute) runs every
// comparison as an ExecutionPlan of (strand x bank2-slice x
// seed-code-range) shards and streams alignments through a HitSink
// (core/hit_sink.hpp).  scoris::Session (api/session.hpp) is the entry
// point: it indexes the reference once, keeps it resident across
// queries, and builds each query's engine request.  This header keeps
// the vocabulary shared by all of them: the per-run statistics and the
// collected result.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "align/records.hpp"
#include "core/exec/shard_stats.hpp"
#include "core/gapped_stage.hpp"

namespace scoris::core {

struct PipelineStats {
  double index_seconds = 0.0;
  double hsp_seconds = 0.0;     ///< step 2
  double gapped_seconds = 0.0;  ///< step 3
  double total_seconds = 0.0;

  std::size_t hit_pairs = 0;        ///< occurrence pairs examined
  std::size_t order_aborts = 0;     ///< extensions cut by the order rule
  std::size_t hsps = 0;             ///< HSPs above S1 (after dedup if any)
  std::size_t duplicate_hsps = 0;   ///< removed duplicates (order off only)
  std::size_t index_bytes = 0;      ///< both indexes
  // Index memory accounting (the ROADMAP's Mbp-scale probe): the
  // reference's O(4^W) seed offsets (the paper's dictionary) plus the
  // largest subject index's fixed bucket table, the O(N) per-word arrays
  // (the paper's INDEX; a subject adds one low-code byte per word above
  // W = 8) of both, and the bank positions they cover.
  // bytes/position = (positions arrays + positions) / positions — the
  // paper's ~5N counts the 4-byte INDEX entry plus the 1-byte SEQ code.
  std::size_t index_dict_bytes = 0;   ///< offset/bucket tables, both
  std::size_t index_chain_bytes = 0;  ///< per-word arrays, both
  std::size_t index_positions = 0;    ///< bank positions of both indexes
  std::size_t masked_bases = 0;     ///< DUST-masked positions, both banks
  std::size_t reference_masked_bases = 0;  ///< the reference's share
  /// Match-run kernel the step-2 extensions ran with ("scalar" or
  /// "avx2") — the dispatcher's pick, or scalar when forced by the
  /// Options knob / SCORIS_FORCE_SCALAR.
  const char* simd_kernel = "scalar";
  GappedStageStats gapped;
  std::size_t alignments = 0;
  // Delivery-path accounting (the sink-facing side of the engine).
  // peak_delivery_bytes covers both delivery paths: the streamed group
  // of a single-group plan, and retained runs + spill head blocks +
  // batch buffer (+ the incoming group at each handoff) for the
  // cross-group k-way merge.
  std::size_t peak_delivery_bytes = 0;
  std::size_t spilled_runs = 0;  ///< sorted runs sent to temp spill files
  std::size_t spill_bytes = 0;   ///< bytes written to spill files
  /// Step-2 shard wall-time spread over all (strand x slice) groups —
  /// scheduler balance at a glance (--stats prints min/median/max).
  exec::ShardBalance shard_balance;
  /// Per-group wall-time spreads for the other stages, one sample per
  /// (strand x slice) group, so stragglers are visible stage by stage:
  /// subject indexing and the gapped stage run group-at-a-time, which is
  /// the natural "shard" of those stages.
  exec::ShardBalance index_group_balance;
  exec::ShardBalance gapped_group_balance;

  /// Adds a one-time reference build to step 1 and the total: what a
  /// one-shot run reports, whose reference was indexed for its one query
  /// (Session::reference_build_seconds).
  void add_reference_build(double seconds) {
    index_seconds += seconds;
    total_seconds += seconds;
  }

  /// Folds in the stats of another run over the same reference, such as
  /// a plan group that the distributed coordinator ran through the
  /// engine.  Stage seconds and counters add.  Index memory, positions
  /// and peak delivery memory keep the larger, because both runs count
  /// the same reference and one subject index is resident at a time.
  /// Both runs count the reference's masked bases, so they count once.
  /// The wall-time spreads are not folded.
  PipelineStats& operator+=(const PipelineStats& run) {
    index_seconds += run.index_seconds;
    hsp_seconds += run.hsp_seconds;
    gapped_seconds += run.gapped_seconds;
    total_seconds += run.total_seconds;
    hit_pairs += run.hit_pairs;
    order_aborts += run.order_aborts;
    hsps += run.hsps;
    duplicate_hsps += run.duplicate_hsps;
    index_bytes = std::max(index_bytes, run.index_bytes);
    index_dict_bytes = std::max(index_dict_bytes, run.index_dict_bytes);
    index_chain_bytes = std::max(index_chain_bytes, run.index_chain_bytes);
    index_positions = std::max(index_positions, run.index_positions);
    masked_bases += run.masked_bases - reference_masked_bases;
    reference_masked_bases = run.reference_masked_bases;
    simd_kernel = run.simd_kernel;
    gapped += run.gapped;
    alignments += run.alignments;
    peak_delivery_bytes = std::max(peak_delivery_bytes, run.peak_delivery_bytes);
    spilled_runs += run.spilled_runs;
    spill_bytes += run.spill_bytes;
    return *this;
  }
};

struct Result {
  std::vector<align::GappedAlignment> alignments;
  PipelineStats stats;
};

}  // namespace scoris::core
