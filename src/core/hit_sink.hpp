// HitSink — the streaming consumer interface the exec engine drives.
//
// The interface lives in core/ (the engine layer that calls it); the
// shipped implementations and the rest of the public surface live in
// api/, which re-exposes this header.  Types are declared directly in
// namespace scoris because they ARE the public API's vocabulary.
//
// The paper bounds the pipeline's working set by index size (section
// 3.1's ~5N bytes per bank), and the exec engine already processes one
// (strand x bank2-slice) group at a time; accumulating every alignment
// into a std::vector before writing undoes that bound as soon as the hit
// count grows.  A HitSink lets the engine hand alignments onward the
// moment an ordered batch is final, so peak output memory tracks the
// batch size, not the total hit count.
//
// Delivery contract: on_group() is called with consecutive batches of
// the search's final alignment stream, in the canonical step-4 order
// (increasing e-value, ...) — each batch is internally in final order
// and wholly precedes later batches — followed by exactly one
// on_stats().  A single-group plan delivers its group the moment it
// finishes; a multi-group plan (both strands, budget-sliced bank2)
// waits for the cross-group spill-run k-way merge, because the globally
// best hit can come from the last group, and delivers its output in
// bounded batches (see core/exec/run_merge.hpp).  Batch boundaries are
// a function of the execution *plan* and the delivery budget alone:
// thread count, shard count, and schedule never change what a sink
// observes.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>

#include "align/records.hpp"

namespace scoris::seqio {
class SequenceBank;
}  // namespace scoris::seqio

namespace scoris::core {
struct PipelineStats;
}  // namespace scoris::core

namespace scoris {

/// A sink failed to deliver a batch (disk full, closed pipe, a network
/// peer that hung up).  Sinks throw this from on_group so the engine
/// unwinds the *query* — the run's RAII state (spill directories, worker
/// batches) is reclaimed, and the caller can tell a delivery failure
/// (CLI: exit 1 with a diagnostic; daemon: abort only that query) apart
/// from a pipeline bug.
class SinkError : public std::runtime_error {
 public:
  explicit SinkError(const std::string& what) : std::runtime_error(what) {}
};

/// Metadata accompanying one on_group delivery.  The bank pointers stay
/// valid for the duration of the search; the alignment span only for the
/// duration of the call.
struct HitBatch {
  const seqio::SequenceBank* bank1 = nullptr;  ///< query side (m8 qseqid)
  /// Subject side.  Alignments are already remapped to this bank's
  /// global coordinates whatever slice they came from; minus-strand hits
  /// carry the `minus` flag (compare::to_m8 converts for display).
  const seqio::SequenceBank* bank2 = nullptr;
  std::size_t index = 0;  ///< 0-based delivery index within this search
  bool last = false;      ///< true on the final on_group of the search
};

/// Streaming consumer driven by the exec engine.  Implementations ship
/// in api/sinks.hpp: M8Writer (stream m8 text), Collector (gather one
/// vector result), CountingSink (count without retaining).
class HitSink {
 public:
  virtual ~HitSink() = default;

  /// One ordered batch of final alignments (possibly empty — at least
  /// one call with last=true happens per search).
  virtual void on_group(std::span<const align::GappedAlignment> hits,
                        const HitBatch& batch) = 0;

  /// Called once per search, after the last on_group, with the engine's
  /// statistics for this run.  Default: ignore.
  virtual void on_stats(const core::PipelineStats& stats);
};

}  // namespace scoris
