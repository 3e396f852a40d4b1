// Spill-run k-way merge — bounded-memory delivery for multi-group
// plans.
//
// Every finished (strand x bank2-slice) group leaves the gapped stage
// already in final step4_less order, so it is a sorted *run* of the
// global output stream.  The engine used to concatenate all runs into
// one vector and re-sort before the single delivery, holding the whole
// hit set in memory — exactly the unbounded path the HitSink redesign
// was meant to eliminate.  RunMerger replaces that accumulator:
//
//   add_run   keeps the run in memory while the retained total fits the
//             delivery budget, and otherwise serializes it to a
//             CRC-framed temp file (the store/format section helpers)
//             in bounded blocks;
//   merge     streams the canonical global order through the sink with
//             a head-buffer heap across all run cursors — spilled runs
//             are read back one block at a time, so peak delivery
//             memory is O(batch + runs x head) instead of O(total).
//
// The merge is a *stable* k-way merge (ties break on run index, i.e.
// plan order), so its output is a deterministic refinement of the old
// sort-based collector path; m8 bytes are identical because step4_less
// orders every field the display depends on ahead of the tie break.
//
// Budget split: a budget of B bytes admits B/2 of retained in-memory
// runs, B/4 of spilled-run head blocks, and B/4 of delivery batch —
// each with a one-element floor, so the hard minimum is a few
// alignments per live run.  Budget 0 means unbounded: nothing spills
// and the merge degenerates to an in-memory heap merge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "align/records.hpp"
#include "core/hit_sink.hpp"

namespace scoris::core::exec {

/// Delivery-path accounting a merge reports back to the engine.
struct MergeStats {
  std::size_t runs = 0;          ///< sorted runs added
  std::size_t spilled_runs = 0;  ///< runs serialized to temp files
  std::size_t spill_bytes = 0;   ///< bytes written to spill files
  std::size_t batches = 0;       ///< on_group deliveries made by merge()
  /// Peak bytes the delivery path held at once: in-memory runs +
  /// spilled-run head blocks + the outgoing batch buffer, and during
  /// each add_run the incoming group buffer itself (the same buffer a
  /// single-group plan streams, so the stat is comparable across plans).
  /// The budget bounds everything but that transient handoff buffer,
  /// whose size is the producer's: the largest group.
  std::size_t peak_delivery_bytes = 0;
};

struct RunMergeConfig {
  /// Delivery-path budget in bytes; 0 = unbounded (never spill).
  std::size_t budget_bytes = 0;
  /// Parent directory for the merger's private 0700 mkdtemp spill
  /// directory; empty = std::filesystem::temp_directory_path().
  std::string tmp_dir;
};

/// Serialize one sorted run as a versioned spill-run stream: header,
/// one RHDR section (count + block size), then RUNB sections of at most
/// `block_elems` alignments each, every section CRC-framed by the
/// store/format helpers.  Returns the bytes written.  Exposed (with
/// SpillRunReader) so tests can corrupt and truncate runs directly.
std::uint64_t write_spill_run(std::ostream& os,
                              std::span<const align::GappedAlignment> run,
                              std::size_t block_elems);

/// Reads a spill run back one block at a time — the bounded head buffer
/// of the merge.  Construction validates the header; every block read
/// validates its section CRC and the running element count against the
/// RHDR total, so a flipped bit or a truncated file throws
/// std::runtime_error naming the failing section instead of merging
/// garbage into the output stream.
///
/// The reader does not hold the stream: next_block() takes it and seeks
/// to its own recorded offset first when the stream is seekable and
/// positioned elsewhere, so the merge can close a spill file between
/// blocks and reopen on demand — many-group spill-heavy plans must not
/// hold one fd per run for the whole merge (RLIMIT_NOFILE).  On a
/// non-seekable stream (tellg() == -1, e.g. a socket-backed streambuf
/// carrying a remote worker's run) the reader consumes blocks strictly
/// sequentially and never seeks, so the same validation applies to wire
/// bytes and temp files alike.
class SpillRunReader {
 public:
  /// Reads and validates the header from `is` (positioned at the run's
  /// start) and records the first block's offset.
  SpillRunReader(std::istream& is, std::string what);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t block_elems() const { return block_elems_; }

  /// The next block of alignments, read from `is` (any stream over the
  /// same bytes; the reader seeks to its offset).  Empty exactly when
  /// the run's total has been delivered.  Throws std::runtime_error on
  /// corruption, truncation, or a block count disagreeing with the
  /// header.
  [[nodiscard]] std::vector<align::GappedAlignment> next_block(
      std::istream& is);

 private:
  std::string what_;
  std::uint64_t total_ = 0;
  std::uint64_t block_elems_ = 0;
  std::uint64_t read_ = 0;
  std::streamoff offset_ = 0;  ///< where the next unread block starts
};

/// The engine-facing merger: collect sorted runs (spilling over budget),
/// then stream the merged canonical order through a HitSink in batches.
class RunMerger {
 public:
  /// `expected_runs` (the plan's group count) sizes the spill blocks so
  /// that all head buffers together stay within the budget's head share.
  RunMerger(RunMergeConfig config, std::size_t expected_runs);
  ~RunMerger();
  RunMerger(const RunMerger&) = delete;
  RunMerger& operator=(const RunMerger&) = delete;

  /// Append one run in final step4_less order (ownership taken; empty
  /// runs are dropped).  Spills when retaining the run would push the
  /// in-memory total over the budget's run share.  Ties in the merge
  /// break on insertion order (the engine adds runs in plan order).
  void add_run(std::vector<align::GappedAlignment>&& run);

  /// Same, with an explicit tie-break key: the merge orders full-step4
  /// ties by ascending `order` instead of insertion order.  This is what
  /// lets a distributed coordinator add runs as remote workers finish
  /// them — out of plan order — and still merge byte-identically to the
  /// sequential engine, which would have added them in plan order.
  /// Orders must be unique across the runs added to one merger.
  void add_run(std::vector<align::GappedAlignment>&& run,
               std::size_t order);

  /// Stream the merged global order into `sink` as consecutive batches
  /// (at least one; the final batch carries HitBatch::last).  `batch`
  /// supplies the bank pointers and the starting delivery index, which
  /// is advanced per delivery.  Returns the alignments emitted.
  std::size_t merge(HitSink& sink, HitBatch batch);

  [[nodiscard]] const MergeStats& stats() const { return stats_; }

 private:
  struct Run {
    std::vector<align::GappedAlignment> mem;  ///< in-memory run or head block
    std::size_t pos = 0;                      ///< cursor within `mem`
    std::string path;   ///< spill file; empty = in-memory run
    std::size_t order = 0;  ///< merge tie-break key (plan-group order)
  };

  void track_peak(std::size_t batch_capacity);
  /// Path for the next spill file, creating the merger's private 0700
  /// mkdtemp directory under the configured tmp_dir on first use.
  std::string next_spill_path();

  RunMergeConfig config_;
  std::size_t block_elems_ = 0;  ///< spill block size (elements)
  std::string spill_dir_;        ///< private mkdtemp dir ("" until needed)
  std::uint64_t spill_seq_ = 0;  ///< file counter within spill_dir_
  std::vector<Run> runs_;
  std::size_t retained_bytes_ = 0;  ///< live in-memory run bytes
  std::size_t head_bytes_ = 0;      ///< live spilled head-block bytes
  MergeStats stats_;
};

}  // namespace scoris::core::exec
