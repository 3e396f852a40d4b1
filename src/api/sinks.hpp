// Shipped HitSink implementations.
//
//   M8Writer     stream BLAST -m 8 lines to an ostream as batches arrive
//                (byte-identical to compare::write_m8 on the same
//                alignments, without ever retaining them);
//   Collector    gather every batch plus the final stats into a
//                core::Result;
//   CountingSink count alignments and batches without retaining them
//                (smoke tests, dashboards, capacity probes).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <utility>

#include "core/hit_sink.hpp"
#include "core/pipeline.hpp"

namespace scoris {

/// Streams m8 lines as alignments arrive; the byte stream equals
/// compare::write_m8 of the collected result.  Each line, newline
/// included, is one write to the stream.  A stream that enters a
/// failed state (disk full, closed pipe) raises SinkError from on_group,
/// aborting the query instead of truncating its output; an exception
/// the stream's mask lets through (the daemon's NetError) propagates as
/// itself.
class M8Writer final : public HitSink {
 public:
  explicit M8Writer(std::ostream& os) : os_(&os) {}

  void on_group(std::span<const align::GappedAlignment> hits,
                const HitBatch& batch) override;

  /// Lines written so far.
  [[nodiscard]] std::size_t written() const { return written_; }

 private:
  std::ostream* os_;
  std::size_t written_ = 0;
};

/// Collects every batch into a core::Result (Session::search_collect,
/// and the distributed coordinator and worker, which ship whole groups).
class Collector final : public HitSink {
 public:
  void on_group(std::span<const align::GappedAlignment> hits,
                const HitBatch& batch) override;
  void on_stats(const core::PipelineStats& stats) override;

  [[nodiscard]] const core::Result& result() const { return result_; }
  [[nodiscard]] core::Result take() { return std::move(result_); }

 private:
  core::Result result_;
};

/// Counts without retaining.
class CountingSink final : public HitSink {
 public:
  void on_group(std::span<const align::GappedAlignment> hits,
                const HitBatch& batch) override;
  void on_stats(const core::PipelineStats& stats) override;

  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t batches() const { return batches_; }
  [[nodiscard]] bool saw_last() const { return saw_last_; }
  [[nodiscard]] bool have_stats() const { return have_stats_; }
  [[nodiscard]] const core::PipelineStats& stats() const { return stats_; }

 private:
  std::size_t total_ = 0;
  std::size_t batches_ = 0;
  bool saw_last_ = false;
  bool have_stats_ = false;
  core::PipelineStats stats_;
};

}  // namespace scoris
