#include "api/sinks.hpp"

#include <ostream>
#include <string>

#include "compare/m8.hpp"

namespace scoris {

void M8Writer::on_group(std::span<const align::GappedAlignment> hits,
                        const HitBatch& batch) {
  // Same conversion + formatting path as compare::write_m8, so the byte
  // stream cannot drift from the collected-result writer.  Each row and
  // its newline are one write, so a stream that frames at write ends
  // (the daemon's ROWS) never splits a row.
  for (const align::GappedAlignment& a : hits) {
    std::string row =
        compare::format_m8(compare::to_m8(a, *batch.bank1, *batch.bank2));
    row += '\n';
    *os_ << row;
  }
  // A full disk or closed pipe puts the stream in a failed state without
  // throwing; silently dropping the rest of the run would hand the caller
  // a truncated m8 file and exit code 0.  Fail the query instead.
  if (!*os_) {
    throw SinkError("m8 output stream failed (disk full or closed pipe?)");
  }
  written_ += hits.size();
}

void Collector::on_group(std::span<const align::GappedAlignment> hits,
                         const HitBatch& /*batch*/) {
  result_.alignments.insert(result_.alignments.end(), hits.begin(),
                            hits.end());
}

void Collector::on_stats(const core::PipelineStats& stats) {
  result_.stats = stats;
}

void CountingSink::on_group(std::span<const align::GappedAlignment> hits,
                            const HitBatch& batch) {
  total_ += hits.size();
  ++batches_;
  saw_last_ |= batch.last;
}

void CountingSink::on_stats(const core::PipelineStats& stats) {
  stats_ = stats;
  have_stats_ = true;
}

}  // namespace scoris
