#include "core/chunked.hpp"

#include <algorithm>
#include <stdexcept>

namespace scoris::core {

std::size_t estimated_index_bytes(const seqio::SequenceBank& bank, int w) {
  const std::size_t dict =
      (std::size_t{1} << (2 * w)) * sizeof(std::int32_t);
  return bank.data_size() * (sizeof(std::int32_t) + 1) + dict;
}

seqio::SequenceBank slice_bank(const seqio::SequenceBank& bank,
                               std::size_t from, std::size_t to) {
  if (from > to || to > bank.size()) {
    throw std::invalid_argument("slice_bank: bad range");
  }
  seqio::SequenceBank out(bank.name() + "_slice");
  for (std::size_t i = from; i < to; ++i) {
    out.add_codes(bank.seq_name(i), bank.codes(i));
  }
  return out;
}

std::vector<exec::SliceRange> plan_budget_slices(
    std::size_t bank1_bytes, const seqio::SequenceBank& bank2,
    const ChunkedOptions& options) {
  // An empty bank yields the one documented empty slice and no budget
  // math at all — the general path below would otherwise feed size 0
  // into the chunk divisions.
  if (bank2.size() == 0) return {{0, 0}};

  const int w = options.pipeline.effective_w();
  const std::size_t bytes2 = estimated_index_bytes(bank2, w);

  std::size_t chunks = 1;
  if (bank1_bytes + bytes2 > options.memory_budget_bytes &&
      bank2.size() > 1) {
    // A budget at or below bank1's own footprint leaves no room for any
    // slice index; saturate to one byte of room, which degrades to the
    // finest legal cut (one sequence per slice) instead of dividing by
    // zero.  Sequences are never split, so this is the best the planner
    // can do — the engine still holds one slice index at a time.
    const std::size_t room = options.memory_budget_bytes > bank1_bytes
                                 ? options.memory_budget_bytes - bank1_bytes
                                 : 1;
    chunks = std::min<std::size_t>(bank2.size(),
                                   (bytes2 + room - 1) / room);
    chunks = std::max<std::size_t>(1, chunks);
  }
  chunks = std::max(chunks, std::max<std::size_t>(1, options.min_chunks));
  chunks = std::min(chunks, bank2.size());

  // per_chunk >= 1 because chunks <= bank2.size(); every emitted slice is
  // therefore non-empty and the loop always terminates.
  const std::size_t per_chunk = (bank2.size() + chunks - 1) / chunks;
  std::vector<exec::SliceRange> slices;
  slices.reserve(chunks);
  for (std::size_t from = 0; from < bank2.size(); from += per_chunk) {
    slices.push_back({from, std::min(bank2.size(), from + per_chunk)});
  }
  return slices;
}

}  // namespace scoris::core
