// Reduction of per-shard and per-group stage wall times into the
// balance summary (min/median/max) that makes scheduler imbalance
// visible from --stats without a profiler.  The engine records one wall
// time per shard into a slot indexed by its plan position, so the
// samples do not depend on which worker ran which shard.
#pragma once

#include <cstddef>
#include <vector>

namespace scoris::core::exec {

/// Reduced spread of shard wall times, embedded in core::PipelineStats.
struct ShardBalance {
  std::size_t shards = 0;
  double min_seconds = 0.0;
  double median_seconds = 0.0;
  double max_seconds = 0.0;
  double total_seconds = 0.0;  ///< sum over shards (CPU-seconds of step 2)
};

/// Reduce raw wall-time samples into a ShardBalance.  Shared by the
/// step-2 shards and the engine's per-group stage timings, so every
/// min/median/max in --stats comes from one definition.
[[nodiscard]] ShardBalance reduce_seconds(std::vector<double> seconds);

}  // namespace scoris::core::exec
