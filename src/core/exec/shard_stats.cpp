#include "core/exec/shard_stats.hpp"

#include <algorithm>

namespace scoris::core::exec {

ShardBalance reduce_seconds(std::vector<double> seconds) {
  ShardBalance b;
  b.shards = seconds.size();
  if (seconds.empty()) return b;
  for (const double s : seconds) b.total_seconds += s;
  std::sort(seconds.begin(), seconds.end());
  b.min_seconds = seconds.front();
  b.max_seconds = seconds.back();
  b.median_seconds = seconds[seconds.size() / 2];
  return b;
}

}  // namespace scoris::core::exec
