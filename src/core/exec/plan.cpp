#include "core/exec/plan.hpp"

#include <algorithm>

namespace scoris::core::exec {

std::vector<SeedRange> split_seed_ranges(const index::BankIndex& idx1,
                                         std::size_t shards,
                                         std::vector<std::size_t>* weights) {
  const auto num_codes = static_cast<std::size_t>(idx1.coder().num_seeds());
  std::vector<SeedRange> ranges;
  std::vector<std::size_t> range_weights;
  shards = std::min(std::max<std::size_t>(1, shards), num_codes);

  if (shards <= 1) {
    ranges.push_back({0, static_cast<index::SeedCode>(num_codes)});
    range_weights.push_back(idx1.total_indexed());
    if (weights != nullptr) *weights = std::move(range_weights);
    return ranges;
  }

  // Bucket granularity: enough resolution to split evenly, bounded so the
  // histogram stays cheap next to the scan it is balancing.
  const std::size_t buckets =
      std::min(num_codes, std::max<std::size_t>(shards * 32, 1024));
  const std::vector<std::size_t> hist = idx1.occupancy_histogram(buckets);
  const std::size_t codes_per_bucket = (num_codes + buckets - 1) / buckets;
  std::size_t total = 0;
  for (const std::size_t h : hist) total += h;

  if (total == 0) {
    // Nothing indexed: fall back to a uniform code split (the scan is all
    // dictionary probes, which cost the same per code).
    const std::size_t step = (num_codes + shards - 1) / shards;
    for (std::size_t lo = 0; lo < num_codes; lo += step) {
      ranges.push_back({static_cast<index::SeedCode>(lo),
                        static_cast<index::SeedCode>(
                            std::min(num_codes, lo + step))});
      range_weights.push_back(0);
    }
    if (weights != nullptr) *weights = std::move(range_weights);
    return ranges;
  }

  // Walk the histogram once, cutting a shard whenever the running
  // occupancy reaches the next multiple of total/shards.  Boundaries land
  // on bucket edges; when one bucket is heavier than a whole target the
  // satisfied cuts collapse, yielding fewer, heavier shards.
  std::size_t lo_bucket = 0;
  std::size_t running = 0;
  std::size_t weight = 0;
  std::size_t cut = 1;
  for (std::size_t b = 0; b < hist.size(); ++b) {
    running += hist[b];
    weight += hist[b];
    const bool last = b + 1 == hist.size();
    if (!last && running * shards < cut * total) continue;
    const std::size_t lo = lo_bucket * codes_per_bucket;
    const std::size_t hi =
        last ? num_codes : std::min(num_codes, (b + 1) * codes_per_bucket);
    if (hi > lo) {
      ranges.push_back({static_cast<index::SeedCode>(lo),
                        static_cast<index::SeedCode>(hi)});
      range_weights.push_back(weight);
    }
    lo_bucket = b + 1;
    weight = 0;
    while (cut * total <= running * shards) ++cut;
  }

  // A run of trailing empty buckets leaves one weightless range; fold it
  // into its predecessor so every returned range carries work.
  if (ranges.size() > 1 && range_weights.back() == 0) {
    ranges[ranges.size() - 2].hi = ranges.back().hi;
    ranges.pop_back();
    range_weights.pop_back();
  }
  if (weights != nullptr) *weights = std::move(range_weights);
  return ranges;
}

std::vector<ShardGroup> plan_groups(seqio::Strand strand,
                                    const std::vector<SliceRange>& slices,
                                    std::size_t bank2_size) {
  const std::vector<SliceRange> whole{{0, bank2_size}};
  const bool plus = strand != seqio::Strand::kMinus;
  const bool minus = strand != seqio::Strand::kPlus;
  std::vector<ShardGroup> groups;
  for (const SliceRange& slice : slices.empty() ? whole : slices) {
    for (const bool is_minus : {false, true}) {
      if (is_minus ? !minus : !plus) continue;
      ShardGroup group;
      group.minus = is_minus;
      group.slice = slice;
      groups.push_back(group);
    }
  }
  return groups;
}

ExecutionPlan compile_plan(const index::BankIndex& idx1,
                           const PlanRequest& request) {
  ExecutionPlan plan;
  plan.threads = std::max(1, request.threads);
  plan.schedule = request.schedule;

  std::size_t shards = request.shards;
  if (shards == 0) {
    shards = plan.threads <= 1
                 ? 1
                 : static_cast<std::size_t>(plan.threads) * 8;
  }
  const std::vector<SeedRange> ranges = split_seed_ranges(idx1, shards);

  plan.groups =
      plan_groups(request.strand, request.slices, request.bank2_size);
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    ShardGroup& group = plan.groups[g];
    group.first_shard = plan.shards.size();
    group.shard_count = ranges.size();
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      plan.shards.push_back({static_cast<std::uint32_t>(g), ranges[r]});
    }
  }
  return plan;
}

}  // namespace scoris::core::exec
