// Per-layer metrics of the traced run (--trace 1).
//
// Every workload reports every per-layer metric.  A layer the workload's
// path does not reach reports 0 (counts and seconds alike), which is also
// the prediction for it: a change to the daemon cannot move est_pair.
#pragma once

#include <algorithm>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "blast/blastn.hpp"
#include "store/index_store.hpp"
#include "suite/common.hpp"
#include "suite/compose.hpp"

namespace scoris::perfbench {

using MetricList = std::vector<std::pair<const char*, const char*>>;

inline const MetricList kServiceLayer = {
    {"daemon.server_ms_p50", "ms"},   {"net.overhead_ms_p50", "ms"},
    {"loadgen.late_ms_p99", "ms"},    {"daemon.busy_refusals", "count"},
    {"loadgen.latency_p90_ms", "ms"}, {"loadgen.latency_p99_ms", "ms"},
};
inline const MetricList kDistLayer = {
    {"dist.pair_s", "s"},       {"dist.inproc_pair_s", "s"},
    {"dist.overhead_ratio", "ratio"}, {"dist.run_encode_s", "s"},
    {"dist.run_decode_s", "s"}, {"dist.wire_bytes", "bytes"},
    {"dist.remote_groups", "count"},
};
inline const MetricList kBlastLayer = {
    {"blast.pair_s", "s"},
    {"blast.search_s", "s"},
    {"paper.search_stage_speedup", "ratio"},
    {"paper.total_speedup", "ratio"},
};
inline const MetricList kThreadingLayer = {
    {"exec.t1_pair_s", "s"},
    {"exec.scaling_eff", "ratio"},
};

/// Report every metric of a layer this workload does not exercise as 0.
inline void report_unused(Report& r, const MetricList& layer) {
  for (const auto& [name, unit] : layer) r.metric(name, 0.0, unit);
}

/// One outside-in composed run: its layer totals, its whole wall time
/// (reference preparation included) and the part spent in search calls.
struct ComposedSample {
  LayerTotals totals;
  double wall_s = 0.0;
  double search_s = 0.0;
};

inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

template <typename Field>
double median_of(const std::vector<ComposedSample>& runs, Field field) {
  std::vector<double> v;
  v.reserve(runs.size());
  for (const ComposedSample& s : runs) v.push_back(field(s));
  return summarize(std::move(v)).median;
}

/// Engine-layer metrics from repeated composed runs: seconds are medians
/// over the repeats, counts come from the first (they repeat exactly).
/// `untraced_search_s` is Session::search's time for the same searches.
inline void report_engine_layers(Report& r,
                                 const std::vector<ComposedSample>& runs,
                                 double untraced_search_s) {
  const LayerTotals& t = runs.front().totals;
  const auto sec = [&](double LayerTotals::*field) {
    return median_of(runs, [field](const ComposedSample& s) {
      return s.totals.*field;
    });
  };
  const double wall = median_of(runs, [](const ComposedSample& s) {
    return s.wall_s;
  });
  const double scan_s = sec(&LayerTotals::scan_s);
  const auto count = [](std::size_t v) { return static_cast<double>(v); };

  r.metric("filter.dust_s", sec(&LayerTotals::filter_s), "s");
  r.metric("filter.masked_bases", count(t.masked_bases), "count");

  r.metric("index.build_s", sec(&LayerTotals::index_s), "s");
  r.metric("index.builds", count(t.index_builds), "count");
  r.metric("index.dict_bytes",
           count(t.ref_dict_bytes + t.peak_subject_dict_bytes), "bytes");
  r.metric("index.chain_bytes",
           count(t.ref_chain_bytes + t.peak_subject_chain_bytes), "bytes");
  r.metric("index.occ_bytes",
           count(t.ref_occ_bytes + t.peak_subject_occ_bytes), "bytes");
  r.metric("index.bytes_per_nt",
           ratio(count(t.ref_dict_bytes + t.ref_chain_bytes + t.ref_occ_bytes +
                       t.ref_seq_bytes),
                 count(t.reference_bases)),
           "bytes/nt");

  r.metric("plan.compile_s", sec(&LayerTotals::plan_s), "s");
  r.metric("plan.groups", count(t.groups), "count");
  r.metric("plan.shards", count(t.shards), "count");

  r.metric("scan.s", scan_s, "s");
  r.metric("scan.codes_visited", count(t.codes_visited), "count");
  r.metric("scan.hit_pairs", count(t.hit_pairs), "count");
  r.metric("scan.order_aborts", count(t.order_aborts), "count");
  r.metric("scan.hsps", count(t.hsps), "count");
  r.metric("scan.hsp_yield", ratio(count(t.hsps), count(t.hit_pairs)),
           "ratio");
  r.metric("scan.ns_per_pair", ratio(scan_s * 1e9, count(t.hit_pairs)), "ns");
  r.metric("scan.shard_max_over_median",
           median_of(runs,
                     [](const ComposedSample& s) {
                       const std::vector<double>& v = s.totals.shard_seconds;
                       if (v.empty()) return 0.0;
                       return ratio(*std::max_element(v.begin(), v.end()),
                                    summarize(v).median);
                     }),
           "ratio");

  r.metric("gapped.s", sec(&LayerTotals::gapped_s), "s");
  r.metric("gapped.hsps_in", count(t.gapped.hsps_in), "count");
  r.metric("gapped.extensions", count(t.gapped.gapped_extensions), "count");
  r.metric("gapped.skipped_contained", count(t.gapped.skipped_contained),
           "count");
  r.metric("gapped.below_cutoff", count(t.gapped.below_cutoff), "count");
  r.metric("gapped.yield",
           ratio(count(t.alignments), count(t.gapped.gapped_extensions)),
           "ratio");
  r.metric("gapped.share",
           median_of(runs,
                     [](const ComposedSample& s) {
                       return ratio(s.totals.gapped_s, s.wall_s);
                     }),
           "ratio");

  r.metric("merge.s", sec(&LayerTotals::merge_s), "s");
  r.metric("merge.runs", count(t.merge.runs), "count");
  r.metric("merge.spilled_runs", count(t.merge.spilled_runs), "count");
  r.metric("merge.spill_bytes", count(t.merge.spill_bytes), "bytes");
  r.metric("merge.peak_bytes", count(t.merge.peak_delivery_bytes), "bytes");

  r.metric("m8.format_s", sec(&LayerTotals::m8_s), "s");
  r.metric("m8.rows", count(t.m8_rows), "count");
  r.metric("m8.bytes", count(t.m8_bytes), "bytes");

  const double stage_frac = median_of(runs, [](const ComposedSample& s) {
    return ratio(s.totals.stage_sum(), s.wall_s);
  });
  r.metric("composed.pair_s", wall, "s");
  r.metric("composed.stage_sum_frac", stage_frac, "ratio");
  r.check(stage_frac > 0.9 && stage_frac < 1.1,
          "composed stage seconds sum to within 10% of the composed wall "
          "time");
  r.metric("trace.overhead_frac",
           ratio(median_of(runs, [](const ComposedSample& s) {
                   return s.search_s;
                 }),
                 untraced_search_s) -
               1.0,
           "ratio");
}

/// The store layer on the workload's reference: build and write a .scix
/// (write_index_file indexes the bank, so save includes one index build),
/// then load it back.
inline void report_store(Report& r, const seqio::SequenceBank& reference,
                         const core::Options& options,
                         const std::string& path) {
  store::IndexKey key;
  key.w = options.effective_w();
  key.dust = options.dust;
  key.dust_params = options.dust_params;
  util::WallTimer save;
  store::write_index_file(path, reference, std::span(&key, 1));
  const double save_s = save.seconds();
  util::WallTimer load;
  const store::IndexStore loaded = store::load_index(path);
  const double load_s = load.seconds();
  r.check(loaded.bank().total_bases() == reference.total_bases() &&
              loaded.find(key) != nullptr,
          "the .scix store round-trips the reference");
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  r.metric("store.save_s", save_s, "s");
  r.metric("store.load_s", load_s, "s");
  r.metric("store.bytes", static_cast<double>(file.tellg()), "bytes");
}

/// The paper's comparator on the same banks, against the composed
/// one-shot SCORIS run (reference preparation included on both sides).
inline void report_blast(Report& r, const seqio::SequenceBank& bank1,
                         const seqio::SequenceBank& bank2,
                         const core::Options& options,
                         const std::vector<ComposedSample>& runs) {
  blast::BlastOptions bopt;
  bopt.threads = options.threads;
  bopt.strand = options.strand;
  util::WallTimer wall;
  const blast::BlastResult result = blast::BlastN(bopt).run(bank1, bank2);
  const double pair_s = wall.seconds();
  const double search_s =
      result.stats.index_seconds + result.stats.scan_seconds;
  const double scoris_search_s = median_of(runs, [](const ComposedSample& s) {
    return s.totals.filter_s + s.totals.index_s + s.totals.plan_s +
           s.totals.scan_s;
  });
  const double scoris_pair_s = median_of(runs, [](const ComposedSample& s) {
    return s.wall_s;
  });
  r.metric("blast.pair_s", pair_s, "s");
  r.metric("blast.search_s", search_s, "s");
  r.metric("paper.search_stage_speedup", ratio(search_s, scoris_search_s),
           "ratio");
  r.metric("paper.total_speedup", ratio(pair_s, scoris_pair_s), "ratio");
}

}  // namespace scoris::perfbench
