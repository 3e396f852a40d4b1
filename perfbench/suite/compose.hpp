// The traced run's outside-in composition of the search engine.
//
// Composer performs the same steps as core::exec::execute, but by calling
// each layer's public entry point itself — filter::dust_mask,
// index::BankIndex, exec::compile_plan, core::scan_seed_range per shard on
// util::run_tasks, core::gapped_stage, exec::RunMerger and compare::to_m8 /
// format_m8 — with a span and a timer around every call.  That yields
// per-layer seconds and counts without any instrumentation inside the
// program.  The m8 bytes must equal Session::search's for the same input;
// the harness checks that on every traced run, so a drift between this
// copy of the engine's wiring and the engine shows up as a failure.
//
// This file goes away once the engine records its own per-stage numbers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "align/simd/kernel_dispatch.hpp"
#include "compare/m8.hpp"
#include "core/chunked.hpp"
#include "core/exec/plan.hpp"
#include "core/exec/run_merge.hpp"
#include "core/gapped_stage.hpp"
#include "core/options.hpp"
#include "core/ordered_extend.hpp"
#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "obs/trace.hpp"
#include "seqio/strand.hpp"
#include "stats/karlin.hpp"
#include "util/threading.hpp"
#include "util/timer.hpp"

namespace scoris::perfbench {

/// Per-layer seconds and counts of composed searches, summed over calls.
/// Seconds are self times: the merge layer excludes the m8 formatting
/// that runs inside it.
struct LayerTotals {
  double filter_s = 0.0;
  double index_s = 0.0;
  double plan_s = 0.0;
  double scan_s = 0.0;
  double gapped_s = 0.0;
  double merge_s = 0.0;
  double m8_s = 0.0;

  std::size_t masked_bases = 0;
  std::size_t index_builds = 0;
  std::size_t reference_bases = 0;
  /// Reference index plus the largest subject index: what is resident at
  /// once, as the engine accounts it.
  std::size_t ref_dict_bytes = 0;
  std::size_t ref_chain_bytes = 0;
  std::size_t ref_occ_bytes = 0;
  std::size_t ref_seq_bytes = 0;
  std::size_t peak_subject_dict_bytes = 0;
  std::size_t peak_subject_chain_bytes = 0;
  std::size_t peak_subject_occ_bytes = 0;

  std::size_t groups = 0;
  std::size_t shards = 0;
  std::size_t codes_visited = 0;
  std::size_t hit_pairs = 0;
  std::size_t order_aborts = 0;
  std::size_t hsps = 0;
  std::vector<double> shard_seconds;

  core::GappedStageStats gapped;
  std::size_t alignments = 0;

  core::exec::MergeStats merge;

  std::size_t m8_rows = 0;
  std::size_t m8_bytes = 0;

  [[nodiscard]] double stage_sum() const {
    return filter_s + index_s + plan_s + scan_s + gapped_s + merge_s + m8_s;
  }
};

/// A span at one layer boundary whose duration is also added to that
/// layer's total.
class LayerSpan {
 public:
  LayerSpan(obs::TraceRecorder* trace, const char* layer, std::string group,
            double& total)
      : total_(total), span_(trace, layer, std::move(group)) {}
  ~LayerSpan() { total_ += timer_.seconds(); }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  double& total_;
  util::WallTimer timer_;
  obs::Span span_;
};

/// Formats delivered batches into m8 text exactly as M8Writer does,
/// timing the formatting as the m8 layer.
class M8Text final : public HitSink {
 public:
  M8Text(obs::TraceRecorder* trace, LayerTotals& totals)
      : trace_(trace), totals_(totals) {}

  void on_group(std::span<const align::GappedAlignment> hits,
                const HitBatch& batch) override {
    LayerSpan span(trace_, "m8", "", totals_.m8_s);
    for (const align::GappedAlignment& a : hits) {
      text_ +=
          compare::format_m8(compare::to_m8(a, *batch.bank1, *batch.bank2));
      text_ += '\n';
    }
    totals_.m8_rows += hits.size();
  }

  [[nodiscard]] std::string take() {
    totals_.m8_bytes += text_.size();
    return std::move(text_);
  }

 private:
  obs::TraceRecorder* trace_;
  LayerTotals& totals_;
  std::string text_;
};

class Composer {
 public:
  /// Prepare the reference as a Session does: DUST mask, then index.
  Composer(const seqio::SequenceBank& reference, core::Options options,
           obs::TraceRecorder* trace, LayerTotals& totals)
      : ref_(reference),
        options_(std::move(options)),
        coder_(options_.effective_w()),
        karlin_(stats::karlin_match_mismatch(options_.scoring.match,
                                             options_.scoring.mismatch)),
        trace_(trace),
        totals_(totals) {
    // The engine's ablation and composition-statistics paths are not
    // mirrored here; no workload uses them.
    if (!options_.enforce_order || options_.composition_stats) {
      throw std::invalid_argument("Composer: unsupported options");
    }
    if (options_.threads > 1) {
      pool_ = std::make_unique<util::ThreadPool>(
          static_cast<std::size_t>(options_.threads));
    }
    filter::MaskBitmap mask;
    index::IndexOptions iopt;
    if (options_.dust) {
      LayerSpan span(trace_, "filter", "reference", totals_.filter_s);
      mask = filter::dust_mask(ref_, options_.dust_params);
      iopt.mask = &mask;
    }
    {
      LayerSpan span(trace_, "index", "reference", totals_.index_s);
      idx1_.emplace(ref_, coder_, iopt);
    }
    totals_.index_builds += 1;
    totals_.masked_bases += idx1_->masked_bases();
    totals_.reference_bases = ref_.total_bases();
    totals_.ref_dict_bytes = idx1_->dictionary_bytes();
    totals_.ref_chain_bytes = idx1_->chain_bytes();
    totals_.ref_occ_bytes = idx1_->occurrence_bytes();
    totals_.ref_seq_bytes = ref_.data_size() * sizeof(seqio::Code);
  }

  /// Compare the reference against `bank2` cut into `slices` (empty = the
  /// whole bank) and return the m8 bytes.  When `runs` is given, each
  /// group's sorted run is copied into it in plan order.
  std::string search(
      const seqio::SequenceBank& bank2,
      const std::vector<core::exec::SliceRange>& slices = {},
      std::vector<std::vector<align::GappedAlignment>>* runs = nullptr) {
    M8Text sink(trace_, totals_);
    core::exec::ExecutionPlan plan;
    {
      LayerSpan span(trace_, "plan", "", totals_.plan_s);
      core::exec::PlanRequest preq;
      preq.strand = options_.strand;
      preq.slices = slices;
      preq.bank2_size = bank2.size();
      preq.threads = options_.threads;
      preq.shards = options_.shards;
      preq.schedule = options_.schedule;
      plan = core::exec::compile_plan(*idx1_, preq);
    }
    totals_.groups += plan.groups.size();
    totals_.shards += plan.shards.size();

    // A lone group is already in final order and is delivered directly;
    // several go through the k-way merge, as in the engine.
    const bool stream = plan.groups.size() <= 1;
    std::optional<core::exec::RunMerger> merger;
    if (!stream) {
      core::exec::RunMergeConfig mcfg;
      mcfg.budget_bytes = options_.delivery_budget_bytes;
      mcfg.tmp_dir = options_.tmp_dir;
      merger.emplace(std::move(mcfg), plan.groups.size());
    }

    core::SeedScanParams scan;
    scan.scoring = options_.scoring;
    scan.min_hsp_score = options_.min_hsp_score;
    scan.enforce_order = true;
    scan.kernel = &align::simd::select(options_.force_scalar_kernel);

    std::optional<seqio::SequenceBank> sliced;
    core::exec::SliceRange sliced_range{0, 0};
    for (std::uint32_t gid = 0; gid < plan.groups.size(); ++gid) {
      const core::exec::ShardGroup& group = plan.groups[gid];
      std::string label = "g";
      label += std::to_string(gid);
      label += group.minus ? '-' : '+';
      const bool whole =
          group.slice.from == 0 && group.slice.to == bank2.size();

      // Subject bank: the slice, reverse-complemented for minus groups.
      std::optional<seqio::SequenceBank> rc;
      {
        LayerSpan span(trace_, "index", label + " subject", totals_.index_s);
        if (!whole && (!sliced.has_value() ||
                       sliced_range.from != group.slice.from ||
                       sliced_range.to != group.slice.to)) {
          sliced = core::slice_bank(bank2, group.slice.from, group.slice.to);
          sliced_range = group.slice;
        }
        if (group.minus) {
          rc = seqio::reverse_complement(whole ? bank2 : *sliced);
        }
      }
      const seqio::SequenceBank& forward = whole ? bank2 : *sliced;
      const seqio::SequenceBank& subject = group.minus ? *rc : forward;

      filter::MaskBitmap mask2;
      index::IndexOptions iopt2;
      if (options_.dust) {
        LayerSpan span(trace_, "filter", label, totals_.filter_s);
        mask2 = filter::dust_mask(subject, options_.dust_params);
        iopt2.mask = &mask2;
      }
      if (options_.asymmetric) iopt2.stride = 2;
      std::optional<index::BankIndex> idx2;
      {
        LayerSpan span(trace_, "index", label, totals_.index_s);
        idx2.emplace(subject, coder_, iopt2);
      }
      note_subject_index(*idx2);

      std::vector<align::Hsp> hsps;
      {
        LayerSpan span(trace_, "scan", label, totals_.scan_s);
        std::vector<core::SeedScanResult> partials(group.shard_count);
        std::vector<double> seconds(group.shard_count, 0.0);
        const auto run_shard = [&](std::size_t s) {
          const core::exec::Shard& shard = plan.shards[group.first_shard + s];
          util::WallTimer timer;
          core::scan_seed_range(*idx1_, *idx2, scan, shard.codes.lo,
                                shard.codes.hi, partials[s]);
          seconds[s] = timer.seconds();
        };
        if (pool_ != nullptr) {
          util::run_tasks(*pool_, group.shard_count, plan.schedule, run_shard);
        } else {
          util::run_tasks(group.shard_count,
                          static_cast<std::size_t>(plan.threads),
                          plan.schedule, run_shard);
        }
        // Ascending code-range order reproduces the sequential scan.
        for (core::SeedScanResult& p : partials) {
          hsps.insert(hsps.end(), p.hsps.begin(), p.hsps.end());
          totals_.hit_pairs += p.hit_pairs;
          totals_.order_aborts += p.order_aborts;
        }
        totals_.shard_seconds.insert(totals_.shard_seconds.end(),
                                     seconds.begin(), seconds.end());
      }
      totals_.hsps += hsps.size();
      totals_.codes_visited += static_cast<std::size_t>(coder_.num_seeds());

      std::vector<align::GappedAlignment> alignments;
      {
        LayerSpan span(trace_, "gapped", label, totals_.gapped_s);
        core::GappedStageOptions gopt;
        gopt.scoring = options_.scoring;
        gopt.max_evalue = options_.max_evalue;
        gopt.max_gap_extent = options_.max_gap_extent;
        gopt.threads = options_.threads;
        gopt.pool = pool_.get();
        core::GappedStageStats gs;
        alignments =
            core::gapped_stage(hsps, ref_, subject, karlin_, gopt, &gs);
        totals_.gapped.hsps_in += gs.hsps_in;
        totals_.gapped.skipped_contained += gs.skipped_contained;
        totals_.gapped.gapped_extensions += gs.gapped_extensions;
        totals_.gapped.below_cutoff += gs.below_cutoff;
        totals_.gapped.exact_duplicates += gs.exact_duplicates;
        // Back to bank2-global coordinates; minus display happens at m8.
        for (align::GappedAlignment& a : alignments) {
          if (group.minus) a.minus = true;
          if (!whole) {
            const std::size_t orig_seq = a.seq2 + group.slice.from;
            const seqio::Pos delta_src = subject.offset(a.seq2);
            const seqio::Pos delta_dst = bank2.offset(orig_seq);
            a.seq2 = static_cast<std::uint32_t>(orig_seq);
            a.s2 = a.s2 - delta_src + delta_dst;
            a.e2 = a.e2 - delta_src + delta_dst;
          }
        }
      }
      totals_.alignments += alignments.size();
      if (runs != nullptr) runs->push_back(alignments);

      HitBatch batch;
      batch.bank1 = &ref_;
      batch.bank2 = &bank2;
      if (stream) {
        batch.last = true;
        sink.on_group(alignments, batch);
      } else {
        LayerSpan span(trace_, "merge", label, totals_.merge_s);
        merger->add_run(std::move(alignments));
      }
    }

    if (merger.has_value()) {
      const double m8_before = totals_.m8_s;
      double merge_span_s = 0.0;
      {
        LayerSpan span(trace_, "merge", "global", merge_span_s);
        HitBatch batch;
        batch.bank1 = &ref_;
        batch.bank2 = &bank2;
        merger->merge(sink, batch);
      }
      totals_.merge_s += merge_span_s - (totals_.m8_s - m8_before);
      const core::exec::MergeStats& ms = merger->stats();
      totals_.merge.runs += ms.runs;
      totals_.merge.spilled_runs += ms.spilled_runs;
      totals_.merge.spill_bytes += ms.spill_bytes;
      totals_.merge.batches += ms.batches;
      totals_.merge.peak_delivery_bytes =
          std::max(totals_.merge.peak_delivery_bytes, ms.peak_delivery_bytes);
    }
    return sink.take();
  }

 private:
  void note_subject_index(const index::BankIndex& idx2) {
    totals_.index_builds += 1;
    totals_.masked_bases += idx2.masked_bases();
    totals_.peak_subject_dict_bytes =
        std::max(totals_.peak_subject_dict_bytes, idx2.dictionary_bytes());
    totals_.peak_subject_chain_bytes =
        std::max(totals_.peak_subject_chain_bytes, idx2.chain_bytes());
    totals_.peak_subject_occ_bytes =
        std::max(totals_.peak_subject_occ_bytes, idx2.occurrence_bytes());
  }

  const seqio::SequenceBank& ref_;
  core::Options options_;
  index::SeedCoder coder_;
  stats::KarlinParams karlin_;
  obs::TraceRecorder* trace_;
  LayerTotals& totals_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::optional<index::BankIndex> idx1_;
};

}  // namespace scoris::perfbench
