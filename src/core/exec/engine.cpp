#include "core/exec/engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "align/simd/kernel_dispatch.hpp"
#include "core/chunked.hpp"
#include "core/exec/run_merge.hpp"
#include "core/ordered_extend.hpp"
#include "filter/dust.hpp"
#include "index/subject_index.hpp"
#include "obs/metrics.hpp"
#include "seqio/strand.hpp"
#include "util/threading.hpp"
#include "util/timer.hpp"

namespace scoris::core::exec {
namespace {

/// Engine-level metrics: volumes only (shards and groups executed); the
/// increments happen once per shard/group in the engine driver, never
/// inside scan_seed_range, so the hot scan loop stays lock- and
/// atomic-free.
struct EngineMetrics {
  obs::Counter& shards;
  obs::Counter& groups;
  obs::Gauge& simd_kernel;

  static EngineMetrics& get() {
    static EngineMetrics* m = [] {
      obs::Registry& r = obs::Registry::global();
      return new EngineMetrics{
          r.counter("scoris_exec_shards_total",
                    "Step-2 seed-scan shards executed"),
          r.counter("scoris_exec_groups_total",
                    "(strand x slice) plan groups executed"),
          r.gauge("scoris_simd_kernel_level",
                  "Match-run kernel of the last run "
                  "(0=scalar, 2=avx2)"),
      };
    }();
    return *m;
  }
};

/// Span label for a plan group, e.g. "g0+" / "g3-".
std::string group_label(std::uint32_t gid, bool minus) {
  // Appended, not `"g" + std::to_string(gid)`: libstdc++ builds that by
  // inserting at the front, which g++ 12 flags with a false -Wrestrict.
  std::string label = "g";
  label += std::to_string(gid);
  label += minus ? '-' : '+';
  return label;
}

using align::Hsp;

/// Karlin parameters for one group: the base solution, or re-solved from
/// the banks' actual compositions (size-weighted average, as the
/// pre-engine pipeline did).
stats::KarlinParams group_karlin(const ExecRequest& request,
                                 const seqio::SequenceBank& bank1,
                                 const seqio::SequenceBank& subject) {
  if (!request.options.composition_stats) return request.karlin;
  const auto f1 = bank1.base_frequencies();
  const auto f2 = subject.base_frequencies();
  const double w1 = static_cast<double>(bank1.total_bases());
  const double w2 = static_cast<double>(subject.total_bases());
  std::vector<double> freqs(4, 0.25);
  if (w1 + w2 > 0) {
    for (std::size_t i = 0; i < 4; ++i) {
      freqs[i] = (f1[i] * w1 + f2[i] * w2) / (w1 + w2);
    }
  }
  return stats::solve_karlin(stats::match_mismatch_distribution(
      request.options.scoring.match, request.options.scoring.mismatch,
      freqs));
}

}  // namespace

ExecSummary execute(const ExecRequest& request, HitSink& sink) {
  const Options& options = request.options;
  const index::BankIndex& idx1 = *request.idx1;
  const seqio::SequenceBank& bank1 = idx1.bank();
  const seqio::SequenceBank& bank2 = *request.bank2;

  ExecSummary result;
  PipelineStats& st = result.stats;
  util::WallTimer total;

  const int w = options.effective_w();
  if (idx1.w() != w) {
    std::string message = "exec: reference index has w=";
    message += std::to_string(idx1.w());
    message += " but the run needs w=";
    message += std::to_string(w);
    throw std::invalid_argument(message);
  }
  const index::SeedCoder coder(w);

  // ---- plan ---------------------------------------------------------------
  PlanRequest preq;
  preq.strand = options.strand;
  preq.slices = request.slices;
  preq.bank2_size = bank2.size();
  preq.threads = options.threads;
  preq.shards = options.shards;
  preq.schedule = options.schedule;
  const ExecutionPlan plan = compile_plan(idx1, preq);
  result.groups = plan.groups.size();
  result.slices = request.slices.empty() ? 1 : request.slices.size();

  // With more than one group, delivery must wait for the deterministic
  // cross-group merge (the best hit can come from the last group); a
  // lone group is already in final order and streams as soon as it
  // finishes.
  const bool stream_group = plan.groups.size() <= 1;

  SeedScanParams scan_params;
  scan_params.scoring = options.scoring;
  scan_params.min_hsp_score = options.min_hsp_score;
  scan_params.enforce_order = options.enforce_order;
  const align::simd::KernelOps& kernel_ops =
      align::simd::select(options.force_scalar_kernel);
  scan_params.kernel = &kernel_ops;
  st.simd_kernel = kernel_ops.name;
  EngineMetrics::get().simd_kernel.set(
      static_cast<std::int64_t>(kernel_ops.kind));

  // One wall time per shard, in its plan slot, whichever worker ran it.
  std::vector<double> shard_seconds(plan.shards.size());
  // The largest subject index of any group: the engine holds one at a
  // time.
  std::size_t peak_idx2_bytes = 0;
  std::size_t peak_idx2_dict = 0;
  std::size_t peak_idx2_chain = 0;
  std::size_t peak_subject_positions = 0;
  // Multi-group only: each finished group is a sorted run of the final
  // stream; the merger retains runs under the delivery budget, spills
  // them over it, and k-way merges at delivery time.
  std::optional<RunMerger> merger;
  if (!stream_group) {
    RunMergeConfig mcfg;
    mcfg.budget_bytes = options.delivery_budget_bytes;
    mcfg.tmp_dir = options.tmp_dir;
    merger.emplace(std::move(mcfg), plan.groups.size());
  }
  std::size_t emitted = 0;
  // One sample per group for the stages that run group-at-a-time, so
  // --stats can show each stage's min/median/max, not just a sum.
  std::vector<double> index_group_seconds;
  std::vector<double> gapped_group_seconds;
  index_group_seconds.reserve(plan.groups.size());
  gapped_group_seconds.reserve(plan.groups.size());

  // ---- groups, sequentially (one slice index in memory at a time) --------
  // Groups are slice-major (plus, then minus, of the same slice), so the
  // forward slice is materialized once and shared by the strand pair.
  std::optional<seqio::SequenceBank> sliced;
  SliceRange sliced_range{0, 0};
  for (std::uint32_t gid = 0; gid < plan.groups.size(); ++gid) {
    const ShardGroup& group = plan.groups[gid];
    const std::string label = group_label(gid, group.minus);

    // Subject bank for the group: the bank2 slice, reverse-complemented
    // for minus groups.  The whole-bank forward case borrows bank2
    // directly instead of copying.
    obs::Span index2_span(request.trace, "index", label);
    util::WallTimer tg;
    const bool whole =
        group.slice.from == 0 && group.slice.to == bank2.size();
    if (!whole && (!sliced.has_value() ||
                   sliced_range.from != group.slice.from ||
                   sliced_range.to != group.slice.to)) {
      sliced = slice_bank(bank2, group.slice.from, group.slice.to);
      sliced_range = group.slice;
    }
    const seqio::SequenceBank& forward = whole ? bank2 : *sliced;
    std::optional<seqio::SequenceBank> rc;
    if (group.minus) rc = seqio::reverse_complement(forward);
    const seqio::SequenceBank& subject = group.minus ? *rc : forward;

    filter::MaskBitmap mask2;
    index::IndexOptions iopt2;
    if (options.dust) {
      mask2 = filter::dust_mask(subject, options.dust_params);
      iopt2.mask = &mask2;
    }
    if (options.asymmetric) iopt2.stride = 2;
    iopt2.pool = request.pool;
    const index::SubjectIndex idx2(subject, coder, iopt2);
    const double tg_seconds = tg.seconds();
    index_group_seconds.push_back(tg_seconds);
    st.index_seconds += tg_seconds;
    index2_span.finish();
    st.masked_bases += idx2.masked_bases();
    peak_idx2_bytes = std::max(peak_idx2_bytes, idx2.memory_bytes());
    peak_idx2_dict = std::max(peak_idx2_dict, idx2.dictionary_bytes());
    peak_idx2_chain = std::max(peak_idx2_chain, idx2.chain_bytes());
    peak_subject_positions =
        std::max(peak_subject_positions, subject.data_size());

    // ---- step 2: shards on the scheduler ---------------------------------
    obs::Span scan_span(request.trace, "scan", label);
    util::WallTimer t2;
    std::vector<SeedScanResult> partials(group.shard_count);
    const auto run_shard = [&](std::size_t s) {
      const std::size_t id = group.first_shard + s;
      const Shard& shard = plan.shards[id];
      util::WallTimer ts;
      // Scan into a local, not the slot: neighbouring slots share cache
      // lines, and the claim loop runs neighbouring shards at once.
      SeedScanResult out;
      scan_seed_range(idx1, idx2, scan_params, shard.codes.lo,
                      shard.codes.hi, out);
      partials[s] = std::move(out);
      shard_seconds[id] = ts.seconds();
    };
    if (request.pool != nullptr) {
      util::run_tasks(*request.pool, group.shard_count, plan.schedule,
                      run_shard);
    } else {
      util::run_tasks(group.shard_count,
                      static_cast<std::size_t>(plan.threads), plan.schedule,
                      run_shard);
    }

    // Concatenating in ascending code-range order reproduces the
    // sequential enumeration exactly (the order rule keeps ranges
    // disjoint), so the HSP stream is shard- and schedule-invariant.
    std::vector<Hsp> hsps;
    std::size_t total_hsps = 0;
    for (const SeedScanResult& p : partials) {
      total_hsps += p.hsps.size();
      st.hit_pairs += p.hit_pairs;
      st.order_aborts += p.order_aborts;
    }
    hsps.reserve(total_hsps);
    for (SeedScanResult& p : partials) {
      hsps.insert(hsps.end(), p.hsps.begin(), p.hsps.end());
    }

    if (!options.enforce_order) {
      // Ablation path: the naive implementation de-duplicates explicitly.
      const auto key = [](const Hsp& h) {
        return std::tuple(h.s1, h.e1, h.s2, h.e2);
      };
      std::sort(hsps.begin(), hsps.end(), [&](const Hsp& x, const Hsp& y) {
        return key(x) < key(y);
      });
      const auto new_end = std::unique(
          hsps.begin(), hsps.end(),
          [&](const Hsp& x, const Hsp& y) { return key(x) == key(y); });
      st.duplicate_hsps +=
          static_cast<std::size_t>(std::distance(new_end, hsps.end()));
      hsps.erase(new_end, hsps.end());
    }
    st.hsps += hsps.size();
    st.hsp_seconds += t2.seconds();
    scan_span.finish();
    EngineMetrics::get().shards.inc(group.shard_count);

    // ---- step 3: gapped extension ----------------------------------------
    obs::Span gapped_span(request.trace, "gapped", label);
    util::WallTimer t3;
    GappedStageOptions gopt;
    gopt.scoring = options.scoring;
    gopt.max_evalue = options.max_evalue;
    gopt.max_gap_extent = options.max_gap_extent;
    gopt.threads = options.threads;
    gopt.pool = request.pool;
    const stats::KarlinParams karlin =
        group_karlin(request, bank1, subject);
    GappedStageStats gstats;
    std::vector<align::GappedAlignment> alignments =
        gapped_stage(hsps, bank1, subject, karlin, gopt, &gstats);
    st.gapped += gstats;

    // Remap subject ids and global positions back to bank2.  The reverse
    // complement preserves per-sequence offsets, so one remap serves both
    // strands (minus display conversion happens at m8 time).
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
    const double t3_seconds = t3.seconds();
    gapped_group_seconds.push_back(t3_seconds);
    st.gapped_seconds += t3_seconds;
    gapped_span.finish();
    EngineMetrics::get().groups.inc();

    // ---- deliver or add a sorted run -------------------------------------
    if (stream_group) {
      st.peak_delivery_bytes =
          alignments.size() * sizeof(align::GappedAlignment);
      HitBatch batch;
      batch.bank1 = &bank1;
      batch.bank2 = request.bank2;
      batch.last = true;
      sink.on_group(alignments, batch);
      emitted = alignments.size();
    } else {
      merger->add_run(std::move(alignments));
    }
  }

  // ---- merge --------------------------------------------------------------
  // Collected runs are each in final step4_less order; the stable k-way
  // merge streams the canonical global order through the sink in bounded
  // batches instead of re-sorting one whole-hit-set vector.
  if (merger.has_value()) {
    obs::Span merge_span(request.trace, "merge", "global");
    HitBatch batch;
    batch.bank1 = &bank1;
    batch.bank2 = request.bank2;
    emitted = merger->merge(sink, batch);
    const MergeStats& ms = merger->stats();
    st.peak_delivery_bytes = ms.peak_delivery_bytes;
    st.spilled_runs = ms.spilled_runs;
    st.spill_bytes = ms.spill_bytes;
  } else if (plan.groups.empty()) {
    // Zero-group plans still owe the sink its final (empty) delivery.
    HitBatch batch;
    batch.bank1 = &bank1;
    batch.bank2 = request.bank2;
    batch.last = true;
    sink.on_group({}, batch);
  }

  st.shard_balance = reduce_seconds(std::move(shard_seconds));
  st.index_group_balance = reduce_seconds(std::move(index_group_seconds));
  st.gapped_group_balance = reduce_seconds(std::move(gapped_group_seconds));
  st.masked_bases += idx1.masked_bases();
  st.reference_masked_bases = idx1.masked_bases();
  st.index_bytes = idx1.memory_bytes() + peak_idx2_bytes;
  st.index_dict_bytes = idx1.dictionary_bytes() + peak_idx2_dict;
  st.index_chain_bytes = idx1.chain_bytes() + peak_idx2_chain;
  st.index_positions = bank1.data_size() + peak_subject_positions;
  st.alignments = emitted;
  st.total_seconds = total.seconds();
  sink.on_stats(st);
  return result;
}

}  // namespace scoris::core::exec
