// Tests for the sharded execution engine: occupancy-adaptive seed-range
// splitting, plan compilation, stat accounting, and the m8 byte-identity
// of every entry path under any shard/thread/schedule setting.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "compare/m8.hpp"
#include "core/exec/engine.hpp"
#include "core/exec/plan.hpp"
#include "core/exec/run_merge.hpp"
#include "core/gapped_stage.hpp"
#include "filter/dust.hpp"
#include "index/subject_index.hpp"
#include "simulate/generators.hpp"
#include "simulate/mutate.hpp"
#include "simulate/rng.hpp"
#include "stats/karlin.hpp"
#include "test_helpers.hpp"

namespace scoris::core::exec {
namespace {

seqio::SequenceBank random_bank(std::uint64_t seed, int sequences,
                                std::size_t len) {
  simulate::Rng rng(seed);
  seqio::SequenceBank bank(testing::numbered("b", seed));
  for (int i = 0; i < sequences; ++i) {
    bank.add_codes(testing::numbered("s", i), simulate::random_codes(rng, len));
  }
  return bank;
}

index::BankIndex make_index(const seqio::SequenceBank& bank, int w) {
  return index::BankIndex(bank, index::SeedCoder(w));
}

TEST(OccupancyHistogram, SumsToTotalIndexed) {
  const auto bank = random_bank(11, 4, 800);
  const auto idx = make_index(bank, 8);
  for (const std::size_t buckets : {1u, 7u, 256u, 1u << 16}) {
    const auto hist = idx.occupancy_histogram(buckets);
    ASSERT_LE(hist.size(), static_cast<std::size_t>(idx.coder().num_seeds()));
    std::size_t sum = 0;
    for (const auto h : hist) sum += h;
    EXPECT_EQ(sum, idx.total_indexed()) << buckets << " buckets";
  }
}

/// Every bucket equals the sum of occurrence_count over its codes,
/// whether or not the bucket count divides 4^W (a non-divisor leaves
/// short or empty trailing buckets).
TEST(OccupancyHistogram, EveryBucketMatchesBruteForceSum) {
  const auto bank = random_bank(17, 4, 800);
  for (const int w : {4, 8}) {
    const auto idx = make_index(bank, w);
    const auto codes = static_cast<std::size_t>(idx.coder().num_seeds());
    for (const std::size_t buckets :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{100},
          std::size_t{1000}, std::size_t{1024}, codes - 1, codes}) {
      const std::size_t n = std::min(buckets, codes);
      const std::size_t per = (codes + n - 1) / n;
      std::vector<std::size_t> expected(n, 0);
      for (std::size_t code = 0; code < codes; ++code) {
        expected[code / per] +=
            idx.occurrence_count(static_cast<index::SeedCode>(code));
      }
      EXPECT_EQ(idx.occupancy_histogram(buckets), expected)
          << "w=" << w << " buckets=" << buckets;
    }
  }
}

TEST(OccupancyHistogram, ClampsBucketCountToCodeSpace) {
  const auto bank = random_bank(13, 1, 200);
  const auto idx = make_index(bank, 4);  // 256 codes
  EXPECT_EQ(idx.occupancy_histogram(1u << 20).size(), 256u);
  EXPECT_EQ(idx.occupancy_histogram(0).size(), 1u);
}

TEST(SplitSeedRanges, CoversCodeSpaceContiguously) {
  const auto bank = random_bank(17, 6, 600);
  const auto idx = make_index(bank, 8);
  for (const std::size_t shards : {1u, 2u, 5u, 16u, 64u}) {
    std::vector<std::size_t> weights;
    const auto ranges = split_seed_ranges(idx, shards, &weights);
    ASSERT_FALSE(ranges.empty());
    ASSERT_EQ(ranges.size(), weights.size());
    EXPECT_LE(ranges.size(), shards);
    EXPECT_EQ(ranges.front().lo, 0u);
    EXPECT_EQ(ranges.back().hi,
              static_cast<index::SeedCode>(idx.coder().num_seeds()));
    std::size_t weight_sum = 0;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_LT(ranges[i].lo, ranges[i].hi);
      if (i > 0) {
        EXPECT_EQ(ranges[i].lo, ranges[i - 1].hi);
      }
      weight_sum += weights[i];
    }
    EXPECT_EQ(weight_sum, idx.total_indexed());
  }
}

TEST(SplitSeedRanges, BalancesSkewedOccupancy) {
  // A bank dominated by one repeated word: the heavy code region must not
  // drag half the uniform code space with it.
  simulate::Rng rng(19);
  seqio::SequenceBank bank("skew");
  std::string poly(3000, 'A');
  bank.add("repeat", poly);
  bank.add_codes("rand", simulate::random_codes(rng, 3000));
  index::BankIndex idx(bank, index::SeedCoder(8));

  std::vector<std::size_t> weights;
  const auto ranges = split_seed_ranges(idx, 8, &weights);
  ASSERT_GT(ranges.size(), 1u);
  // No shard should carry more than ~2 targets' worth of occupancy except
  // the one pinned to the single heavy code (which cannot be split).
  const std::size_t total = idx.total_indexed();
  const std::size_t target = total / 8;
  std::size_t over = 0;
  for (const std::size_t w : weights) {
    if (w > 2 * target) ++over;
  }
  EXPECT_LE(over, 1u);
}

TEST(SplitSeedRanges, EmptyIndexFallsBackToUniform) {
  seqio::SequenceBank bank("empty");
  bank.add("n", "NNNNNNNNNNNNNNNN");  // no indexable word
  index::BankIndex idx(bank, index::SeedCoder(6));
  ASSERT_EQ(idx.total_indexed(), 0u);
  std::vector<std::size_t> weights;
  const auto ranges = split_seed_ranges(idx, 4, &weights);
  EXPECT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges.front().lo, 0u);
  EXPECT_EQ(ranges.back().hi,
            static_cast<index::SeedCode>(idx.coder().num_seeds()));
}

TEST(CompilePlan, CrossProductOfStrandsSlicesAndRanges) {
  const auto bank = random_bank(23, 4, 500);
  const auto idx = make_index(bank, 8);
  PlanRequest req;
  req.strand = seqio::Strand::kBoth;
  req.slices = {{0, 2}, {2, 4}};
  req.threads = 2;
  req.shards = 4;
  const auto plan = compile_plan(idx, req);
  ASSERT_EQ(plan.groups.size(), 4u);  // 2 slices x 2 strands
  // Slice-major, plus before minus.
  EXPECT_FALSE(plan.groups[0].minus);
  EXPECT_TRUE(plan.groups[1].minus);
  EXPECT_EQ(plan.groups[0].slice.from, 0u);
  EXPECT_EQ(plan.groups[2].slice.from, 2u);
  const std::size_t per_group = plan.groups[0].shard_count;
  EXPECT_GE(per_group, 1u);
  EXPECT_LE(per_group, 4u);
  EXPECT_EQ(plan.shards.size(), 4 * per_group);
  for (const auto& group : plan.groups) {
    EXPECT_EQ(group.shard_count, per_group);
  }
  EXPECT_EQ(plan.shards[plan.groups[3].first_shard].group, 3u);
}

/// plan_groups is the one owner of group order (the merge's tie-break):
/// slice-major, plus before minus, and no slices meaning the whole bank.
TEST(CompilePlan, GroupOrderIsSliceMajorPlusBeforeMinus) {
  using seqio::Strand;
  const std::vector<SliceRange> slices = {{0, 2}, {2, 5}};
  struct Want {
    bool minus;
    std::size_t from, to;
  };
  const auto expect_groups = [](const std::vector<ShardGroup>& groups,
                                const std::vector<Want>& want) {
    ASSERT_EQ(groups.size(), want.size());
    for (std::size_t g = 0; g < want.size(); ++g) {
      EXPECT_EQ(groups[g].minus, want[g].minus) << "group " << g;
      EXPECT_EQ(groups[g].slice.from, want[g].from) << "group " << g;
      EXPECT_EQ(groups[g].slice.to, want[g].to) << "group " << g;
    }
  };
  expect_groups(plan_groups(Strand::kPlus, {}, 5), {{false, 0, 5}});
  expect_groups(plan_groups(Strand::kMinus, {}, 5), {{true, 0, 5}});
  expect_groups(plan_groups(Strand::kBoth, {}, 5),
                {{false, 0, 5}, {true, 0, 5}});
  expect_groups(plan_groups(Strand::kPlus, slices, 5),
                {{false, 0, 2}, {false, 2, 5}});
  expect_groups(plan_groups(Strand::kMinus, slices, 5),
                {{true, 0, 2}, {true, 2, 5}});
  expect_groups(plan_groups(Strand::kBoth, slices, 5),
                {{false, 0, 2}, {true, 0, 2}, {false, 2, 5}, {true, 2, 5}});

  // compile_plan keeps exactly that order.
  const auto bank = random_bank(31, 2, 400);
  const auto idx = make_index(bank, 8);
  PlanRequest req;
  req.strand = Strand::kBoth;
  req.slices = slices;
  req.bank2_size = 5;
  const auto plan = compile_plan(idx, req);
  expect_groups(plan.groups,
                {{false, 0, 2}, {true, 0, 2}, {false, 2, 5}, {true, 2, 5}});
}

TEST(CompilePlan, AutoShardsSingleThreadIsOne) {
  const auto bank = random_bank(29, 2, 400);
  const auto idx = make_index(bank, 8);
  PlanRequest req;
  req.bank2_size = 5;
  const auto plan = compile_plan(idx, req);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups[0].slice.to, 5u);
  EXPECT_EQ(plan.shards.size(), 1u);
}

/// Sink recording every delivery (alignments + batch metadata + stats).
struct RecordingSink final : HitSink {
  std::vector<align::GappedAlignment> all;
  std::vector<HitBatch> batches;
  PipelineStats stats;
  bool have_stats = false;

  void on_group(std::span<const align::GappedAlignment> hits,
                const HitBatch& batch) override {
    all.insert(all.end(), hits.begin(), hits.end());
    batches.push_back(batch);
  }
  void on_stats(const PipelineStats& s) override {
    stats = s;
    have_stats = true;
  }
};

/// Split [0, n) into up to four contiguous slice ranges.
std::vector<SliceRange> quarter_slices(std::size_t n) {
  std::vector<SliceRange> slices;
  const std::size_t per = std::max<std::size_t>(1, (n + 3) / 4);
  for (std::size_t from = 0; from < n; from += per) {
    slices.push_back({from, std::min(n, from + per)});
  }
  return slices;
}

/// The reference index a Session builds for `bank` under `options`: the
/// effective word length, and the DUST mask when DUST is on.
index::BankIndex reference_index(const seqio::SequenceBank& bank,
                                 const Options& options) {
  filter::MaskBitmap mask;
  index::IndexOptions iopt;
  if (options.dust) {
    mask = filter::dust_mask(bank, options.dust_params);
    iopt.mask = &mask;
  }
  return index::BankIndex(bank, index::SeedCoder(options.effective_w()),
                          iopt);
}

ExecRequest make_request(const index::BankIndex& idx1,
                         const seqio::SequenceBank& bank2,
                         const Options& options) {
  ExecRequest request;
  request.idx1 = &idx1;
  request.bank2 = &bank2;
  request.options = options;
  request.karlin = stats::karlin_match_mismatch(options.scoring.match,
                                                options.scoring.mismatch);
  return request;
}

std::string alignments_m8(std::span<const align::GappedAlignment> alignments,
                          const simulate::HomologousPair& hp) {
  std::ostringstream os;
  compare::write_m8(os, alignments, hp.bank1, hp.bank2);
  return os.str();
}

/// The tentpole invariant: m8 output is byte-identical across shard
/// counts, thread counts, schedules, and entry paths (Session and a bare
/// execute over the same reference index).
TEST(Engine, M8ByteIdentityAcrossShardsThreadsSchedules) {
  simulate::Rng rng(31);
  const auto hp = simulate::make_homologous_pair(rng, 400, 10, 8, 0.05);

  Options base;
  base.strand = seqio::Strand::kBoth;
  const Result reference = Session(hp.bank1, base).search_collect(hp.bank2);
  const std::string ref_m8 = alignments_m8(reference.alignments, hp);
  ASSERT_FALSE(ref_m8.empty());

  const index::BankIndex idx1 = reference_index(hp.bank1, base);
  for (const std::size_t shards : {1u, 4u, 16u}) {
    for (const int threads : {1, 8}) {
      for (const auto schedule :
           {util::Schedule::kStatic, util::Schedule::kStealing}) {
        Options opt = base;
        opt.shards = shards;
        opt.threads = threads;
        opt.schedule = schedule;
        RecordingSink run;
        execute(make_request(idx1, hp.bank2, opt), run);
        EXPECT_EQ(alignments_m8(run.all, hp), ref_m8)
            << "shards=" << shards << " threads=" << threads << " schedule="
            << (schedule == util::Schedule::kStatic ? "static" : "stealing");
        EXPECT_EQ(run.stats.hit_pairs, reference.stats.hit_pairs);
        EXPECT_EQ(run.stats.hsps, reference.stats.hsps);
      }
    }
  }
}

TEST(Engine, ShardBalanceIsRecorded) {
  simulate::Rng rng(37);
  const auto hp = simulate::make_homologous_pair(rng, 600, 8, 6, 0.04);
  Options opt;
  opt.shards = 6;
  opt.threads = 2;
  const index::BankIndex idx1 = reference_index(hp.bank1, opt);
  RecordingSink run;
  execute(make_request(idx1, hp.bank2, opt), run);
  const auto& b = run.stats.shard_balance;
  EXPECT_GE(b.shards, 1u);
  EXPECT_LE(b.shards, 6u);
  EXPECT_LE(b.min_seconds, b.median_seconds);
  EXPECT_LE(b.median_seconds, b.max_seconds);
  EXPECT_GE(b.total_seconds, b.max_seconds);
}

/// The engine accounts the reference index exactly once, so sliced and
/// unsliced runs agree on all deterministic index stats instead of
/// folding the reference's numbers into every slice.
TEST(Engine, ChunkedStatsCountBank1IndexOnce) {
  simulate::Rng rng(41);
  const auto hp = simulate::make_homologous_pair(rng, 400, 12, 8, 0.05);
  Options popt;
  popt.dust = false;  // masked_bases stays deterministic (= 0) either way
  const index::BankIndex idx1 = reference_index(hp.bank1, popt);

  ExecRequest request = make_request(idx1, hp.bank2, popt);
  request.slices = quarter_slices(hp.bank2.size());
  RecordingSink sliced;
  EXPECT_EQ(execute(request, sliced).slices, 4u);

  request.slices.clear();
  RecordingSink whole;
  execute(request, whole);
  EXPECT_EQ(sliced.stats.index_dict_bytes, whole.stats.index_dict_bytes);
  EXPECT_EQ(sliced.stats.masked_bases, whole.stats.masked_bases);
  // Chain bytes: bank1's chain once, plus the *largest slice's* chain —
  // strictly less than the unsliced run's full bank2 chain.
  EXPECT_LT(sliced.stats.index_chain_bytes, whole.stats.index_chain_bytes);
  EXPECT_GT(sliced.stats.index_chain_bytes, idx1.chain_bytes());
}

/// The subject side is a SubjectIndex: the stats add its fixed bucket
/// table and per-word arrays to the reference's index, never a second
/// 4^W dictionary.
TEST(Engine, StatsCountTheSubjectIndexWithoutA4WDictionary) {
  simulate::Rng rng(45);
  const auto hp = simulate::make_homologous_pair(rng, 400, 12, 8, 0.05);
  for (const bool asymmetric : {false, true}) {
    SCOPED_TRACE(asymmetric ? "asymmetric" : "w=11");
    Options opt;
    opt.dust = false;
    opt.asymmetric = asymmetric;
    const index::BankIndex idx1 = reference_index(hp.bank1, opt);
    RecordingSink run;
    execute(make_request(idx1, hp.bank2, opt), run);

    const index::SeedCoder coder(opt.effective_w());
    index::IndexOptions iopt;
    iopt.stride = asymmetric ? 2 : 1;
    const index::SubjectIndex subject(hp.bank2, coder, iopt);
    EXPECT_EQ(run.stats.index_dict_bytes,
              idx1.dictionary_bytes() + subject.dictionary_bytes());
    EXPECT_LT(subject.dictionary_bytes(),
              coder.num_seeds() * sizeof(std::uint32_t));
    EXPECT_EQ(run.stats.index_chain_bytes,
              idx1.chain_bytes() + subject.chain_bytes());
    EXPECT_EQ(run.stats.index_bytes,
              idx1.memory_bytes() + subject.memory_bytes());
  }
}

/// Both strands count the reference's DUST-masked bases once, not once
/// per strand.
TEST(Engine, BothStrandsMaskBank1Once) {
  simulate::Rng rng(43);
  seqio::SequenceBank bank1("b1");
  // A low-complexity run DUST will mask, plus random context.
  bank1.add("m", "ATATATATATATATATATATATATATATATATATAT" +
                     seqio::decode(simulate::random_codes(rng, 400)));
  const auto bank2 = random_bank(47, 3, 400);

  Options plus_opt;
  const index::BankIndex idx1 = reference_index(bank1, plus_opt);
  RecordingSink plus;
  execute(make_request(idx1, bank2, plus_opt), plus);
  Options both_opt;
  both_opt.strand = seqio::Strand::kBoth;
  RecordingSink both;
  execute(make_request(idx1, bank2, both_opt), both);
  ASSERT_GT(plus.stats.masked_bases, 0u);
  // Both-strand masking adds only bank2's reverse complement, never a
  // second copy of bank1's mask, so the count is below twice the
  // plus-only number.
  EXPECT_LT(both.stats.masked_bases, 2 * plus.stats.masked_bases);
  EXPECT_GE(both.stats.masked_bases, plus.stats.masked_bases);
}

/// The reference index must match the run's word length: the engine
/// throws instead of scanning seeds of the wrong width.
TEST(Engine, RejectsWordLengthMismatch) {
  const auto bank1 = random_bank(59, 3, 300);
  const index::BankIndex idx9(bank1, index::SeedCoder(9));
  const Options options;  // w = 11
  RecordingSink sink;
  EXPECT_THROW(execute(make_request(idx9, bank1, options), sink),
               std::invalid_argument);
}

// --- spill-run k-way merge ---------------------------------------------------

/// A synthetic step4-sorted run: evalues `start, start+step, ...`.
std::vector<align::GappedAlignment> synthetic_run(double start, double step,
                                                  std::size_t n) {
  std::vector<align::GappedAlignment> run(n);
  for (std::size_t i = 0; i < n; ++i) {
    run[i].evalue = start + static_cast<double>(i) * step;
    run[i].s1 = static_cast<seqio::Pos>(i);
    run[i].e1 = static_cast<seqio::Pos>(i + 10);
  }
  return run;
}

TEST(SpillRun, RoundTripsThroughBlocks) {
  const auto run = synthetic_run(1.0, 1.0, 23);
  std::ostringstream os;
  const std::uint64_t bytes = write_spill_run(os, run, 5);
  EXPECT_EQ(bytes, os.str().size());

  std::istringstream is(os.str());
  SpillRunReader reader(is, "test run");
  EXPECT_EQ(reader.total(), run.size());
  EXPECT_EQ(reader.block_elems(), 5u);
  std::vector<align::GappedAlignment> back;
  for (auto block = reader.next_block(is); !block.empty();
       block = reader.next_block(is)) {
    EXPECT_LE(block.size(), 5u);
    back.insert(back.end(), block.begin(), block.end());
  }
  ASSERT_EQ(back.size(), run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].evalue, run[i].evalue);
    EXPECT_EQ(back[i].s1, run[i].s1);
  }
}

TEST(SpillRun, RejectsCorruptionAndTruncation) {
  const auto run = synthetic_run(1.0, 1.0, 16);
  std::ostringstream os;
  write_spill_run(os, run, 4);
  const std::string good = os.str();

  // A flipped payload bit must be caught by the section CRC, never merged
  // into the output stream as a garbage alignment.
  std::string corrupt = good;
  corrupt[good.size() / 2] ^= 0x01;
  {
    std::istringstream is(corrupt);
    EXPECT_THROW(
        {
          SpillRunReader reader(is, "test run");
          while (!reader.next_block(is).empty()) {
          }
        },
        std::runtime_error);
  }

  // A truncated file (lost tail) must read as an error, not a short run.
  {
    std::istringstream is(good.substr(0, good.size() - 50));
    EXPECT_THROW(
        {
          SpillRunReader reader(is, "test run");
          while (!reader.next_block(is).empty()) {
          }
        },
        std::runtime_error);
  }

  // Not a spill run at all: the header check names the format.
  {
    std::istringstream is("definitely not a spill run");
    EXPECT_THROW(SpillRunReader(is, "test run"), std::runtime_error);
  }
}

/// Unit-level merger: tiny budget forces spilling, the merged stream is
/// globally sorted, peak delivery memory respects the budget, and the
/// temp files are gone when the merger is.
TEST(RunMergerUnit, SpillsOverBudgetAndMergesSorted) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "scoris_merge_unit")
          .string();
  std::filesystem::create_directories(dir);

  MergeStats stats;
  {
    RunMergeConfig config;
    config.budget_bytes = 2048;
    config.tmp_dir = dir;
    RunMerger merger(config, 2);
    // Two interleaving runs of ~1.4 KB each: both overflow the 1 KB run
    // share and spill, while each still fits the whole budget at the
    // add_run handoff (the peak counts that transient buffer too).
    merger.add_run(synthetic_run(1.0, 2.0, 20));
    merger.add_run(synthetic_run(2.0, 2.0, 20));

    RecordingSink sink;
    HitBatch proto;
    const std::size_t emitted = merger.merge(sink, proto);
    stats = merger.stats();

    EXPECT_EQ(emitted, 40u);
    ASSERT_EQ(sink.all.size(), 40u);
    for (std::size_t i = 0; i < sink.all.size(); ++i) {
      EXPECT_DOUBLE_EQ(sink.all[i].evalue, 1.0 + static_cast<double>(i));
    }
    EXPECT_TRUE(std::is_sorted(sink.all.begin(), sink.all.end(),
                               step4_less));
    ASSERT_GE(sink.batches.size(), 2u);  // bounded batches, not one blob
    for (std::size_t i = 0; i < sink.batches.size(); ++i) {
      EXPECT_EQ(sink.batches[i].index, i);
      EXPECT_EQ(sink.batches[i].last, i + 1 == sink.batches.size());
    }
  }
  EXPECT_EQ(stats.runs, 2u);
  EXPECT_EQ(stats.spilled_runs, 2u);
  EXPECT_GT(stats.spill_bytes, 0u);
  EXPECT_GT(stats.peak_delivery_bytes, 0u);
  // The retained/head/batch shares respect the budget; the handoff
  // buffer (one run) fits it here too.
  EXPECT_LE(stats.peak_delivery_bytes, 2048u);
  // RAII cleanup: no spill file survives the merger.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(RunMergerUnit, UnboundedBudgetNeverSpills) {
  RunMerger merger(RunMergeConfig{}, 3);
  merger.add_run(synthetic_run(1.0, 2.0, 100));
  merger.add_run(synthetic_run(2.0, 2.0, 100));
  merger.add_run({});  // empty runs are dropped
  RecordingSink sink;
  EXPECT_EQ(merger.merge(sink, HitBatch{}), 200u);
  EXPECT_EQ(merger.stats().runs, 2u);
  EXPECT_EQ(merger.stats().spilled_runs, 0u);
  EXPECT_EQ(merger.stats().spill_bytes, 0u);
  EXPECT_TRUE(std::is_sorted(sink.all.begin(), sink.all.end(), step4_less));
}

TEST(RunMergerUnit, EmptyMergeStillDeliversFinalBatch) {
  RunMerger merger(RunMergeConfig{}, 0);
  RecordingSink sink;
  EXPECT_EQ(merger.merge(sink, HitBatch{}), 0u);
  ASSERT_EQ(sink.batches.size(), 1u);
  EXPECT_TRUE(sink.batches[0].last);
  EXPECT_TRUE(sink.all.empty());
}

/// The acceptance matrix: the multi-group stream through the k-way
/// merge is byte-identical to the collector semantics (concatenate the
/// groups' streams in plan order, re-sort with step4_less) across
/// threads x shards x spill-forced budgets, on a multi-group plan (both
/// strands x 4 bank2 slices).
TEST(RunMergeEngine, KGlobalByteIdentityAcrossThreadsShardsAndBudgets) {
  simulate::Rng rng(61);
  const auto hp = simulate::make_homologous_pair(rng, 400, 10, 8, 0.05);
  Options base;
  base.strand = seqio::Strand::kBoth;
  const auto slices = quarter_slices(hp.bank2.size());
  ASSERT_GE(slices.size(), 2u);

  // Collector reference, rebuilt from one single-group request per
  // (slice, strand).  The largest group is the largest run the merge
  // will be handed: the budget provably bounds the peak only while each
  // run fits the run share, because the incoming handoff buffer itself
  // is counted.
  const index::BankIndex idx1 = reference_index(hp.bank1, base);
  std::vector<align::GappedAlignment> collected;
  std::size_t largest_group_bytes = 0;
  for (const SliceRange& slice : slices) {
    for (const seqio::Strand strand :
         {seqio::Strand::kPlus, seqio::Strand::kMinus}) {
      Options one = base;
      one.strand = strand;
      ExecRequest request = make_request(idx1, hp.bank2, one);
      request.slices = {slice};
      RecordingSink group;
      execute(request, group);
      ASSERT_EQ(group.batches.size(), 1u);
      collected.insert(collected.end(), group.all.begin(), group.all.end());
      largest_group_bytes =
          std::max(largest_group_bytes,
                   group.all.size() * sizeof(align::GappedAlignment));
    }
  }
  std::sort(collected.begin(), collected.end(), step4_less);
  const std::string reference = alignments_m8(collected, hp);
  ASSERT_FALSE(reference.empty());
  const std::size_t total_bytes =
      collected.size() * sizeof(align::GappedAlignment);

  for (const int threads : {1, 8}) {
    for (const std::size_t shards : {1u, 16u}) {
      for (const std::size_t budget : {std::size_t{0}, std::size_t{4096}}) {
        Options options = base;
        options.threads = threads;
        options.shards = shards;
        options.delivery_budget_bytes = budget;
        options.tmp_dir = ::testing::TempDir();
        ExecRequest request = make_request(idx1, hp.bank2, options);
        request.slices = slices;

        RecordingSink sink;
        execute(request, sink);
        EXPECT_EQ(alignments_m8(sink.all, hp), reference)
            << "threads=" << threads << " shards=" << shards
            << " budget=" << budget;
        ASSERT_TRUE(sink.have_stats);
        ASSERT_FALSE(sink.batches.empty());
        EXPECT_TRUE(sink.batches.back().last);

        if (budget == 0) {
          EXPECT_EQ(sink.stats.spilled_runs, 0u);
        } else if (total_bytes > budget / 2) {
          // The hit set overflows the run share, so the merge must have
          // spilled — and still respected the budget.
          EXPECT_GT(sink.stats.spilled_runs, 0u);
          EXPECT_GT(sink.stats.spill_bytes, 0u);
          // Precondition for the strict bound (fails loudly, not
          // silently, if the generator or slicing ever shifts): every
          // run fits the run share, so retained + handoff <= budget.
          ASSERT_LE(largest_group_bytes, budget / 2);
          EXPECT_LE(sink.stats.peak_delivery_bytes, budget);
          EXPECT_GT(sink.batches.size(), 1u);  // bounded batches
        }
        EXPECT_GT(sink.stats.peak_delivery_bytes, 0u);
      }
    }
  }
}

/// A single-group plan streams its group and reports that buffer as its
/// delivery peak.
TEST(RunMergeEngine, StreamingPathsReportPeakDeliveryBytes) {
  simulate::Rng rng(67);
  const auto hp = simulate::make_homologous_pair(rng, 400, 10, 8, 0.05);
  Options options;
  const index::BankIndex idx1 = reference_index(hp.bank1, options);
  RecordingSink sink;
  execute(make_request(idx1, hp.bank2, options), sink);
  ASSERT_TRUE(sink.have_stats);
  ASSERT_EQ(sink.batches.size(), 1u);
  ASSERT_GT(sink.all.size(), 0u);
  EXPECT_EQ(sink.stats.spilled_runs, 0u);
  // The streamed peak is exactly the delivered group.
  EXPECT_EQ(sink.stats.peak_delivery_bytes,
            sink.all.size() * sizeof(align::GappedAlignment));
}

TEST(Engine, EmptyBank2YieldsEmptyResult) {
  const auto bank1 = random_bank(53, 2, 300);
  seqio::SequenceBank bank2("empty");
  Options opt;
  opt.strand = seqio::Strand::kBoth;
  const index::BankIndex idx1 = reference_index(bank1, opt);
  RecordingSink run;
  execute(make_request(idx1, bank2, opt), run);
  EXPECT_TRUE(run.all.empty());
  EXPECT_EQ(run.stats.hit_pairs, 0u);
}

}  // namespace
}  // namespace scoris::core::exec
