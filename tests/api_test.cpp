// Tests for the public streaming API (scoris::Session + HitSink):
// streamed-vs-collected byte identity across the thread/shard/strand/
// chunked matrix, session reuse (the reference index is built exactly
// once), per-query SearchLimits, sink delivery contracts, and
// Options::validate() as the single source of truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "api/sinks.hpp"
#include "compare/m8.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"
#include "store/index_store.hpp"
#include "test_helpers.hpp"

namespace scoris {
namespace {

/// A homologous bank pair with enough hits (both strands) to make byte
/// comparisons meaningful.
struct Banks {
  seqio::SequenceBank bank1{"b1"};
  seqio::SequenceBank bank2{"b2"};
};

Banks make_banks(std::uint64_t seed = 31) {
  simulate::Rng rng(seed);
  const auto hp = simulate::make_homologous_pair(rng, 400, 10, 8, 0.05);
  Banks banks;
  banks.bank1 = hp.bank1;
  banks.bank2 = hp.bank2;
  return banks;
}

/// The reference bytes: a single-threaded, unsliced run of `options`.
std::string reference_m8(const Banks& banks, core::Options options) {
  options.threads = 1;
  const core::Result result =
      Session(banks.bank1, options).search_collect(banks.bank2);
  std::ostringstream os;
  compare::write_m8(os, result.alignments, banks.bank1, banks.bank2);
  return os.str();
}

/// Build a .scix store for `bank` in memory (default key = W 11, DUST).
store::IndexStore make_store(const seqio::SequenceBank& bank) {
  const store::IndexKey key;
  std::ostringstream os;
  store::write_index(os, bank, {&key, 1});
  std::istringstream is(os.str());
  return store::load_index(is, "api_test store");
}

// --- streaming equivalence ---------------------------------------------------

/// The acceptance matrix: M8Writer-streamed output is byte-identical to
/// Collector + compare::write_m8 — and to a single-threaded run — for
/// threads{1,8} x shards{1,16} x strand both.
TEST(SessionStreaming, M8WriterMatchesCollectorAcrossMatrix) {
  const Banks banks = make_banks();
  core::Options base;
  base.strand = seqio::Strand::kBoth;
  const std::string reference = reference_m8(banks, base);
  ASSERT_FALSE(reference.empty());

  for (const int threads : {1, 8}) {
    for (const std::size_t shards : {1u, 16u}) {
      core::Options options = base;
      options.threads = threads;
      options.shards = shards;

      Session session(banks.bank1, options);

      std::ostringstream streamed;
      M8Writer writer(streamed);
      const SearchOutcome outcome = session.search(banks.bank2, writer);

      const core::Result collected = session.search_collect(banks.bank2);
      std::ostringstream gathered;
      compare::write_m8(gathered, collected.alignments, session.reference(),
                        banks.bank2);

      EXPECT_EQ(streamed.str(), reference)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(gathered.str(), reference)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(writer.written(), collected.alignments.size());
      EXPECT_EQ(outcome.stats.alignments, collected.alignments.size());
    }
  }
}

/// Chunked-from-.scix: a store-backed session streaming bank2 in slices
/// under a tight budget stays byte-identical to the flat run.
TEST(SessionStreaming, ChunkedFromStoreMatchesFlat) {
  const Banks banks = make_banks(37);
  core::Options base;
  base.strand = seqio::Strand::kBoth;
  const std::string reference = reference_m8(banks, base);
  ASSERT_FALSE(reference.empty());

  for (const int threads : {1, 8}) {
    core::Options options = base;
    options.threads = threads;
    Session session(make_store(banks.bank1), options);
    EXPECT_EQ(session.reference_builds(), 0u);  // adopted, never rebuilt

    SearchLimits limits;
    limits.min_chunks = 4;  // force multiple slices whatever the sizes
    std::ostringstream streamed;
    M8Writer writer(streamed);
    const SearchOutcome outcome =
        session.search(banks.bank2, writer, limits);
    EXPECT_GE(outcome.slices, 4u);
    EXPECT_EQ(streamed.str(), reference) << "threads=" << threads;
  }
}

/// A byte-budget (not just min_chunks) also slices and stays identical.
TEST(SessionStreaming, MemoryBudgetSlicesAndMatches) {
  const Banks banks = make_banks(41);
  const std::string reference = reference_m8(banks, core::Options{});

  Session session(banks.bank1, core::Options{});
  SearchLimits limits;
  // Far below the W=11 dictionary: forces per-sequence slices.
  limits.memory_budget_bytes = 1u << 20;
  std::ostringstream streamed;
  M8Writer writer(streamed);
  const SearchOutcome outcome = session.search(banks.bank2, writer, limits);
  EXPECT_GT(outcome.slices, 1u);
  EXPECT_EQ(streamed.str(), reference);
}

/// The bounded-delivery acceptance case: a spill-forced search
/// (tiny delivery budget, multi-group plan) stays byte-identical to the
/// unbounded run while the measured peak delivery memory respects the
/// budget and runs demonstrably went through spill files.
TEST(SessionStreaming, SpillForcedDeliveryBudgetMatchesAndStaysBounded) {
  // Forty planted exact matches: enough alignments (~3 KB) to overflow a
  // 4 KB delivery budget's 2 KB run share however they fragment.
  simulate::Rng rng(83);
  Banks banks;
  for (int i = 0; i < 40; ++i) {
    const auto codes = simulate::random_codes(rng, 150);
    banks.bank1.add_codes(testing::numbered("q", i), codes);
    banks.bank2.add_codes(testing::numbered("s", i), codes);
  }
  core::Options options;
  options.strand = seqio::Strand::kBoth;
  const std::string reference = reference_m8(banks, options);
  ASSERT_FALSE(reference.empty());

  for (const int threads : {1, 8}) {
    core::Options threaded = options;
    threaded.threads = threads;
    Session session(banks.bank1, threaded);

    SearchLimits limits;
    limits.min_chunks = 4;  // multi-group: 4 slices x both strands
    limits.delivery_budget_bytes = 4096;
    limits.tmp_dir = ::testing::TempDir();

    std::ostringstream streamed;
    M8Writer writer(streamed);
    CountingSink counter;
    const SearchOutcome outcome = session.search(banks.bank2, writer, limits);
    const SearchOutcome counted = session.search(banks.bank2, counter, limits);

    EXPECT_EQ(streamed.str(), reference) << "threads=" << threads;
    ASSERT_GE(outcome.groups, 8u);
    // The planted hit set is far bigger than the 2 KB run share, so the
    // merge must have spilled — and the retained peak stayed bounded.
    ASSERT_GT(counter.total() * sizeof(align::GappedAlignment),
              limits.delivery_budget_bytes / 2);
    EXPECT_GT(counted.stats.spilled_runs, 0u);
    EXPECT_GT(counted.stats.spill_bytes, 0u);
    EXPECT_GT(counted.stats.peak_delivery_bytes, 0u);
    // Precondition for the strict bound (the peak counts the incoming
    // group buffer at the handoff, which the budget cannot shrink):
    // every group must fit the run share.  A single-group request's
    // peak IS its group, so one request per (slice, strand) gives the
    // largest.
    const core::exec::ExecRequest whole =
        session.exec_request(banks.bank2, limits);
    std::size_t largest_group_bytes = 0;
    for (const core::exec::SliceRange& slice : whole.slices) {
      for (const seqio::Strand strand :
           {seqio::Strand::kPlus, seqio::Strand::kMinus}) {
        core::exec::ExecRequest one = whole;
        one.slices = {slice};
        one.options.strand = strand;
        CountingSink group;
        largest_group_bytes = std::max(
            largest_group_bytes,
            core::exec::execute(one, group).stats.peak_delivery_bytes);
      }
    }
    ASSERT_GT(largest_group_bytes, 0u);
    ASSERT_LE(largest_group_bytes, limits.delivery_budget_bytes / 2);
    EXPECT_LE(counted.stats.peak_delivery_bytes,
              limits.delivery_budget_bytes);
  }
}

/// Session options carry the budget too (no per-query limits needed),
/// and an invalid per-query override is rejected like any bad option.
TEST(SessionStreaming, DeliveryBudgetViaOptionsAndOverrideValidation) {
  const Banks banks = make_banks(89);
  core::Options options;
  options.strand = seqio::Strand::kBoth;
  options.delivery_budget_bytes = 4096;
  options.tmp_dir = ::testing::TempDir();
  Session session(banks.bank1, options);

  std::ostringstream streamed;
  M8Writer writer(streamed);
  session.search(banks.bank2, writer);
  core::Options plain;
  plain.strand = seqio::Strand::kBoth;
  EXPECT_EQ(streamed.str(), reference_m8(banks, plain));

  // A sub-minimum per-query override must throw before the engine runs.
  SearchLimits bad;
  bad.delivery_budget_bytes = 17;  // < Options::kMinDeliveryBudget
  CountingSink sink;
  EXPECT_THROW(session.search(banks.bank2, sink, bad),
               std::invalid_argument);
}

// --- session reuse -----------------------------------------------------------

/// One session, many queries: the reference index is built exactly once.
TEST(SessionReuse, ReferenceIndexedExactlyOnce) {
  const Banks banks = make_banks(47);
  simulate::Rng rng(48);
  seqio::SequenceBank other("other");
  for (int i = 0; i < 4; ++i) {
    other.add_codes(testing::numbered("o", i),
                    simulate::random_codes(rng, 300));
  }

  core::Options options;
  options.threads = 4;
  Session session(banks.bank1, options);
  EXPECT_EQ(session.reference_builds(), 1u);

  CountingSink first;
  const SearchOutcome o1 = session.search(banks.bank2, first);
  CountingSink second;
  const SearchOutcome o2 = session.search(banks.bank2, second);
  CountingSink third;
  session.search(other, third);

  // Still exactly one reference build after three queries.
  EXPECT_EQ(session.reference_builds(), 1u);
  // Identical queries report identical deterministic index stats.
  EXPECT_EQ(o1.stats.index_bytes, o2.stats.index_bytes);
  EXPECT_EQ(o1.stats.index_dict_bytes, o2.stats.index_dict_bytes);
  EXPECT_EQ(o1.stats.masked_bases, o2.stats.masked_bases);
  EXPECT_EQ(first.total(), second.total());
}

/// Every field of two stats records, timings included.
void expect_same_stats(const core::PipelineStats& got,
                       const core::PipelineStats& want) {
  EXPECT_EQ(got.index_seconds, want.index_seconds);
  EXPECT_EQ(got.hsp_seconds, want.hsp_seconds);
  EXPECT_EQ(got.gapped_seconds, want.gapped_seconds);
  EXPECT_EQ(got.total_seconds, want.total_seconds);
  EXPECT_EQ(got.hit_pairs, want.hit_pairs);
  EXPECT_EQ(got.order_aborts, want.order_aborts);
  EXPECT_EQ(got.hsps, want.hsps);
  EXPECT_EQ(got.duplicate_hsps, want.duplicate_hsps);
  EXPECT_EQ(got.index_bytes, want.index_bytes);
  EXPECT_EQ(got.index_dict_bytes, want.index_dict_bytes);
  EXPECT_EQ(got.index_chain_bytes, want.index_chain_bytes);
  EXPECT_EQ(got.index_positions, want.index_positions);
  EXPECT_EQ(got.masked_bases, want.masked_bases);
  EXPECT_EQ(got.reference_masked_bases, want.reference_masked_bases);
  EXPECT_STREQ(got.simd_kernel, want.simd_kernel);
  EXPECT_EQ(got.gapped.hsps_in, want.gapped.hsps_in);
  EXPECT_EQ(got.gapped.gapped_extensions, want.gapped.gapped_extensions);
  EXPECT_EQ(got.gapped.fast_path, want.gapped.fast_path);
  EXPECT_EQ(got.gapped.second_dp, want.gapped.second_dp);
  EXPECT_EQ(got.gapped.xdrop_cells, want.gapped.xdrop_cells);
  EXPECT_EQ(got.gapped.band_cells, want.gapped.band_cells);
  EXPECT_EQ(got.gapped.skipped_contained, want.gapped.skipped_contained);
  EXPECT_EQ(got.gapped.below_cutoff, want.gapped.below_cutoff);
  EXPECT_EQ(got.gapped.exact_duplicates, want.gapped.exact_duplicates);
  EXPECT_EQ(got.alignments, want.alignments);
  EXPECT_EQ(got.peak_delivery_bytes, want.peak_delivery_bytes);
  EXPECT_EQ(got.spilled_runs, want.spilled_runs);
  EXPECT_EQ(got.spill_bytes, want.spill_bytes);
  for (const auto& [g, w] :
       {std::pair{&got.shard_balance, &want.shard_balance},
        std::pair{&got.index_group_balance, &want.index_group_balance},
        std::pair{&got.gapped_group_balance, &want.gapped_group_balance}}) {
    EXPECT_EQ(g->shards, w->shards);
    EXPECT_EQ(g->min_seconds, w->min_seconds);
    EXPECT_EQ(g->median_seconds, w->median_seconds);
    EXPECT_EQ(g->max_seconds, w->max_seconds);
    EXPECT_EQ(g->total_seconds, w->total_seconds);
  }
}

/// One stats record per query: what search() returns is what its sink's
/// on_stats received, the first query included.  The one-time reference
/// build is in neither.
TEST(SessionReuse, ReturnedStatsEqualTheSinksFirstQueryIncluded) {
  const Banks banks = make_banks(49);
  core::Options options;
  options.strand = seqio::Strand::kBoth;
  options.threads = 2;
  const Session session(banks.bank1, options);
  ASSERT_GT(session.reference_build_seconds(), 0.0);

  for (int query = 0; query < 2; ++query) {
    CountingSink sink;
    const SearchOutcome outcome = session.search(banks.bank2, sink);
    ASSERT_TRUE(sink.have_stats());
    SCOPED_TRACE(testing::numbered("query ", query));
    expect_same_stats(outcome.stats, sink.stats());
  }
}

/// The same session answers different queries and per-query limits
/// (strand overrides) without re-preparing anything.
TEST(SessionReuse, PerQueryStrandOverride) {
  const Banks banks = make_banks(53);
  Session session(banks.bank1, core::Options{});

  SearchLimits both;
  both.strand = seqio::Strand::kBoth;
  std::ostringstream streamed;
  M8Writer writer(streamed);
  session.search(banks.bank2, writer, both);

  core::Options both_options;
  both_options.strand = seqio::Strand::kBoth;
  EXPECT_EQ(streamed.str(), reference_m8(banks, both_options));
  // The session's own options are untouched by the per-query override.
  EXPECT_EQ(session.options().strand, seqio::Strand::kPlus);
  EXPECT_EQ(session.reference_builds(), 1u);
}

/// exec_request is what search() runs: the limits' overrides applied and
/// validated, and slices planned only when min_chunks or a budget asks.
TEST(SessionReuse, ExecRequestCarriesTheQueryPlan) {
  const Banks banks = make_banks(83);
  const Session session(banks.bank1);
  const auto whole = session.exec_request(banks.bank2, {});
  EXPECT_EQ(whole.idx1, &session.reference_index());
  EXPECT_EQ(whole.bank2, &banks.bank2);
  EXPECT_TRUE(whole.slices.empty());  // one whole-bank slice
  EXPECT_EQ(whole.options.strand, seqio::Strand::kPlus);

  SearchLimits limits;
  limits.strand = seqio::Strand::kBoth;
  limits.min_chunks = 4;
  const auto sliced = session.exec_request(banks.bank2, limits);
  EXPECT_EQ(sliced.options.strand, seqio::Strand::kBoth);
  EXPECT_EQ(sliced.slices.size(), 4u);

  limits.delivery_budget_bytes = 1;  // below Options::kMinDeliveryBudget
  EXPECT_THROW((void)session.exec_request(banks.bank2, limits),
               std::invalid_argument);
}

TEST(SessionReuse, OpenDispatchesOnExtension) {
  const Banks banks = make_banks(59);
  const std::string dir = ::testing::TempDir();
  const std::string fasta = dir + "api_open_ref.fa";
  {
    std::ofstream os(fasta);
    for (std::size_t i = 0; i < banks.bank1.size(); ++i) {
      os << '>' << banks.bank1.seq_name(i) << '\n'
         << seqio::decode(banks.bank1.codes(i)) << '\n';
    }
  }
  Session from_file = Session::open(fasta);
  EXPECT_EQ(from_file.reference_builds(), 1u);
  std::ostringstream streamed;
  M8Writer writer(streamed);
  from_file.search(banks.bank2, writer);
  EXPECT_EQ(streamed.str(), reference_m8(banks, core::Options{}));
  std::remove(fasta.c_str());
}

/// Store-backed sessions refuse settings with no matching payload —
/// identically to `scoris search`.
TEST(SessionReuse, StoreSettingsMismatchThrows) {
  const Banks banks = make_banks(61);
  core::Options wrong;
  wrong.w = 9;  // store holds only the W=11 payload
  EXPECT_THROW(Session(make_store(banks.bank1), wrong), std::runtime_error);
}

// --- sink contract -----------------------------------------------------------

TEST(SinkContract, EverySearchEndsWithLastBatchAndStats) {
  const Banks banks = make_banks(67);
  core::Options options;
  options.strand = seqio::Strand::kBoth;
  Session session(banks.bank1, options);

  CountingSink sink;
  session.search(banks.bank2, sink);
  EXPECT_TRUE(sink.saw_last());
  EXPECT_TRUE(sink.have_stats());
  EXPECT_EQ(sink.batches(), 1u);  // multi-group, unbounded: one delivery
  EXPECT_EQ(sink.stats().alignments, sink.total());
}

TEST(SinkContract, EmptyQueryStillDeliversFinalBatch) {
  const Banks banks = make_banks(71);
  Session session(banks.bank1, core::Options{});
  const seqio::SequenceBank empty("empty");
  CountingSink sink;
  session.search(empty, sink);
  EXPECT_TRUE(sink.saw_last());
  EXPECT_TRUE(sink.have_stats());
  EXPECT_EQ(sink.total(), 0u);
}

// --- Options::validate -------------------------------------------------------

TEST(OptionsValidate, DefaultsAreValid) {
  EXPECT_TRUE(core::Options{}.validate().empty());
  EXPECT_NO_THROW(core::Options{}.validate_or_throw());
}

TEST(OptionsValidate, ReportsEveryIssueWithFieldNames) {
  core::Options options;
  options.w = 99;
  options.threads = 0;
  options.shards = core::Options::kMaxShards + 1;
  options.min_hsp_score = -1;
  options.max_evalue = -1.0;
  const auto issues = options.validate();
  ASSERT_EQ(issues.size(), 5u);
  std::vector<std::string> fields;
  for (const auto& issue : issues) fields.push_back(issue.field);
  const std::vector<std::string> expected = {"w", "threads", "shards", "s1",
                                             "evalue"};
  EXPECT_EQ(fields, expected);
  for (const auto& issue : issues) {
    EXPECT_NE(issue.message.find("--" + issue.field), std::string::npos)
        << issue.message;
  }
}

/// W is capped where BankIndex caps it, so an unindexable W is a
/// validation issue rather than a failure of the reference build.
TEST(OptionsValidate, WordLengthAboveTheIndexCapIsReported) {
  core::Options options;
  options.w = 13;
  EXPECT_TRUE(options.validate().empty());
  options.w = 14;
  const auto issues = options.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "w");
  EXPECT_NE(issues[0].message.find("[4, 13]"), std::string::npos)
      << issues[0].message;
  EXPECT_THROW(Session(make_banks(79).bank1, options), std::invalid_argument);
}

TEST(OptionsValidate, DeliveryBudgetRule) {
  core::Options options;
  options.delivery_budget_bytes = 0;  // unbounded stays legal
  EXPECT_TRUE(options.validate().empty());
  options.delivery_budget_bytes = core::Options::kMinDeliveryBudget;
  EXPECT_TRUE(options.validate().empty());
  options.delivery_budget_bytes = core::Options::kMinDeliveryBudget - 1;
  const auto issues = options.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "delivery_budget_bytes");
  EXPECT_NE(issues[0].message.find("delivery_budget_bytes"),
            std::string::npos);
  EXPECT_NE(issues[0].message.find("--delivery-budget-kb"),
            std::string::npos);
}

TEST(OptionsValidate, ValidateOrThrowJoinsMessages) {
  core::Options options;
  options.w = 2;
  options.max_evalue = 0.0;
  try {
    options.validate_or_throw();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--w"), std::string::npos) << what;
    EXPECT_NE(what.find("--evalue"), std::string::npos) << what;
  }
}

TEST(OptionsValidate, SessionRejectsInvalidOptions) {
  const Banks banks = make_banks(73);
  core::Options bad;
  bad.threads = -5;
  EXPECT_THROW(Session(banks.bank1, bad), std::invalid_argument);
}

TEST(OptionsValidate, StrandAndScheduleNamesAreCentral) {
  core::Options options;
  EXPECT_FALSE(core::set_strand(options, "minus").has_value());
  EXPECT_EQ(options.strand, seqio::Strand::kMinus);
  EXPECT_FALSE(core::set_schedule(options, "static").has_value());
  EXPECT_EQ(options.schedule, util::Schedule::kStatic);

  const auto bad_strand = core::set_strand(options, "up");
  ASSERT_TRUE(bad_strand.has_value());
  EXPECT_EQ(bad_strand->field, "strand");
  EXPECT_NE(bad_strand->message.find("plus, minus or both"),
            std::string::npos);
  const auto bad_schedule = core::set_schedule(options, "round-robin");
  ASSERT_TRUE(bad_schedule.has_value());
  EXPECT_EQ(bad_schedule->field, "schedule");
}

}  // namespace
}  // namespace scoris
