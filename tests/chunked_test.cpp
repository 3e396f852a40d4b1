// Tests for bank2 slicing under a memory budget: the slice planner, and
// the bit-identity of sliced and unsliced Session searches.
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "api/sinks.hpp"
#include "compare/m8.hpp"
#include "core/chunked.hpp"
#include "simulate/generators.hpp"
#include "simulate/paper_datasets.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris::core {
namespace {

/// A collected Session search and the number of bank2 slices it ran.
struct SlicedRun {
  std::vector<align::GappedAlignment> alignments;
  PipelineStats stats;
  std::size_t slices = 0;
};

SlicedRun search_sliced(const seqio::SequenceBank& bank1,
                        const seqio::SequenceBank& bank2,
                        const Options& options, const SearchLimits& limits) {
  Collector collector;
  const SearchOutcome outcome =
      Session(bank1, options).search(bank2, collector, limits);
  Result result = collector.take();
  return {std::move(result.alignments), result.stats, outcome.slices};
}

SearchLimits min_slices(std::size_t n) {
  SearchLimits limits;
  limits.min_chunks = n;
  return limits;
}

SearchLimits budget(std::size_t bytes) {
  SearchLimits limits;
  limits.memory_budget_bytes = bytes;
  return limits;
}

TEST(SliceBank, CopiesRangeWithNamesAndContent) {
  simulate::Rng rng(601);
  seqio::SequenceBank bank("orig");
  for (int i = 0; i < 6; ++i) {
    bank.add_codes(testing::numbered("s", i),
                   simulate::random_codes(rng, 50 + 10 * static_cast<std::size_t>(i)));
  }
  const auto slice = slice_bank(bank, 2, 5);
  ASSERT_EQ(slice.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(slice.seq_name(i), bank.seq_name(i + 2));
    EXPECT_EQ(slice.bases(i), bank.bases(i + 2));
  }
}

TEST(SliceBank, RejectsBadRanges) {
  seqio::SequenceBank bank;
  bank.add("a", "ACGT");
  EXPECT_THROW((void)slice_bank(bank, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)slice_bank(bank, 0, 2), std::invalid_argument);
}

TEST(SliceBank, EmptyRangeYieldsEmptyBank) {
  seqio::SequenceBank bank("b");
  bank.add("a", "ACGTACGT");
  bank.add("b", "TTTTAAAA");
  for (const std::size_t at : {std::size_t{0}, std::size_t{1},
                               std::size_t{2}}) {
    const auto slice = slice_bank(bank, at, at);  // from == to
    EXPECT_TRUE(slice.empty());
    EXPECT_EQ(slice.total_bases(), 0u);
  }
}

TEST(SliceBank, EmptySourceBank) {
  const seqio::SequenceBank bank("none");
  const auto slice = slice_bank(bank, 0, 0);
  EXPECT_TRUE(slice.empty());
  EXPECT_THROW((void)slice_bank(bank, 0, 1), std::invalid_argument);
}

TEST(SliceBank, SingleSequenceBankFullSlice) {
  seqio::SequenceBank bank("one");
  bank.add("only", "ACGTACGTACGTAC");
  const auto slice = slice_bank(bank, 0, 1);
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_EQ(slice.seq_name(0), "only");
  EXPECT_EQ(slice.bases(0), bank.bases(0));
  EXPECT_EQ(slice.offset(0), bank.offset(0));
}

TEST(EstimatedIndexBytes, FiveBytesPerNtPlusDictionary) {
  simulate::Rng rng(603);
  seqio::SequenceBank bank;
  bank.add_codes("s", simulate::random_codes(rng, 100000));
  const auto est = estimated_index_bytes(bank, 11);
  const double per_nt =
      static_cast<double>(est - (1u << 22) * 4) /
      static_cast<double>(bank.total_bases());
  EXPECT_NEAR(per_nt, 5.0, 0.1);
}

TEST(Chunked, IdenticalToUnchunkedRun) {
  simulate::Rng rng(607);
  const auto hp = simulate::make_homologous_pair(rng, 400, 12, 9, 0.05);

  // Four slices, whatever the budget.
  const auto chunked = search_sliced(hp.bank1, hp.bank2, {}, min_slices(4));
  EXPECT_EQ(chunked.slices, 4u);

  const auto whole = Session(hp.bank1).search_collect(hp.bank2);
  ASSERT_EQ(chunked.alignments.size(), whole.alignments.size());
  for (std::size_t i = 0; i < whole.alignments.size(); ++i) {
    const auto& a = chunked.alignments[i];
    const auto& b = whole.alignments[i];
    EXPECT_EQ(std::tuple(a.seq1, a.seq2, a.s1, a.e1, a.s2, a.e2, a.score),
              std::tuple(b.seq1, b.seq2, b.s1, b.e1, b.s2, b.e2, b.score));
    EXPECT_DOUBLE_EQ(a.evalue, b.evalue);
  }
  EXPECT_EQ(chunked.stats.hit_pairs, whole.stats.hit_pairs);
  EXPECT_EQ(chunked.stats.hsps, whole.stats.hsps);
}

TEST(Chunked, IdenticalUnderAsymmetricIndexing) {
  // Sequence-local stride semantics keep asymmetric runs chunk-invariant.
  simulate::Rng rng(611);
  const auto hp = simulate::make_homologous_pair(rng, 500, 9, 7, 0.04);
  Options options;
  options.asymmetric = true;
  const auto chunked =
      search_sliced(hp.bank1, hp.bank2, options, min_slices(3));
  const auto whole = Session(hp.bank1, options).search_collect(hp.bank2);
  ASSERT_EQ(chunked.alignments.size(), whole.alignments.size());
  for (std::size_t i = 0; i < whole.alignments.size(); ++i) {
    EXPECT_EQ(chunked.alignments[i].s2, whole.alignments[i].s2);
    EXPECT_EQ(chunked.alignments[i].score, whole.alignments[i].score);
  }
}

TEST(Chunked, M8OutputIdentical) {
  const simulate::PaperData data(0.002, 55);
  const auto est1 = data.make("EST1");
  const auto est2 = data.make("EST2");

  const auto chunked = search_sliced(est1, est2, {}, min_slices(5));
  const auto whole = Session(est1).search_collect(est2);

  std::ostringstream m8_chunked, m8_whole;
  compare::write_m8(m8_chunked, chunked.alignments, est1, est2);
  compare::write_m8(m8_whole, whole.alignments, est1, est2);
  EXPECT_EQ(m8_chunked.str(), m8_whole.str());
  EXPECT_FALSE(m8_whole.str().empty());
}

TEST(Chunked, M8IdenticalAcrossShardAndThreadSettings) {
  // Satellite matrix: chunked + both strands must stay byte-identical to
  // the flat single-threaded run under any shards/threads combination.
  simulate::Rng rng(619);
  const auto hp = simulate::make_homologous_pair(rng, 300, 10, 8, 0.06);

  Options base;
  base.strand = seqio::Strand::kBoth;
  const auto whole = Session(hp.bank1, base).search_collect(hp.bank2);
  std::ostringstream ref;
  compare::write_m8(ref, whole.alignments, hp.bank1, hp.bank2);
  ASSERT_FALSE(ref.str().empty());

  for (const std::size_t shards : {1u, 4u, 16u}) {
    for (const int threads : {1, 8}) {
      Options options = base;
      options.shards = shards;
      options.threads = threads;
      const auto chunked =
          search_sliced(hp.bank1, hp.bank2, options, min_slices(3));
      std::ostringstream m8;
      compare::write_m8(m8, chunked.alignments, hp.bank1, hp.bank2);
      EXPECT_EQ(m8.str(), ref.str())
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(Chunked, BudgetDrivesChunkCount) {
  simulate::Rng rng(613);
  seqio::SequenceBank b1("b1"), b2("b2");
  for (int i = 0; i < 20; ++i) {
    b1.add_codes(testing::numbered("a", i), simulate::random_codes(rng, 2000));
    b2.add_codes(testing::numbered("b", i), simulate::random_codes(rng, 2000));
  }
  // Budget just over one dictionary + index1: forces many slices.
  const auto r_tight = search_sliced(
      b1, b2, {}, budget(estimated_index_bytes(b1, 11) + (1u << 22) * 4 +
                         60000));
  const auto r_loose = search_sliced(b1, b2, {}, budget(std::size_t{4} << 30));
  EXPECT_GT(r_tight.slices, 1u);
  EXPECT_EQ(r_loose.slices, 1u);
}

// Regression: a budget at or below bank1's own footprint must not divide
// by zero; it degrades to the finest legal cut (one sequence per slice),
// every slice non-empty and the set a partition of [0, size).
TEST(PlanBudgetSlices, BudgetSmallerThanBank1DegradesToFinestCut) {
  simulate::Rng rng(619);
  seqio::SequenceBank b2("b2");
  for (int i = 0; i < 7; ++i) {
    b2.add_codes(testing::numbered("b", i), simulate::random_codes(rng, 400));
  }
  ChunkedOptions copt;
  copt.memory_budget_bytes = 1000;  // far below any bank1 index
  for (const std::size_t bank1_bytes :
       {std::size_t{1000}, std::size_t{5000}, std::size_t{1} << 30}) {
    const auto slices = plan_budget_slices(bank1_bytes, b2, copt);
    ASSERT_EQ(slices.size(), b2.size()) << "bank1_bytes=" << bank1_bytes;
    std::size_t expect_from = 0;
    for (const auto& slice : slices) {
      EXPECT_EQ(slice.from, expect_from);
      EXPECT_LT(slice.from, slice.to);  // never zero-width
      expect_from = slice.to;
    }
    EXPECT_EQ(expect_from, b2.size());
  }
}

// Regression: an empty bank2 yields exactly the one documented empty
// slice — no division by zero however extreme the budget or min_chunks —
// and the run over it completes with an empty result.
TEST(PlanBudgetSlices, EmptyBank2YieldsOneEmptySlice) {
  const seqio::SequenceBank empty("empty");
  ChunkedOptions copt;
  copt.memory_budget_bytes = 0;
  copt.min_chunks = 64;
  const auto slices = plan_budget_slices(1u << 30, empty, copt);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].from, 0u);
  EXPECT_EQ(slices[0].to, 0u);

  simulate::Rng rng(621);
  seqio::SequenceBank b1("b1");
  b1.add_codes("a", simulate::random_codes(rng, 500));
  const auto r = search_sliced(b1, empty, {}, budget(1));
  EXPECT_TRUE(r.alignments.empty());
  EXPECT_EQ(r.slices, 1u);
}

// min_chunks above the sequence count clamps to one sequence per slice.
TEST(PlanBudgetSlices, MinChunksClampsToSequenceCount) {
  simulate::Rng rng(623);
  seqio::SequenceBank b2("b2");
  for (int i = 0; i < 3; ++i) {
    b2.add_codes(testing::numbered("b", i), simulate::random_codes(rng, 200));
  }
  ChunkedOptions copt;
  copt.memory_budget_bytes = std::size_t{4} << 30;
  copt.min_chunks = 99;
  const auto slices = plan_budget_slices(0, b2, copt);
  ASSERT_EQ(slices.size(), 3u);
  for (const auto& slice : slices) EXPECT_EQ(slice.to - slice.from, 1u);
}

TEST(Chunked, SingleSequenceBankCannotSplit) {
  simulate::Rng rng(617);
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("a", simulate::random_codes(rng, 5000));
  b2.add_codes("b", simulate::random_codes(rng, 5000));
  const auto r = search_sliced(b1, b2, {}, budget(1));  // impossible budget
  EXPECT_EQ(r.slices, 1u);  // a single sequence cannot be sliced
}

}  // namespace
}  // namespace scoris::core
