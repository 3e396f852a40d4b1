// Golden m8 pins: absolute output bytes of fixed-seed PaperData searches.
//
// The other suites compare paths against each other (threads, shards,
// slices, kernels, stores), which cannot catch a change that moves every
// path the same way — an index or gapped-stage rewrite, say.  Each case
// here pins the row count, the byte length and a 64-bit FNV-1a of the m8
// bytes a Session streams for one PaperData(scale, 42) comparison on two
// threads.  The baselines that share step 2's ungapped walk are pinned the
// same way: BLASTN, its BLAT configuration and the order-rule ablation,
// each with its HSP count.  Re-pinning is a hand edit whose reason goes in
// CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <sstream>
#include <string>

#include "api/session.hpp"
#include "api/sinks.hpp"
#include "blast/blastn.hpp"
#include "compare/m8.hpp"
#include "seqio/strand.hpp"
#include "simulate/paper_datasets.hpp"
#include "test_helpers.hpp"

namespace scoris {
namespace {

struct Pin {
  std::size_t rows = 0;
  std::size_t bytes = 0;
  std::uint64_t fnv = 0;
};

struct GoldenRun {
  Pin pin;
  SearchOutcome outcome;
};

GoldenRun run_m8(const seqio::SequenceBank& reference,
                 const seqio::SequenceBank& query, Options options,
                 const SearchLimits& limits = {}) {
  options.threads = 2;
  const Session session(reference, options);
  std::ostringstream os;
  M8Writer writer(os);
  GoldenRun run;
  run.outcome = session.search(query, writer, limits);
  const std::string m8 = os.str();
  run.pin = {writer.written(), m8.size(), testing::fnv1a64(m8)};
  return run;
}

void expect_pin(const Pin& got, const Pin& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.fnv, want.fnv)
      << "got {" << got.rows << ", " << got.bytes << ", 0x" << std::hex
      << got.fnv << "ull}";
}

struct EstPair {
  seqio::SequenceBank est1;
  seqio::SequenceBank est2;
};

const EstPair& est_pair() {
  static const EstPair banks = [] {
    const simulate::PaperData data(0.01, 42);
    return EstPair{data.make("EST1"), data.make("EST2")};
  }();
  return banks;
}

TEST(GoldenM8, EstPairPlusStrand) {
  const auto run = run_m8(est_pair().est1, est_pair().est2, Options{});
  expect_pin(run.pin, {238, 14270, 0xfb151e29df543631ull});
}

TEST(GoldenM8, EstPairBothStrandsOnReverseComplement) {
  // The simulated banks carry no reverse-strand homology, so searching
  // the reverse complement puts every row on the minus strand.
  Options options;
  options.strand = seqio::Strand::kBoth;
  const auto run = run_m8(est_pair().est1,
                          seqio::reverse_complement(est_pair().est2), options);
  expect_pin(run.pin, {238, 14289, 0xf45f3638cf4649d7ull});
}

TEST(GoldenM8, EstPairAsymmetric) {
  // Stride-2 10-nt words still seed every one of the plus-strand run's
  // alignments at this scale, so the pin equals EstPairPlusStrand's.
  Options options;
  options.asymmetric = true;
  const auto run = run_m8(est_pair().est1, est_pair().est2, options);
  expect_pin(run.pin, {238, 14270, 0xfb151e29df543631ull});
}

TEST(GoldenM8, EstPairDustLevel8) {
  // At the default level 20 DUST masks nothing in the PaperData banks,
  // so the other pins never run the masked path; level 8 masks enough
  // of both banks to drop four rows.
  Options options;
  options.dust_params.level = 8;
  const auto run = run_m8(est_pair().est1, est_pair().est2, options);
  expect_pin(run.pin, {234, 14038, 0x145c18648e175e51ull});
  EXPECT_EQ(run.outcome.stats.masked_bases, 9405u);
  EXPECT_EQ(run.outcome.stats.reference_masked_bases, 4969u);
}

TEST(GoldenM8, EstPairSpillForcedGlobalMerge) {
  Options options;
  options.strand = seqio::Strand::kBoth;
  SearchLimits limits;
  limits.min_chunks = 4;
  limits.delivery_budget_bytes = 4096;
  limits.tmp_dir = ::testing::TempDir();
  const auto run = run_m8(est_pair().est1, est_pair().est2, options, limits);
  EXPECT_GT(run.outcome.stats.spilled_runs, 0u);
  expect_pin(run.pin, {238, 14270, 0xfb151e29df543631ull});
}

/// The m8 pin and HSP count of a comparator run over the EST pair.
struct BaselineRun {
  Pin pin;
  std::size_t hsps = 0;
};

BaselineRun run_baseline(blast::BlastOptions options) {
  options.threads = 2;
  const blast::BlastResult result =
      blast::BlastN(options).run(est_pair().est1, est_pair().est2);
  std::ostringstream os;
  compare::write_m8(os, result.alignments, est_pair().est1, est_pair().est2);
  const std::string m8 = os.str();
  return {{result.alignments.size(), m8.size(), testing::fnv1a64(m8)},
          result.stats.hsps};
}

TEST(GoldenM8, EstPairBlastnBaseline) {
  const auto run = run_baseline(blast::BlastOptions{});
  expect_pin(run.pin, {235, 14091, 0x60f69100330296efull});
  EXPECT_EQ(run.hsps, 497u);
}

TEST(GoldenM8, EstPairBlatConfiguration) {
  const auto run = run_baseline(blast::blat_options());
  expect_pin(run.pin, {233, 13975, 0x76ae4ab92ead41e5ull});
  EXPECT_EQ(run.hsps, 480u);
}

TEST(GoldenM8, EstPairOrderRuleAblation) {
  // The plain extension with explicit de-duplication (A1) finds one HSP
  // more than the order rule keeps, and the same alignments.
  Options options;
  options.enforce_order = false;
  const auto run = run_m8(est_pair().est1, est_pair().est2, options);
  expect_pin(run.pin, {238, 14270, 0xfb151e29df543631ull});
  EXPECT_EQ(run.outcome.stats.hsps, 499u);
}

TEST(GoldenM8, LargePairBacteriaAgainstEst) {
  const simulate::PaperData data(0.03, 42);
  const auto run = run_m8(data.make("BCT"), data.make("EST7"), Options{});
  expect_pin(run.pin, {12, 826, 0xa185a3fc1329c927ull});
}

}  // namespace
}  // namespace scoris
