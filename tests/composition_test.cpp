// Tests for composition-aware statistics: bank base frequencies and the
// pipeline's composition_stats option.
#include <gtest/gtest.h>

#include "api/session.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"
#include "stats/karlin.hpp"

namespace scoris {
namespace {

TEST(BaseFrequencies, UniformRandomBank) {
  simulate::Rng rng(901);
  seqio::SequenceBank bank;
  bank.add_codes("s", simulate::random_codes(rng, 50000));
  const auto f = bank.base_frequencies();
  for (const double v : f) EXPECT_NEAR(v, 0.25, 0.01);
}

TEST(BaseFrequencies, SkewedBank) {
  simulate::Rng rng(903);
  seqio::SequenceBank bank;
  bank.add_codes("s", simulate::random_codes(rng, 50000,
                                             {0.4, 0.1, 0.1, 0.4}));
  const auto f = bank.base_frequencies();
  EXPECT_NEAR(f[seqio::kA], 0.4, 0.01);
  EXPECT_NEAR(f[seqio::kC], 0.1, 0.01);
  EXPECT_NEAR(f[seqio::kG], 0.4, 0.01);
}

TEST(BaseFrequencies, EmptyBankIsUniform) {
  const seqio::SequenceBank bank;
  const auto f = bank.base_frequencies();
  for (const double v : f) EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(BaseFrequencies, AmbiguousBasesExcluded) {
  seqio::SequenceBank bank;
  bank.add("s", "AAAANNNN");
  const auto f = bank.base_frequencies();
  EXPECT_DOUBLE_EQ(f[seqio::kA], 1.0);
}

TEST(CompositionStats, SkewChangesEvalues) {
  // AT-rich banks have higher per-pair match probability: lambda drops,
  // e-values at a fixed raw score rise.  The composition-aware pipeline
  // must therefore report larger e-values than the uniform-model one.
  simulate::Rng rng(907);
  const std::array<double, 4> skew = {0.40, 0.10, 0.40, 0.10};
  const auto base = simulate::random_codes(rng, 400, skew);
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", base);
  b2.add_codes("s", simulate::mutate(
                        rng, base,
                        simulate::MutationModel::with_divergence(0.03)));
  // Pad with more skewed noise so the measured composition is stable.
  b1.add_codes("n", simulate::random_codes(rng, 4000, skew));
  b2.add_codes("n", simulate::random_codes(rng, 4000, skew));

  core::Options uniform;
  uniform.dust = false;
  core::Options comp = uniform;
  comp.composition_stats = true;
  const auto ru = Session(b1, uniform).search_collect(b2);
  const auto rc = Session(b1, comp).search_collect(b2);
  ASSERT_GE(ru.alignments.size(), 1u);
  ASSERT_GE(rc.alignments.size(), 1u);
  // Match the strongest alignment of each run (same region) and compare.
  EXPECT_GT(rc.alignments[0].evalue, 0.0);
  EXPECT_GT(rc.alignments[0].evalue / std::max(1e-300, ru.alignments[0].evalue),
            1.0);
}

TEST(CompositionStats, UniformDataUnchanged) {
  simulate::Rng rng(911);
  const auto hp = simulate::make_homologous_pair(rng, 400, 4, 3, 0.04);
  core::Options uniform;
  uniform.dust = false;
  core::Options comp = uniform;
  comp.composition_stats = true;
  const auto ru = Session(hp.bank1, uniform).search_collect(hp.bank2);
  const auto rc = Session(hp.bank1, comp).search_collect(hp.bank2);
  ASSERT_EQ(ru.alignments.size(), rc.alignments.size());
  for (std::size_t i = 0; i < ru.alignments.size(); ++i) {
    // Same alignments; e-values shift by <20% on ~uniform data.
    EXPECT_EQ(ru.alignments[i].s1, rc.alignments[i].s1);
    const double ratio = rc.alignments[i].evalue /
                         std::max(1e-300, ru.alignments[i].evalue);
    EXPECT_GT(ratio, 0.2);
    EXPECT_LT(ratio, 5.0);
  }
}

TEST(CompositionStats, KarlinSolverAgreesWithBankMeasurement) {
  // The lambda used by composition_stats equals solving with the measured
  // frequencies directly.
  simulate::Rng rng(913);
  seqio::SequenceBank bank;
  bank.add_codes("s", simulate::random_codes(rng, 30000, {0.3, 0.2, 0.3, 0.2}));
  const auto f = bank.base_frequencies();
  const auto params = stats::solve_karlin(stats::match_mismatch_distribution(
      1, 3, {f[0], f[1], f[2], f[3]}));
  EXPECT_TRUE(params.valid());
  const auto uniform = stats::karlin_match_mismatch(1, 3);
  EXPECT_LT(params.lambda, uniform.lambda);  // skew raises match probability
}

}  // namespace
}  // namespace scoris
