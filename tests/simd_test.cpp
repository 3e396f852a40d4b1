// Differential tests for the SIMD match-run kernels and their dispatch
// layer: every kernel (scalar, SSE4.1, AVX2) must produce IDENTICAL
// results — the same run lengths, the same HSP sets, the same order-abort
// decisions — because the CI determinism matrix byte-diffs forced-scalar
// m8 output against the dispatched run.  Kernels the CPU lacks are
// skipped, never failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "align/simd/kernel_dispatch.hpp"
#include "align/simd/kernels.hpp"
#include "align/ungapped.hpp"
#include "core/ordered_extend.hpp"
#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris {
namespace {

using align::Hsp;
using align::simd::Kernel;
using align::simd::KernelOps;
using index::BankIndex;
using index::SeedCode;
using index::SeedCoder;
using seqio::Code;
using seqio::kAmbiguous;
using seqio::kSentinel;
using testing_str = std::basic_string<Code>;

/// Every kernel the build AND this CPU can run (scalar always included).
std::vector<const KernelOps*> supported_kernels() {
  std::vector<const KernelOps*> out;
  for (const Kernel k : {Kernel::kScalar, Kernel::kSse41, Kernel::kAvx2}) {
    if (align::simd::cpu_supports(k)) {
      out.push_back(&align::simd::kernel(k));
    }
  }
  return out;
}

// --- raw kernel semantics ---------------------------------------------------

class KernelSweep : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (!align::simd::cpu_supports(GetParam())) {
      GTEST_SKIP() << "CPU lacks " << align::simd::to_string(GetParam());
    }
    ops_ = &align::simd::kernel(GetParam());
  }
  const KernelOps* ops_ = nullptr;
};

TEST_P(KernelSweep, ForwardRunStopsAtFirstNonMatch) {
  // Long enough to exercise the 32-wide vector loop, a partial block, and
  // the scalar tail; probe every mismatch position.
  constexpr std::size_t kLen = 100;
  for (std::size_t stop = 0; stop <= kLen; ++stop) {
    testing_str a(kLen, seqio::kA);
    testing_str b(kLen, seqio::kA);
    if (stop < kLen) b[stop] = seqio::kC;
    EXPECT_EQ(ops_->match_run_fwd(a.data(), b.data(), kLen), stop)
        << "mismatch at " << stop;
  }
}

TEST_P(KernelSweep, BackwardRunStopsAtFirstNonMatch) {
  constexpr std::size_t kLen = 100;
  for (std::size_t stop = 0; stop <= kLen; ++stop) {
    testing_str a(kLen, seqio::kG);
    testing_str b(kLen, seqio::kG);
    // Backward walk examines a[kLen-1], a[kLen-2], ...; plant the
    // mismatch so exactly `stop` characters match before it.
    if (stop < kLen) a[kLen - 1 - stop] = seqio::kT;
    EXPECT_EQ(ops_->match_run_bwd(a.data() + kLen, b.data() + kLen, kLen),
              stop)
        << "mismatch depth " << stop;
  }
}

TEST_P(KernelSweep, EqualMarkersAreNotMatches) {
  // Equal kAmbiguous or kSentinel bytes compare equal but must not count
  // as matches (the scalar predicate is is_base(a) && a == b).
  for (const Code marker : {kAmbiguous, kSentinel}) {
    testing_str a(40, seqio::kC);
    testing_str b(40, seqio::kC);
    a[7] = marker;
    b[7] = marker;
    EXPECT_EQ(ops_->match_run_fwd(a.data(), b.data(), 40), 7u);
    EXPECT_EQ(ops_->match_run_bwd(a.data() + 40, b.data() + 40, 40), 32u);
  }
}

TEST_P(KernelSweep, RespectsMaxBound) {
  testing_str a(64, seqio::kT);
  testing_str b(64, seqio::kT);
  for (const std::size_t max : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 64u}) {
    EXPECT_EQ(ops_->match_run_fwd(a.data(), b.data(), max), max);
    EXPECT_EQ(ops_->match_run_bwd(a.data() + 64, b.data() + 64, max), max);
  }
}

TEST_P(KernelSweep, AgreesWithScalarOnRandomArrays) {
  simulate::Rng rng(20260808);
  const KernelOps& scalar = align::simd::kernel(Kernel::kScalar);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = 1 + rng.next_below(120);
    testing_str a(len, 0);
    testing_str b(len, 0);
    for (std::size_t i = 0; i < len; ++i) {
      a[i] = static_cast<Code>(rng.next_below(4));
      // Bias towards matches so long runs actually occur, and sprinkle
      // markers to hit the not-a-base lanes.
      b[i] = rng.next_bool(0.8) ? a[i] : static_cast<Code>(rng.next_below(4));
      if (rng.next_bool(0.03)) a[i] = kAmbiguous;
      if (rng.next_bool(0.02)) b[i] = rng.next_bool(0.5) ? a[i] : kSentinel;
    }
    const std::size_t max = rng.next_below(len + 1);
    EXPECT_EQ(ops_->match_run_fwd(a.data(), b.data(), max),
              scalar.match_run_fwd(a.data(), b.data(), max));
    EXPECT_EQ(ops_->match_run_bwd(a.data() + len, b.data() + len, max),
              scalar.match_run_bwd(a.data() + len, b.data() + len, max));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweep,
                         ::testing::Values(Kernel::kScalar, Kernel::kSse41,
                                           Kernel::kAvx2),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kernel::kSse41:
                               return "Sse41";
                             case Kernel::kAvx2:
                               return "Avx2";
                             default:
                               return "Scalar";
                           }
                         });

// --- dispatch layer ---------------------------------------------------------

TEST(KernelDispatch, SelectForcedReturnsScalar) {
  const KernelOps& ops = align::simd::select(true);
  EXPECT_EQ(ops.kind, Kernel::kScalar);
  EXPECT_STREQ(ops.name, "scalar");
}

TEST(KernelDispatch, DispatchReturnsSupportedKernel) {
  const KernelOps& ops = align::simd::dispatch();
  EXPECT_TRUE(align::simd::cpu_supports(ops.kind));
  EXPECT_STREQ(ops.name, align::simd::to_string(ops.kind));
  EXPECT_NE(ops.match_run_fwd, nullptr);
  EXPECT_NE(ops.match_run_bwd, nullptr);
}

TEST(KernelDispatch, UnsupportedKernelThrows) {
  for (const Kernel k : {Kernel::kSse41, Kernel::kAvx2}) {
    if (align::simd::cpu_supports(k)) continue;
    EXPECT_THROW((void)align::simd::kernel(k), std::runtime_error);
  }
  // Scalar can never throw.
  EXPECT_NO_THROW((void)align::simd::kernel(Kernel::kScalar));
}

// --- differential: plain ungapped extension ---------------------------------

TEST(SimdDifferential, PlainExtensionIdenticalAcrossKernels) {
  simulate::Rng rng(424242);
  const align::ScoringParams params;
  const auto kernels = supported_kernels();
  for (int trial = 0; trial < 50; ++trial) {
    // Sentinel-framed pair with a shared middle, like bank data.
    auto core = simulate::random_codes(rng, 120);
    auto left1 = simulate::random_codes(rng, 30);
    auto left2 = simulate::random_codes(rng, 25);
    testing_str s1, s2;
    s1 += kSentinel;
    s1 += left1;
    s1 += core;
    s1 += kSentinel;
    s2 += kSentinel;
    s2 += left2;
    s2 += simulate::mutate(rng, core,
                           simulate::MutationModel::with_divergence(0.08));
    s2 += kSentinel;
    const auto p1 = static_cast<seqio::Pos>(1 + left1.size() + 20);
    const auto p2 = static_cast<seqio::Pos>(1 + left2.size() + 20);

    const Hsp base = align::extend_ungapped(s1, s2, p1, p2, 11, params,
                                            *kernels.front());
    for (const KernelOps* ops : kernels) {
      const Hsp h = align::extend_ungapped(s1, s2, p1, p2, 11, params, *ops);
      EXPECT_EQ(h, base) << "kernel " << ops->name << " trial " << trial;
    }
  }
}

// --- differential: full step-2 scan over random banks -----------------------

/// Random bank builder with the nasty cases: ambiguity codes inside
/// sequences (seed interruptions, equal-N pairs) and short sequences whose
/// seeds sit flush against the sentinels.
seqio::SequenceBank nasty_bank(simulate::Rng& rng, const std::string& name,
                               std::size_t seqs, std::size_t len) {
  seqio::SequenceBank bank(name);
  for (std::size_t s = 0; s < seqs; ++s) {
    auto codes = simulate::random_codes(rng, 1 + rng.next_below(len));
    for (auto& c : codes) {
      if (rng.next_bool(0.02)) c = kAmbiguous;
    }
    bank.add_codes("s" + std::to_string(s), codes);
  }
  return bank;
}

struct ScanOutcome {
  std::vector<Hsp> hsps;
  std::size_t hit_pairs = 0;
  std::size_t order_aborts = 0;

  bool operator==(const ScanOutcome&) const = default;
};

ScanOutcome scan_with(const BankIndex& i1, const BankIndex& i2,
                      const KernelOps& ops, bool enforce_order) {
  core::SeedScanParams params;
  params.min_hsp_score = 14;
  params.enforce_order = enforce_order;
  params.kernel = &ops;
  core::SeedScanResult r;
  core::scan_seed_range(i1, i2, params, 0, i1.coder().num_seeds(), r);
  return {std::move(r.hsps), r.hit_pairs, r.order_aborts};
}

class ScanDifferentialSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ScanDifferentialSweep, IdenticalHspStreamAcrossKernels) {
  const auto [w, seed] = GetParam();
  simulate::Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 3);
  // Two related banks: shared homology plus nasty_bank noise so both the
  // extension and the abort paths fire.
  auto b1 = nasty_bank(rng, "b1", 4, 160);
  auto b2 = nasty_bank(rng, "b2", 4, 160);
  const auto shared = simulate::random_codes(rng, 140);
  b1.add_codes("h1", shared);
  b2.add_codes("h2", simulate::mutate(
                         rng, shared,
                         simulate::MutationModel::with_divergence(0.06)));
  b2.add_codes("h3", shared);  // exact repeat: order aborts guaranteed

  const SeedCoder coder(w);
  const BankIndex i1(b1, coder), i2(b2, coder);

  for (const bool enforce_order : {true, false}) {
    const ScanOutcome base =
        scan_with(i1, i2, align::simd::kernel(Kernel::kScalar),
                  enforce_order);
    if (enforce_order) {
      EXPECT_GT(base.hit_pairs, 0u) << "sweep produced no hits";
    }
    for (const KernelOps* ops : supported_kernels()) {
      const ScanOutcome got = scan_with(i1, i2, *ops, enforce_order);
      EXPECT_EQ(got, base) << "kernel " << ops->name << " w=" << w
                           << " seed=" << seed
                           << " order=" << enforce_order;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WordSizesAndSeeds, ScanDifferentialSweep,
    ::testing::Combine(::testing::Values(4, 8, 11),  // incl. the W floor
                       ::testing::Range(1, 5)));

// --- differential: per-pair abort decisions ---------------------------------

TEST(SimdDifferential, AbortDecisionsIdenticalAcrossKernels) {
  simulate::Rng rng(777);
  const align::ScoringParams params;
  // A repeat-rich pair: tandem copies make the order rule fire often.
  const auto element = simulate::random_codes(rng, 50);
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", element + simulate::random_codes(rng, 40) + element);
  b2.add_codes("t", element + element);

  const SeedCoder coder(8);
  const BankIndex i1(b1, coder), i2(b2, coder);
  const auto kernels = supported_kernels();

  std::size_t pairs = 0;
  std::size_t aborts = 0;
  for (SeedCode c = 0; c < coder.num_seeds(); ++c) {
    i1.for_each(c, [&](seqio::Pos p1) {
      i2.for_each(c, [&](seqio::Pos p2) {
        ++pairs;
        const auto base = core::extend_ordered(i1, i2, p1, p2, c, params,
                                               *kernels.front());
        if (base.aborted_left || base.aborted_right) ++aborts;
        for (const KernelOps* ops : kernels) {
          const auto got =
              core::extend_ordered(i1, i2, p1, p2, c, params, *ops);
          EXPECT_EQ(got.aborted_left, base.aborted_left)
              << ops->name << " at " << p1 << "," << p2;
          EXPECT_EQ(got.aborted_right, base.aborted_right)
              << ops->name << " at " << p1 << "," << p2;
          EXPECT_EQ(got.hsp.has_value(), base.hsp.has_value());
          if (got.hsp.has_value() && base.hsp.has_value()) {
            EXPECT_EQ(*got.hsp, *base.hsp);
          }
        }
      });
    });
  }
  EXPECT_GT(pairs, 0u);
  EXPECT_GT(aborts, 0u) << "repeat input should trigger order aborts";
}

// --- sentinel-adjacent seeds ------------------------------------------------

TEST(SimdDifferential, SeedsFlushAgainstSentinelsExtendIdentically) {
  // Sequences exactly W long: the seed's first/last characters touch the
  // sentinels, so both extensions stop immediately — the kernels must not
  // read (or match) past them.
  const align::ScoringParams params;
  const auto word = testing::codes_of("ACGTACGTACG");  // 11 nt
  seqio::SequenceBank b1("b1"), b2("b2");
  b1.add_codes("s", word);
  b2.add_codes("t", word);
  const SeedCoder coder(11);
  const BankIndex i1(b1, coder), i2(b2, coder);
  ASSERT_EQ(i1.total_indexed(), 1u);

  for (const KernelOps* ops : supported_kernels()) {
    const auto o = core::extend_ordered(i1, i2, 1, 1,
                                        coder.code_unchecked(b1.data(), 1),
                                        params, *ops);
    ASSERT_TRUE(o.hsp.has_value()) << ops->name;
    EXPECT_EQ(o.hsp->s1, 1);
    EXPECT_EQ(o.hsp->e1, 12);
    EXPECT_EQ(o.hsp->score, 11 * params.match) << ops->name;
  }
}

// --- the index's occurrence lists ------------------------------------------

/// Brute-force reference for a BankIndex build: code every position with
/// SeedCoder::code_at, keep those the sequence-local stride and the mask
/// select, and bucket them by code in ascending position order.
std::vector<std::vector<std::int32_t>> oracle_buckets(
    const seqio::SequenceBank& bank, const SeedCoder& coder, int stride,
    const filter::MaskBitmap* mask) {
  std::vector<std::vector<std::int32_t>> buckets(coder.num_seeds());
  const auto w = static_cast<std::size_t>(coder.w());
  for (std::size_t s = 0; s < bank.size(); ++s) {
    for (std::size_t local = 0; local < bank.length(s); ++local) {
      const std::size_t p = bank.offset(s) + local;
      const auto code = coder.code_at(bank.data(), p);
      if (!code || local % static_cast<std::size_t>(stride) != 0) continue;
      if (mask != nullptr && mask->any_in(p, w)) continue;
      buckets[*code].push_back(static_cast<std::int32_t>(p));
    }
  }
  return buckets;
}

TEST(OccurrenceLists, MatchBruteForceOracle) {
  simulate::Rng rng(99);
  // Low-complexity runs between random flanks, so some words straddle a
  // masked region's edge.
  seqio::SequenceBank low_complexity("dusty");
  for (const char base : {'A', 'C'}) {
    auto codes = simulate::random_codes(rng, 120);
    const auto run = testing::codes_of(std::string(60, base));
    const auto tail = simulate::random_codes(rng, 120);
    codes.insert(codes.end(), run.begin(), run.end());
    codes.insert(codes.end(), tail.begin(), tail.end());
    low_complexity.add_codes(std::string("poly_") + base, codes);
  }
  low_complexity.add_codes("random", simulate::random_codes(rng, 300));
  seqio::SequenceBank n_runs("n_runs");
  n_runs.add("a", "ACGTACNNNNNACGTACGTANACGTTTGCANNNGATTACAGATTACA");
  n_runs.add("b", "NNNNNNNNNN");
  n_runs.add("c", "GATTACNGATTAC");
  seqio::SequenceBank short_seqs("short");
  short_seqs.add("a", "ACG");
  short_seqs.add("b", "ACGTA");
  short_seqs.add("c", "ACGTAC");
  short_seqs.add("d", "T");
  const seqio::SequenceBank nasty = nasty_bank(rng, "nasty", 8, 200);
  const seqio::SequenceBank empty("empty");
  const filter::MaskBitmap dust = filter::dust_mask(low_complexity);
  ASSERT_GT(dust.count(), 0u);

  struct Case {
    const char* name;
    const seqio::SequenceBank* bank;
    int stride;
    const filter::MaskBitmap* mask;
  };
  const SeedCoder coder(6);
  const Case cases[] = {
      {"nasty stride 1", &nasty, 1, nullptr},
      {"nasty stride 2", &nasty, 2, nullptr},
      {"nasty stride W", &nasty, coder.w(), nullptr},
      {"dust stride 1", &low_complexity, 1, &dust},
      {"dust stride 2", &low_complexity, 2, &dust},
      {"N runs", &n_runs, 1, nullptr},
      {"N runs stride 2", &n_runs, 2, nullptr},
      {"shorter than W", &short_seqs, 1, nullptr},
      {"empty bank", &empty, 1, nullptr},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    index::IndexOptions opt;
    opt.stride = c.stride;
    opt.mask = c.mask;
    const BankIndex idx(*c.bank, coder, opt);
    const auto buckets = oracle_buckets(*c.bank, coder, c.stride, c.mask);

    ASSERT_EQ(idx.occurrence_offsets().size(), coder.num_seeds() + 1);
    filter::MaskBitmap starts(c.bank->data_size());
    std::size_t total = 0;
    std::size_t distinct = 0;
    for (SeedCode code = 0; code < coder.num_seeds(); ++code) {
      const auto span = idx.occurrences_span(code);
      const auto& want = buckets[code];
      ASSERT_EQ(span.size(), want.size()) << "code " << code;
      ASSERT_TRUE(std::equal(span.begin(), span.end(), want.begin()))
          << "code " << code;
      EXPECT_EQ(idx.occurrence_count(code), want.size());
      for (const std::int32_t p : want) {
        starts.set(static_cast<std::size_t>(p));
      }
      total += want.size();
      distinct += want.empty() ? 0 : 1;
    }
    EXPECT_EQ(idx.total_indexed(), total);
    EXPECT_EQ(idx.distinct_seeds(), distinct);
    for (std::size_t p = 0; p < c.bank->data_size(); ++p) {
      ASSERT_EQ(idx.is_indexed(static_cast<seqio::Pos>(p)), starts.test(p))
          << "position " << p;
    }
    EXPECT_EQ(idx.dictionary_bytes(),
              (coder.num_seeds() + 1) * sizeof(std::uint32_t));
    EXPECT_EQ(idx.chain_bytes(), total * sizeof(std::int32_t));
    EXPECT_EQ(idx.memory_bytes(), idx.dictionary_bytes() + idx.chain_bytes());
    EXPECT_EQ(idx.occurrence_bytes(), 0u);
  }
}

}  // namespace
}  // namespace scoris
