// Differential tests for the SIMD match-run kernels and their dispatch
// layer: every kernel (scalar, AVX2) must produce IDENTICAL
// results — the same run lengths, the same HSP sets, the same order-abort
// decisions — because the CI determinism matrix byte-diffs forced-scalar
// m8 output against the dispatched run.  Kernels the CPU lacks are
// skipped, never failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "align/simd/kernel_dispatch.hpp"
#include "align/simd/kernels.hpp"
#include "align/ungapped.hpp"
#include "core/ordered_extend.hpp"
#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "index/subject_index.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"
#include "util/threading.hpp"

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
  for (const Kernel k : {Kernel::kScalar, Kernel::kAvx2}) {
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
                         ::testing::Values(Kernel::kScalar, Kernel::kAvx2),
                         [](const auto& info) {
                           return info.param == Kernel::kAvx2 ? "Avx2"
                                                              : "Scalar";
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
  if (!align::simd::cpu_supports(Kernel::kAvx2)) {
    EXPECT_THROW((void)align::simd::kernel(Kernel::kAvx2), std::runtime_error);
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
    bank.add_codes(testing::numbered("s", s), codes);
  }
  return bank;
}

struct ScanOutcome {
  std::vector<Hsp> hsps;
  std::size_t hit_pairs = 0;
  std::size_t order_aborts = 0;

  bool operator==(const ScanOutcome&) const = default;
};

/// Step 2 over the seed codes [lo, hi), with either subject index.
template <typename Subject>
ScanOutcome scan_range_with(const BankIndex& i1, const Subject& i2,
                            const KernelOps& ops, bool enforce_order,
                            SeedCode lo, SeedCode hi) {
  core::SeedScanParams params;
  params.min_hsp_score = 14;
  params.enforce_order = enforce_order;
  params.kernel = &ops;
  core::SeedScanResult r;
  core::scan_seed_range(i1, i2, params, lo, hi, r);
  return {std::move(r.hsps), r.hit_pairs, r.order_aborts};
}

ScanOutcome scan_with(const BankIndex& i1, const BankIndex& i2,
                      const KernelOps& ops, bool enforce_order) {
  return scan_range_with(i1, i2, ops, enforce_order, 0,
                         static_cast<SeedCode>(i1.coder().num_seeds()));
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

// --- differential: sparse subject index vs dense subject --------------------

/// A SubjectIndex subject walks only the codes it holds; a BankIndex
/// subject walks every code.  Both must visit the same pairs in the same
/// order, so the HSP vector and the counters match for the full range,
/// for ranges cut inside a bucket, and for a shard partition — with the
/// order rule on and off, under the scalar and the dispatched kernel, for
/// plain, stride-2 and DUST-masked subjects.  A subject built on a pool
/// of three threads must give the same full scan.
class SubjectScanSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SubjectScanSweep, MatchesDenseSubjectOverAnyRange) {
  const auto [w, seed] = GetParam();
  simulate::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
  auto b1 = nasty_bank(rng, "b1", 4, 160);
  auto b2 = nasty_bank(rng, "b2", 4, 160);
  const auto shared = simulate::random_codes(rng, 140);
  b1.add_codes("h1", shared);
  b2.add_codes("h2", simulate::mutate(
                         rng, shared,
                         simulate::MutationModel::with_divergence(0.06)));
  b2.add_codes("h3", shared);  // exact repeat: order aborts guaranteed
  // A low-complexity run, homologous on both sides, that DUST masks.
  const auto poly = testing::codes_of(std::string(48, 'A') + "CACACACACA");
  b1.add_codes("p1", shared + poly);
  b2.add_codes("p2", shared + poly);

  const SeedCoder coder(w);
  const BankIndex i1(b1, coder);
  const filter::MaskBitmap dust = filter::dust_mask(b2);
  ASSERT_GT(dust.count(), 0u);
  const auto all = static_cast<SeedCode>(coder.num_seeds());
  util::ThreadPool pool(3);

  struct Shape {
    const char* name;
    int stride;
    const filter::MaskBitmap* mask;
  };
  for (const Shape& shape : {Shape{"plain", 1, nullptr},
                             Shape{"stride 2", 2, nullptr},
                             Shape{"dust", 1, &dust}}) {
    SCOPED_TRACE(shape.name);
    index::IndexOptions opt;
    opt.stride = shape.stride;
    opt.mask = shape.mask;
    const BankIndex dense(b2, coder, opt);
    const index::SubjectIndex sparse(b2, coder, opt);
    opt.pool = &pool;
    const index::SubjectIndex pooled(b2, coder, opt);

    // Cut points off the bucket edges whenever a bucket spans more than
    // one code, so ranges start and end inside a bucket.
    const SeedCode in_bucket = (SeedCode{1} << sparse.low_bits()) - 1;
    std::vector<SeedCode> cuts;
    for (int k = 0; k < 4; ++k) {
      SeedCode cut = 1 + static_cast<SeedCode>(rng.next_below(all - 1));
      if (in_bucket != 0 && (cut & in_bucket) == 0) cut |= 1;
      cuts.push_back(cut);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    for (const bool enforce_order : {true, false}) {
      for (const KernelOps* ops : {&align::simd::kernel(Kernel::kScalar),
                                   &align::simd::dispatch()}) {
        SCOPED_TRACE(std::string(ops->name) +
                     (enforce_order ? " ordered" : " plain"));
        const ScanOutcome full =
            scan_range_with(i1, dense, *ops, enforce_order, 0, all);
        if (enforce_order) {
          EXPECT_GT(full.hit_pairs, 0u);
        }
        EXPECT_EQ(scan_range_with(i1, sparse, *ops, enforce_order, 0, all),
                  full);
        EXPECT_EQ(scan_range_with(i1, pooled, *ops, enforce_order, 0, all),
                  full);

        for (std::size_t a = 0; a < cuts.size(); ++a) {
          for (std::size_t b = a + 1; b < cuts.size(); ++b) {
            EXPECT_EQ(scan_range_with(i1, sparse, *ops, enforce_order,
                                      cuts[a], cuts[b]),
                      scan_range_with(i1, dense, *ops, enforce_order,
                                      cuts[a], cuts[b]))
                << "[" << cuts[a] << ", " << cuts[b] << ")";
          }
        }

        // The shards of a partition, concatenated in order, are the
        // full scan.
        ScanOutcome joined;
        SeedCode lo = 0;
        std::vector<SeedCode> his = cuts;
        his.push_back(all);
        for (const SeedCode hi : his) {
          ScanOutcome part =
              scan_range_with(i1, sparse, *ops, enforce_order, lo, hi);
          joined.hsps.insert(joined.hsps.end(), part.hsps.begin(),
                             part.hsps.end());
          joined.hit_pairs += part.hit_pairs;
          joined.order_aborts += part.order_aborts;
          lo = hi;
        }
        EXPECT_EQ(joined, full);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WordSizesAndSeeds, SubjectScanSweep,
    // 4 and 8: one code per bucket; 9 and 11: 4 and 64 codes per bucket.
    ::testing::Combine(::testing::Values(4, 8, 9, 11),
                       ::testing::Range(1, 4)));

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

/// One seed code's word starts, ascending.
struct CodeRun {
  SeedCode code = 0;
  std::vector<std::int32_t> positions;

  bool operator==(const CodeRun&) const = default;
};

/// Brute-force reference for an index build: code every position with
/// SeedCoder::code_at, keep those the sequence-local stride and the mask
/// select, sort them by (code, position) and group them by code.  A
/// sorted list rather than 4^W buckets, so W = 13 stays small.
std::vector<CodeRun> oracle_runs(const seqio::SequenceBank& bank,
                                 const SeedCoder& coder, int stride,
                                 const filter::MaskBitmap* mask) {
  std::vector<std::pair<SeedCode, std::int32_t>> words;
  const auto w = static_cast<std::size_t>(coder.w());
  for (std::size_t s = 0; s < bank.size(); ++s) {
    for (std::size_t local = 0; local < bank.length(s); ++local) {
      const std::size_t p = bank.offset(s) + local;
      const auto code = coder.code_at(bank.data(), p);
      if (!code || local % static_cast<std::size_t>(stride) != 0) continue;
      if (mask != nullptr && mask->any_in(p, w)) continue;
      words.emplace_back(*code, static_cast<std::int32_t>(p));
    }
  }
  std::sort(words.begin(), words.end());
  std::vector<CodeRun> runs;
  for (const auto& [code, p] : words) {
    if (runs.empty() || runs.back().code != code) runs.push_back({code, {}});
    runs.back().positions.push_back(p);
  }
  return runs;
}

/// One index build's input: a bank, its stride and its optional mask.
struct BuildCase {
  const char* name;
  const seqio::SequenceBank* bank;
  int stride;
  const filter::MaskBitmap* mask;
};

/// The banks OccurrenceLists.MatchBruteForceOracle indexes at every W:
/// low-complexity runs under DUST, N runs, sequences shorter than W, noisy
/// sequences, an empty bank, and two crowded buckets built for each W.
class OracleBanks {
 public:
  explicit OracleBanks(simulate::Rng& rng) {
    // Low-complexity runs between random flanks, so some words straddle a
    // masked region's edge.
    for (const char base : {'A', 'C'}) {
      auto codes = simulate::random_codes(rng, 120);
      const auto run = testing::codes_of(std::string(60, base));
      const auto tail = simulate::random_codes(rng, 120);
      codes.insert(codes.end(), run.begin(), run.end());
      codes.insert(codes.end(), tail.begin(), tail.end());
      low_complexity_.add_codes(std::string("poly_") + base, codes);
    }
    low_complexity_.add_codes("random", simulate::random_codes(rng, 300));
    n_runs_.add("a", "ACGTACNNNNNACGTACGTANACGTTTGCANNNGATTACAGATTACA");
    n_runs_.add("b", "NNNNNNNNNN");
    n_runs_.add("c", "GATTACNGATTAC");
    short_seqs_.add("a", "ACG");
    short_seqs_.add("b", "ACGTA");
    short_seqs_.add("c", "ACGTAC");
    short_seqs_.add("d", "T");
    nasty_ = nasty_bank(rng, "nasty", 8, 200);
    dust_ = filter::dust_mask(low_complexity_);
  }

  [[nodiscard]] const filter::MaskBitmap& dust() const { return dust_; }

  /// Every case at `coder`'s W.  Two crowded buckets of words that share
  /// all but their low code characters are drawn from `rng` for each W:
  /// one larger and one smaller than the build's 4096-entry sort scratch.
  std::vector<BuildCase> cases(simulate::Rng& rng, const SeedCoder& coder) {
    const int w = coder.w();
    crowded_ = seqio::SequenceBank("crowded");
    const int low_chars = std::clamp(w - 8, 0, 4);
    for (const auto& [tail, copies] : {std::pair{'A', 5000},
                                       std::pair{'C', 1000}}) {
      const auto rest = testing::codes_of(std::string(w - low_chars, tail));
      for (int k = 0; k < copies; ++k) {
        auto codes = simulate::random_codes(
            rng, static_cast<std::size_t>(low_chars));
        codes.insert(codes.end(), rest.begin(), rest.end());
        crowded_.add_codes(
            testing::numbered(std::string(1, tail),
                              static_cast<std::uint64_t>(k)),
            codes);
      }
    }
    return {
        {"crowded buckets", &crowded_, 1, nullptr},
        {"nasty stride 1", &nasty_, 1, nullptr},
        {"nasty stride 2", &nasty_, 2, nullptr},
        {"nasty stride W", &nasty_, w, nullptr},
        {"dust stride 1", &low_complexity_, 1, &dust_},
        {"dust stride 2", &low_complexity_, 2, &dust_},
        {"N runs", &n_runs_, 1, nullptr},
        {"N runs stride 2", &n_runs_, 2, nullptr},
        {"shorter than W", &short_seqs_, 1, nullptr},
        {"empty bank", &empty_, 1, nullptr},
    };
  }

 private:
  seqio::SequenceBank low_complexity_{"dusty"};
  seqio::SequenceBank n_runs_{"n_runs"};
  seqio::SequenceBank short_seqs_{"short"};
  seqio::SequenceBank nasty_{"nasty"};
  seqio::SequenceBank empty_{"empty"};
  seqio::SequenceBank crowded_{"crowded"};
  filter::MaskBitmap dust_;
};

TEST(OccurrenceLists, MatchBruteForceOracle) {
  simulate::Rng rng(99);
  OracleBanks banks(rng);
  ASSERT_GT(banks.dust().count(), 0u);

  // Both index types against the oracle.  The reference index is checked
  // up to W = 11: its 4^13 + 1 offsets alone would take 256 MiB.
  for (const int w : {4, 6, 8, 9, 11, 13}) {
    const SeedCoder coder(w);
    for (const BuildCase& c : banks.cases(rng, coder)) {
      std::string trace(c.name);
      trace += testing::numbered(", w=", static_cast<std::uint64_t>(w));
      SCOPED_TRACE(trace);
      index::IndexOptions opt;
      opt.stride = c.stride;
      opt.mask = c.mask;
      const auto runs = oracle_runs(*c.bank, coder, c.stride, c.mask);
      filter::MaskBitmap starts(c.bank->data_size());
      std::size_t total = 0;
      for (const CodeRun& r : runs) {
        for (const std::int32_t p : r.positions) {
          starts.set(static_cast<std::size_t>(p));
        }
        total += r.positions.size();
      }

      // The subject index walks exactly the oracle's runs, in order.
      const index::SubjectIndex sub(*c.bank, coder, opt);
      std::vector<CodeRun> walked;
      sub.for_each_code(0, static_cast<SeedCode>(coder.num_seeds()),
                        [&](SeedCode code,
                            std::span<const std::int32_t> occ) {
                          walked.push_back({code, {occ.begin(), occ.end()}});
                        });
      ASSERT_EQ(walked, runs);
      EXPECT_EQ(sub.total_indexed(), total);
      for (std::size_t p = 0; p < c.bank->data_size(); ++p) {
        ASSERT_EQ(sub.is_indexed(static_cast<seqio::Pos>(p)), starts.test(p))
            << "position " << p;
      }
      // A fixed table of at most 4^9 + 1 starts, and 4 position bytes
      // plus (above W = 8) one low-code byte per word start.
      EXPECT_EQ(sub.low_bits(), w > 8 ? 2u * static_cast<unsigned>(
                                                std::min(w - 8, 4))
                                      : 0u);
      EXPECT_EQ(sub.dictionary_bytes(),
                ((coder.num_seeds() >> sub.low_bits()) + 1) *
                    sizeof(std::uint32_t));
      EXPECT_LE(sub.dictionary_bytes(),
                ((std::size_t{1} << 18) + 1) * sizeof(std::uint32_t));
      EXPECT_EQ(sub.chain_bytes(),
                total * (sizeof(std::int32_t) + (w > 8 ? 1 : 0)));
      EXPECT_EQ(sub.memory_bytes(), sub.dictionary_bytes() + sub.chain_bytes());

      if (w > 11) continue;
      const BankIndex idx(*c.bank, coder, opt);
      ASSERT_EQ(idx.occurrence_offsets().size(), coder.num_seeds() + 1);
      for (const CodeRun& r : runs) {
        const auto span = idx.occurrences_span(r.code);
        ASSERT_TRUE(std::equal(span.begin(), span.end(),
                               r.positions.begin(), r.positions.end()))
            << "code " << r.code;
        EXPECT_EQ(idx.occurrence_count(r.code), r.positions.size());
      }
      // The runs hold every position the offsets delimit, so every other
      // code's list is empty.
      EXPECT_EQ(idx.total_indexed(), total);
      EXPECT_EQ(idx.distinct_seeds(), runs.size());
      EXPECT_EQ(idx.indexed_bitmap().words(), sub.indexed_bitmap().words());
      EXPECT_EQ(idx.dictionary_bytes(),
                (coder.num_seeds() + 1) * sizeof(std::uint32_t));
      EXPECT_EQ(idx.chain_bytes(), total * sizeof(std::int32_t));
      EXPECT_EQ(idx.memory_bytes(),
                idx.dictionary_bytes() + idx.chain_bytes());
      EXPECT_EQ(idx.occurrence_bytes(), 0u);
    }
  }
}

// --- the build on a pool ---------------------------------------------------

/// A SubjectIndex's arrays, read through its walk: the runs of every
/// code in order, the word-start bitmap and the byte counts.
struct SubjectArrays {
  std::vector<CodeRun> runs;
  std::vector<std::uint64_t> bitmap;
  std::size_t dictionary_bytes = 0;
  std::size_t chain_bytes = 0;

  bool operator==(const SubjectArrays&) const = default;
  friend void PrintTo(const SubjectArrays& a, std::ostream* os) {
    *os << "{" << a.runs.size() << " codes, " << a.bitmap.size()
        << " bitmap words, " << a.dictionary_bytes << " + " << a.chain_bytes
        << " bytes}";
  }
};

SubjectArrays arrays_of(const index::SubjectIndex& sub,
                        const SeedCoder& coder) {
  SubjectArrays out;
  sub.for_each_code(0, static_cast<SeedCode>(coder.num_seeds()),
                    [&](SeedCode code, std::span<const std::int32_t> occ) {
                      out.runs.push_back({code, {occ.begin(), occ.end()}});
                    });
  out.bitmap = sub.indexed_bitmap().words();
  out.dictionary_bytes = sub.dictionary_bytes();
  out.chain_bytes = sub.chain_bytes();
  return out;
}

/// A BankIndex's arrays and counters.
struct BankArrays {
  std::vector<std::uint32_t> offsets;
  std::vector<std::int32_t> positions;
  std::vector<std::uint64_t> bitmap;
  std::size_t total_indexed = 0;
  std::size_t distinct_seeds = 0;
  std::size_t masked_bases = 0;

  bool operator==(const BankArrays&) const = default;
  friend void PrintTo(const BankArrays& a, std::ostream* os) {
    *os << "{" << a.offsets.size() << " offsets, " << a.positions.size()
        << " positions, " << a.bitmap.size() << " bitmap words, "
        << a.total_indexed << " indexed, " << a.distinct_seeds
        << " seeds, " << a.masked_bases << " masked}";
  }
};

BankArrays arrays_of(const BankIndex& idx) {
  const auto offsets = idx.occurrence_offsets();
  const auto positions = idx.occurrence_positions();
  return {{offsets.begin(), offsets.end()},
          {positions.begin(), positions.end()},
          idx.indexed_bitmap().words(),
          idx.total_indexed(),
          idx.distinct_seeds(),
          idx.masked_bases()};
}

/// Every oracle case, plus shapes for the build's position ranges, built
/// inline and on pools of 1 to 4 threads: each build must hold the inline
/// build's arrays.  Ranges are cut at multiples of 64 positions, and each
/// holds at least as many positions as the build has buckets (4^W up to
/// W = 8, then 4^8; 4^9 at W = 13), so the oracle banks are cut only at
/// small W.  One long sequence gets four ranges up to W = 11, and every
/// cut falls inside it; with DUST, masked runs straddle some cuts; with
/// an N run over every multiple of 64, every cut falls inside an N run;
/// the sequence starts at global position 1, so under stride 2 every cut
/// falls between two word starts.  The last bank is shorter than 64
/// positions per pool thread.
TEST(IndexBuildPools, EveryPoolBuildsTheInlineArrays) {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    pools.push_back(std::make_unique<util::ThreadPool>(threads));
  }
  simulate::Rng rng(99);
  OracleBanks banks(rng);

  auto long_codes = simulate::random_codes(rng, 4 * 65536 + 4096);
  for (std::size_t at = 1000; at + 48 < long_codes.size(); at += 4099) {
    std::fill_n(long_codes.begin() + static_cast<std::ptrdiff_t>(at), 48,
                Code{0});  // poly-A, which DUST masks
  }
  seqio::SequenceBank long_seq("long");
  long_seq.add_codes("s", long_codes);
  ASSERT_EQ(long_seq.offset(0), 1u);
  const filter::MaskBitmap long_dust = filter::dust_mask(long_seq);
  ASSERT_GT(long_dust.count(), 0u);
  auto gapped_codes = long_codes;
  for (std::size_t cut = 64; cut < gapped_codes.size(); cut += 64) {
    // Global positions cut - 3 .. cut + 2, local ones one lower.
    for (std::size_t p = cut - 4; p < cut + 2; ++p) {
      gapped_codes[p] = kAmbiguous;
    }
  }
  seqio::SequenceBank n_at_cuts("n_at_cuts");
  n_at_cuts.add_codes("s", gapped_codes);
  seqio::SequenceBank under_64_per_thread("under_64_per_thread");
  under_64_per_thread.add("a", "ACGTTGCAACGTAGGCTTACGATCGATCGGATCCA");
  under_64_per_thread.add("b", "TTGACCGTAAGCTTGGCATTCGAGGCTAAGCTT");
  under_64_per_thread.add("c", "GATTACAGATTACAGATTACANNACGT");
  ASSERT_LT(under_64_per_thread.data_size(), 64u * 2u);

  for (const int w : {4, 6, 8, 9, 11, 13}) {
    const SeedCoder coder(w);
    std::vector<BuildCase> cases = banks.cases(rng, coder);
    cases.push_back({"long sequence", &long_seq, 1, nullptr});
    cases.push_back({"long sequence stride 2", &long_seq, 2, nullptr});
    cases.push_back({"long sequence dust", &long_seq, 1, &long_dust});
    cases.push_back({"N runs at the cuts", &n_at_cuts, 1, nullptr});
    cases.push_back({"N runs at the cuts stride 2", &n_at_cuts, 2, nullptr});
    cases.push_back({"under 64 positions per thread", &under_64_per_thread,
                     1, nullptr});
    for (const BuildCase& c : cases) {
      std::string trace(c.name);
      trace += testing::numbered(", w=", static_cast<std::uint64_t>(w));
      SCOPED_TRACE(trace);
      index::IndexOptions opt;
      opt.stride = c.stride;
      opt.mask = c.mask;
      const SubjectArrays subject =
          arrays_of(index::SubjectIndex(*c.bank, coder, opt), coder);
      std::optional<BankArrays> reference;
      // 4^13 + 1 offsets would take 256 MiB, as in the oracle test.
      if (w <= 11) reference = arrays_of(BankIndex(*c.bank, coder, opt));
      for (const auto& pool : pools) {
        SCOPED_TRACE(testing::numbered("threads ", pool->thread_count()));
        opt.pool = pool.get();
        EXPECT_EQ(arrays_of(index::SubjectIndex(*c.bank, coder, opt), coder),
                  subject);
        if (reference.has_value()) {
          EXPECT_EQ(arrays_of(BankIndex(*c.bank, coder, opt)), *reference);
        }
      }
    }
  }
}

}  // namespace
}  // namespace scoris
