// M1 — google-benchmark microbenchmarks of the primitives every stage is
// built from: seed coding, rolling updates, index build, ordered and plain
// ungapped extension, gapped extension, DUST, Karlin solving, m8 I/O.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>

#include "align/gapped.hpp"
#include "align/simd/kernel_dispatch.hpp"
#include "align/ungapped.hpp"
#include "compare/m8.hpp"
#include "align/greedy.hpp"
#include "core/ordered_extend.hpp"
#include "filter/dust.hpp"
#include "index/spaced_seed.hpp"
#include "index/bank_index.hpp"
#include "seqio/serialize.hpp"
#include "simulate/generators.hpp"
#include "simulate/mutate.hpp"
#include "simulate/rng.hpp"
#include "stats/karlin.hpp"

namespace {

using namespace scoris;

simulate::CodeString random_seq(std::uint64_t seed, std::size_t len) {
  simulate::Rng rng(seed);
  return simulate::random_codes(rng, len);
}

void BM_SeedCodeFresh(benchmark::State& state) {
  const auto s = random_seq(1, 4096);
  const index::SeedCoder coder(11);
  std::size_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coder.code_unchecked(s, p));
    p = (p + 1) % (s.size() - 11);
  }
}
BENCHMARK(BM_SeedCodeFresh);

void BM_SeedCodeRolling(benchmark::State& state) {
  const auto s = random_seq(2, 4096);
  const index::SeedCoder coder(11);
  index::SeedCode code = coder.code_unchecked(s, 0);
  std::size_t p = 0;
  for (auto _ : state) {
    code = coder.roll_right(code, s[(p + 11) % s.size()]);
    benchmark::DoNotOptimize(code);
    p = (p + 1) % (s.size() - 12);
  }
}
BENCHMARK(BM_SeedCodeRolling);

void BM_IndexBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  seqio::SequenceBank bank;
  bank.add_codes("s", random_seq(3, n));
  const index::SeedCoder coder(11);
  for (auto _ : state) {
    const index::BankIndex idx(bank, coder);
    benchmark::DoNotOptimize(idx.total_indexed());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_IndexBuild)->Arg(100000)->Arg(1000000);

void BM_UngappedExtensionPlain(benchmark::State& state) {
  simulate::Rng rng(5);
  const auto base = simulate::random_codes(rng, 2000);
  const auto copy =
      simulate::mutate(rng, base, simulate::MutationModel::with_divergence(0.05));
  const align::ScoringParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::extend_ungapped(base, copy, 1000, 1000, 11, params));
  }
}
BENCHMARK(BM_UngappedExtensionPlain);

// --- match-run kernels, one benchmark per instruction set -------------------
// Arg(0..2) = scalar / sse4.1 / avx2 on in-frame sequences with ~3%
// substitutions (no indels, which would break the frame): the realistic
// mix of long match runs and isolated mismatches the step-2 extension
// walks over.  Unsupported kernels skip.

simulate::MutationModel subs_only(double rate) {
  simulate::MutationModel m;
  m.sub_rate = rate;
  m.ins_rate = 0.0;
  m.del_rate = 0.0;
  return m;
}

void BM_MatchRunKernel(benchmark::State& state) {
  const auto kind = static_cast<align::simd::Kernel>(state.range(0));
  if (!align::simd::cpu_supports(kind)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const auto& ops = align::simd::kernel(kind);
  simulate::Rng rng(21);
  const auto a = simulate::random_codes(rng, 1 << 16);
  const auto b = simulate::mutate(rng, a, subs_only(0.03));
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t pos = 0;
  std::size_t walked = 0;
  for (auto _ : state) {
    const std::size_t run =
        ops.match_run_fwd(a.data() + pos, b.data() + pos, n - pos);
    benchmark::DoNotOptimize(run);
    walked += run + 1;
    pos += run + 1;  // step over the mismatch, like the extension loop
    if (pos >= n) pos = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(walked));
  state.SetLabel(ops.name);
}
BENCHMARK(BM_MatchRunKernel)->Arg(0)->Arg(1)->Arg(2);

void BM_MatchRunKernelBwd(benchmark::State& state) {
  const auto kind = static_cast<align::simd::Kernel>(state.range(0));
  if (!align::simd::cpu_supports(kind)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const auto& ops = align::simd::kernel(kind);
  simulate::Rng rng(23);
  const auto a = simulate::random_codes(rng, 1 << 16);
  const auto b = simulate::mutate(rng, a, subs_only(0.03));
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t pos = n;
  std::size_t walked = 0;
  for (auto _ : state) {
    const std::size_t run = ops.match_run_bwd(a.data() + pos, b.data() + pos, pos);
    benchmark::DoNotOptimize(run);
    walked += run + 1;
    pos = pos > run ? pos - run - 1 : n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(walked));
  state.SetLabel(ops.name);
}
BENCHMARK(BM_MatchRunKernelBwd)->Arg(0)->Arg(1)->Arg(2);

// Whole-scan A/B: the full step-2 seed scan with a pinned kernel, so the
// end-to-end effect of the SIMD path (kernels + CSR occurrence lists +
// prefetch) is visible in one number.
void BM_SeedScanKernel(benchmark::State& state) {
  const auto kind = static_cast<align::simd::Kernel>(state.range(0));
  if (!align::simd::cpu_supports(kind)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  simulate::Rng rng(25);
  seqio::SequenceBank b1, b2;
  const auto base = simulate::random_codes(rng, 60000);
  b1.add_codes("s", base);
  b2.add_codes(
      "s", simulate::mutate(rng, base,
                            simulate::MutationModel::with_divergence(0.05)));
  const index::SeedCoder coder(11);
  const index::BankIndex i1(b1, coder), i2(b2, coder);
  core::SeedScanParams params;
  params.kernel = &align::simd::kernel(kind);
  for (auto _ : state) {
    core::SeedScanResult r;
    core::scan_seed_range(i1, i2, params, 0, coder.num_seeds(), r);
    benchmark::DoNotOptimize(r.hsps.size());
  }
  state.SetLabel(params.kernel->name);
}
BENCHMARK(BM_SeedScanKernel)->Arg(0)->Arg(1)->Arg(2);

void BM_OrderedExtension(benchmark::State& state) {
  simulate::Rng rng(7);
  seqio::SequenceBank b1, b2;
  const auto base = simulate::random_codes(rng, 2000);
  b1.add_codes("s", base);
  b2.add_codes(
      "s", simulate::mutate(rng, base,
                            simulate::MutationModel::with_divergence(0.05)));
  const index::SeedCoder coder(11);
  const index::BankIndex i1(b1, coder), i2(b2, coder);
  const align::ScoringParams params;
  // Find one real hit to extend repeatedly.
  seqio::Pos p1 = 0, p2 = 0;
  bool found = false;
  for (index::SeedCode c = 0; c < coder.num_seeds() && !found; ++c) {
    if (i1.occurrence_count(c) > 0 && i2.occurrence_count(c) > 0) {
      p1 = static_cast<seqio::Pos>(i1.occurrences_span(c).front());
      p2 = static_cast<seqio::Pos>(i2.occurrences_span(c).front());
      found = true;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extend_ordered(i1, i2, p1, p2, params));
  }
}
BENCHMARK(BM_OrderedExtension);

void BM_GappedExtension(benchmark::State& state) {
  simulate::Rng rng(9);
  const auto base = simulate::random_codes(rng, 4000);
  const auto copy =
      simulate::mutate(rng, base, simulate::MutationModel::with_divergence(0.06));
  const align::ScoringParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::extend_gapped(base, copy, 2000, 2000, params));
  }
}
BENCHMARK(BM_GappedExtension);

void BM_BandedGlobalStats(benchmark::State& state) {
  simulate::Rng rng(11);
  const auto base = simulate::random_codes(rng, 500);
  const auto copy =
      simulate::mutate(rng, base, simulate::MutationModel::with_divergence(0.05));
  const align::ScoringParams params;
  for (auto _ : state) {
    std::int32_t score = 0;
    benchmark::DoNotOptimize(align::banded_global_stats(
        base, 0, static_cast<seqio::Pos>(base.size()), copy, 0,
        static_cast<seqio::Pos>(copy.size()), params, &score));
  }
}
BENCHMARK(BM_BandedGlobalStats);

void BM_DustMask(benchmark::State& state) {
  seqio::SequenceBank bank;
  bank.add_codes("s", random_seq(13, 100000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter::dust_mask(bank));
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_DustMask);

void BM_KarlinSolve(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::karlin_match_mismatch(1, 3));
  }
}
BENCHMARK(BM_KarlinSolve);

void BM_M8FormatParse(benchmark::State& state) {
  compare::M8Record rec;
  rec.qseqid = "query_000123";
  rec.sseqid = "subject_000456";
  rec.pident = 97.53;
  rec.length = 412;
  rec.mismatch = 9;
  rec.gapopen = 1;
  rec.qstart = 17;
  rec.qend = 428;
  rec.sstart = 1001;
  rec.send = 1410;
  rec.evalue = 3.2e-118;
  rec.bitscore = 431.7;
  for (auto _ : state) {
    const auto line = compare::format_m8(rec);
    benchmark::DoNotOptimize(compare::parse_m8_line(line));
  }
}
BENCHMARK(BM_M8FormatParse);

void BM_GreedyExtension(benchmark::State& state) {
  simulate::Rng rng(15);
  const auto base = simulate::random_codes(rng, 4000);
  const auto copy =
      simulate::mutate(rng, base, simulate::MutationModel::with_divergence(0.02));
  const align::ScoringParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::greedy_extend(base, copy, 2000, 2000, params));
  }
}
BENCHMARK(BM_GreedyExtension);

void BM_BankSerializeRoundTrip(benchmark::State& state) {
  seqio::SequenceBank bank;
  bank.add_codes("s", random_seq(17, 100000));
  for (auto _ : state) {
    std::stringstream buf;
    seqio::save_bank(buf, bank);
    benchmark::DoNotOptimize(seqio::load_bank(buf));
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_BankSerializeRoundTrip);

void BM_SpacedSeedCode(benchmark::State& state) {
  const auto s = random_seq(19, 4096);
  const auto& seed = index::SpacedSeed::pattern_hunter();
  std::size_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seed.code_at(s, p));
    p = (p + 1) % (s.size() - 18);
  }
}
BENCHMARK(BM_SpacedSeedCode);

}  // namespace

BENCHMARK_MAIN();
