// A6 — the paper's section-4 perspective #3: "Testing SCORIS-N on genomes
// having a large number of repeat sequences. Generally, algorithm
// performances are not so good when dealing with these specific
// sequences."
//
// Sweeps the repeat fraction of two chromosome-like banks and measures how
// both programs degrade: hit volume explodes quadratically in repeat copy
// number, which is exactly where the ordered abort (SCORIS) and the diag
// array (BLASTN) earn their keep.
#include "common.hpp"

#include "simulate/generators.hpp"

int main(int argc, char** argv) {
  using namespace scoris;
  const auto args = bench::parse_bench_args(argc, argv, 0.01);
  bench::print_preamble("A6: repeat-rich genome stress (paper section 4)",
                        args);

  const auto target = static_cast<std::size_t>(args.scale * 50e6);
  std::cout << "two synthetic chromosomes of "
            << util::Table::fmt(static_cast<double>(target) / 1e6, 2)
            << " Mbp each, shared repeat library, divergence 5-25%\n";

  util::Table table({"repeat fraction", "hits S", "aborts S", "HSPs",
                     "alignments", "SCORIS (s)", "BLASTN (s)"});
  table.set_title("repeat-density sweep (chromosome vs chromosome)");

  for (const double rep : {0.05, 0.15, 0.30, 0.45}) {
    const simulate::PoolParams pool_params =
        simulate::PaperData::scaled_pools(args.scale);
    const simulate::SharedPools pools(args.seed, pool_params);
    simulate::Rng rng1(args.seed ^ 101), rng2(args.seed ^ 202);
    simulate::ChromosomeParams cp;
    cp.target_bases = target;
    cp.num_contigs = 2;
    cp.repeat_fraction = rep;
    cp.erv_fraction = 0.0;
    const auto chr_a = simulate::chromosome_bank(rng1, pools, "chrA", cp);
    const auto chr_b = simulate::chromosome_bank(rng2, pools, "chrB", cp);

    core::Options sopt;
    sopt.threads = args.threads;
    const Session session(chr_a, sopt);
    auto sr = session.search_collect(chr_b);
    sr.stats.add_reference_build(session.reference_build_seconds());
    blast::BlastOptions bopt;
    bopt.threads = args.threads;
    const auto br = blast::BlastN(bopt).run(chr_a, chr_b);

    table.add_row(
        {util::Table::fmt(rep, 2),
         util::Table::fmt_int(static_cast<long long>(sr.stats.hit_pairs)),
         util::Table::fmt_int(static_cast<long long>(sr.stats.order_aborts)),
         util::Table::fmt_int(static_cast<long long>(sr.stats.hsps)),
         util::Table::fmt_int(static_cast<long long>(sr.alignments.size())),
         util::Table::fmt(sr.stats.total_seconds, 2),
         util::Table::fmt(br.stats.total_seconds, 2)});
    std::cout << "." << std::flush;
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nExpected shape: hits and run time grow super-linearly with\n"
               "repeat density (copy-pair products); the order-abort share\n"
               "grows with it, confirming the paper's caution about\n"
               "repeat-heavy genomes.\n";
  return 0;
}
