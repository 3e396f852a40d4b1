// A5 — the paper's section-4 perspective: compare SCORIS-N with other
// in-memory indexing programs (BLAT-family).  Three-way comparison of
// SCORIS-N, the BLASTN-style baseline, and its BLAT configuration (a tiled
// index) on an EST pair, at two divergence regimes:
//  * the paper-shaped EST workload (mixed divergence), and
//  * a high-identity workload, BLAT's home turf.
// Also reports the two-hit variant of the baseline.
#include "common.hpp"

#include "simulate/generators.hpp"

int main(int argc, char** argv) {
  using namespace scoris;
  const auto args = bench::parse_bench_args(argc, argv, 0.03);
  bench::print_preamble("A5: comparator programs (paper section 4 perspective)",
                        args);

  const simulate::PaperData data(args.scale, args.seed);
  const auto est3 = data.make("EST3");
  const auto est4 = data.make("EST4");

  util::Table table({"program", "alignments", "HSPs", "hits", "index MB",
                     "search (s)", "total (s)"});
  table.set_title("EST3 vs EST4 (" + util::Table::fmt(est3.stats().mbp(), 2) +
                  " x " + util::Table::fmt(est4.stats().mbp(), 2) + " Mbp)");

  {
    core::Options opt;
    opt.threads = args.threads;
    const Session session(est3, opt);
    auto r = session.search_collect(est4);
    r.stats.add_reference_build(session.reference_build_seconds());
    table.add_row(
        {"SCORIS-N (full 11-mer index)",
         util::Table::fmt_int(static_cast<long long>(r.alignments.size())),
         util::Table::fmt_int(static_cast<long long>(r.stats.hsps)),
         util::Table::fmt_int(static_cast<long long>(r.stats.hit_pairs)),
         util::Table::fmt(static_cast<double>(r.stats.index_bytes) / 1e6, 1),
         util::Table::fmt(r.stats.index_seconds + r.stats.hsp_seconds, 2),
         util::Table::fmt(r.stats.total_seconds, 2)});
    std::cout << "." << std::flush;
  }
  {
    blast::BlastOptions opt;
    opt.threads = args.threads;
    const auto r = blast::BlastN(opt).run(est3, est4);
    table.add_row(
        {"BLASTN-like (8-mer lookup)",
         util::Table::fmt_int(static_cast<long long>(r.alignments.size())),
         util::Table::fmt_int(static_cast<long long>(r.stats.hsps)),
         util::Table::fmt_int(static_cast<long long>(r.stats.hit_pairs)),
         util::Table::fmt(static_cast<double>(r.stats.diag_array_bytes) / 1e6,
                          1),
         util::Table::fmt(r.stats.index_seconds + r.stats.scan_seconds, 2),
         util::Table::fmt(r.stats.total_seconds, 2)});
    std::cout << "." << std::flush;
  }
  {
    blast::BlastOptions opt;
    opt.threads = args.threads;
    opt.two_hit = true;
    const auto r = blast::BlastN(opt).run(est3, est4);
    table.add_row(
        {"BLASTN-like, two-hit trigger",
         util::Table::fmt_int(static_cast<long long>(r.alignments.size())),
         util::Table::fmt_int(static_cast<long long>(r.stats.hsps)),
         util::Table::fmt_int(static_cast<long long>(r.stats.hit_pairs)),
         util::Table::fmt(static_cast<double>(r.stats.diag_array_bytes) / 1e6,
                          1),
         util::Table::fmt(r.stats.index_seconds + r.stats.scan_seconds, 2),
         util::Table::fmt(r.stats.total_seconds, 2)});
    std::cout << "." << std::flush;
  }
  {
    blast::BlastOptions opt = blast::blat_options();
    opt.threads = args.threads;
    const auto r = blast::BlastN(opt).run(est3, est4);
    table.add_row(
        {"BLAT-like (tiled 11-mer index)",
         util::Table::fmt_int(static_cast<long long>(r.alignments.size())),
         util::Table::fmt_int(static_cast<long long>(r.stats.hsps)),
         util::Table::fmt_int(static_cast<long long>(r.stats.hit_pairs)),
         util::Table::fmt(static_cast<double>(r.stats.index_bytes) / 1e6, 1),
         util::Table::fmt(r.stats.index_seconds + r.stats.scan_seconds, 2),
         util::Table::fmt(r.stats.total_seconds, 2)});
    std::cout << "." << std::flush;
  }
  std::cout << '\n';
  table.print(std::cout);

  // High-identity regime: BLAT's design point.
  simulate::Rng rng(args.seed ^ 0x5a5a);
  const auto hp = simulate::make_homologous_pair(rng, 2000, 60, 50, 0.01);
  util::Table hi({"program", "alignments", "total (s)"});
  hi.set_title("high-identity pairs (1% divergence, BLAT's design point)");
  {
    core::Options opt;
    opt.dust = false;
    const Session session(hp.bank1, opt);
    auto r = session.search_collect(hp.bank2);
    r.stats.add_reference_build(session.reference_build_seconds());
    hi.add_row({"SCORIS-N",
                util::Table::fmt_int(static_cast<long long>(r.alignments.size())),
                util::Table::fmt(r.stats.total_seconds, 2)});
  }
  {
    blast::BlastOptions opt = blast::blat_options();
    opt.dust = false;
    const auto r = blast::BlastN(opt).run(hp.bank1, hp.bank2);
    hi.add_row({"BLAT-like",
                util::Table::fmt_int(static_cast<long long>(r.alignments.size())),
                util::Table::fmt(r.stats.total_seconds, 2)});
  }
  hi.print(std::cout);
  std::cout << "\nExpected shape: BLAT-like uses ~1/11 of the index memory\n"
               "and sees ~1/11 of the hits, at reduced sensitivity on the\n"
               "diverged EST workload; at 99% identity it matches SCORIS-N's\n"
               "alignment count with a fraction of the search work.\n";
  return 0;
}
