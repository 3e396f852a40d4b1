// T2 — reproduces the paper's first speed-up table (section 3.3):
//
//   banks | search space (Mbp) | SCORIS-N exec time | BLASTN exec time |
//   speed up
//
// for the eight EST bank pairs, with the paper's full-scale numbers
// printed alongside.  Also reports the search-stage speed-up (index + hit
// detection + ungapped extension), the part of the pipeline the ORIS
// algorithm actually changes — the gapped stage is shared code here.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace scoris;
  const auto args = bench::parse_bench_args(argc, argv);
  bench::print_preamble("T2: EST speed-up table (paper section 3.3)", args);

  const simulate::PaperData data(args.scale, args.seed);

  util::Table table({"banks", "space (Mbp^2)", "SCORIS (s)", "BLASTN (s)",
                     "speed up", "search-stage speed up", "paper speed up"});
  table.set_title("EST bank comparisons");
  for (const auto& spec : bench::est_pairs()) {
    const auto run = bench::run_pair(data, spec, args.threads, false);
    const double total_speedup =
        run.blast.stats.total_seconds /
        std::max(1e-9, run.scoris.stats.total_seconds);
    const double stage_speedup =
        bench::blast_search_seconds(run.blast) /
        std::max(1e-9, bench::scoris_search_seconds(run.scoris));
    table.add_row({run.name, util::Table::fmt(run.search_space_mbp2, 2),
                   util::Table::fmt(run.scoris.stats.total_seconds, 2),
                   util::Table::fmt(run.blast.stats.total_seconds, 2),
                   util::Table::fmt(total_speedup, 1),
                   util::Table::fmt(stage_speedup, 1),
                   util::Table::fmt(spec.paper_speedup, 1)});
    std::cout << "." << std::flush;
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nPaper shape: speed-up grows with the EST search space\n"
               "(10.0x at 42.8 Mbp^2 up to 28.8x at 1021 Mbp^2). At reduced\n"
               "scale with a substrate-matched baseline the effect lives in\n"
               "the search-stage column; see perfbench/README.md,\n"
               "\"First traced numbers\".\n";
  return 0;
}
