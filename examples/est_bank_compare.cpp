// est_bank_compare — the paper's headline workload: intensive comparison of
// two EST banks (section 3.3, EST1 vs EST2 in miniature).
//
// Generates two synthetic EST banks from a shared gene pool, runs SCORIS-N
// and the BLASTN-style baseline on the same data, and reports run time,
// alignment counts, and the mutual sensitivity (section 3.4 metric).
//
// Usage: est_bank_compare [--scale S] [--seed N] [--threads N]
#include <iostream>

#include "blast/blastn.hpp"
#include "compare/sensitivity.hpp"
#include "scoris/api.hpp"
#include "simulate/paper_datasets.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace scoris;
  const util::Args args = util::Args::parse(argc, argv);
  const double scale = args.get_double_or_exit("scale", 0.02);
  const auto seed = static_cast<std::uint64_t>(args.get_int_or_exit("seed", 42));
  const int threads = static_cast<int>(args.get_int_or_exit("threads", 1));

  std::cout << "Generating EST1 and EST2 at scale " << scale
            << " (paper: 6.44 / 6.65 Mbp)...\n";
  const simulate::PaperData data(scale, seed);
  auto est1_input = data.make("EST1");
  const auto est2 = data.make("EST2");
  std::cout << "  EST1: " << est1_input.size() << " sequences, "
            << est1_input.stats().mbp() << " Mbp\n";
  std::cout << "  EST2: " << est2.size() << " sequences, "
            << est2.stats().mbp() << " Mbp\n\n";

  // SCORIS-N through the session API: EST1 becomes the resident
  // reference (indexed once), EST2 streams through as the query bank.
  Options sopt;
  sopt.threads = threads;
  Session session(std::move(est1_input), sopt);
  const seqio::SequenceBank& est1 = session.reference();
  // SCORIS-N's time counts its index build, as BLASTN's counts its
  // lookup table.
  core::Result sr = session.search_collect(est2);
  sr.stats.add_reference_build(session.reference_build_seconds());

  blast::BlastOptions bopt;
  bopt.threads = threads;
  const blast::BlastResult br = blast::BlastN(bopt).run(est1, est2);

  util::Table table({"program", "alignments", "HSPs", "hits", "time (s)"});
  table.set_title("EST1 vs EST2");
  table.add_row({"SCORIS-N", util::Table::fmt_int(static_cast<long long>(
                                 sr.alignments.size())),
                 util::Table::fmt_int(static_cast<long long>(sr.stats.hsps)),
                 util::Table::fmt_int(static_cast<long long>(
                     sr.stats.hit_pairs)),
                 util::Table::fmt(sr.stats.total_seconds, 2)});
  table.add_row({"BLASTN-like", util::Table::fmt_int(static_cast<long long>(
                                    br.alignments.size())),
                 util::Table::fmt_int(static_cast<long long>(br.stats.hsps)),
                 util::Table::fmt_int(static_cast<long long>(
                     br.stats.hit_pairs)),
                 util::Table::fmt(br.stats.total_seconds, 2)});
  table.print(std::cout);

  // Sensitivity, both directions (paper section 3.4).
  std::vector<compare::M8Record> sc, bl;
  for (const auto& a : sr.alignments) sc.push_back(compare::to_m8(a, est1, est2));
  for (const auto& a : br.alignments) bl.push_back(compare::to_m8(a, est1, est2));
  const auto sens = compare::compare_results(sc, bl);
  std::cout << "\nSensitivity (80% overlap equivalence):\n"
            << "  SCORISmiss = " << sens.a_miss << " / " << sens.b_total
            << " = " << util::Table::fmt_pct(sens.a_miss_pct()) << '\n'
            << "  BLASTmiss  = " << sens.b_miss << " / " << sens.a_total
            << " = " << util::Table::fmt_pct(sens.b_miss_pct()) << '\n';

  const double speedup = br.stats.total_seconds /
                         std::max(1e-9, sr.stats.total_seconds);
  std::cout << "\nSpeed-up (BLASTN-like / SCORIS-N): "
            << util::Table::fmt(speedup, 1) << "x  (paper, full scale: 10.0x)\n";
  return 0;
}
