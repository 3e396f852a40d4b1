// genome_vs_viral — the paper's large-sequence workload: a human chromosome
// against the GenBank viral division (H19 vs VRL, section 3.3) in miniature.
//
// Demonstrates the scenario where BLASTN performs comparatively well
// (speed-up drops to ~6x in the paper), driven by ERV-like homology between
// chromosome insertions and viral genomes.
//
// Usage: genome_vs_viral [--scale S] [--seed N] [--asymmetric]
#include <algorithm>
#include <iostream>

#include "blast/blastn.hpp"
#include "scoris/api.hpp"
#include "simulate/paper_datasets.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace scoris;
  const util::Args args = util::Args::parse(argc, argv);
  const double scale = args.get_double_or_exit("scale", 0.01);
  const auto seed = static_cast<std::uint64_t>(args.get_int_or_exit("seed", 42));

  std::cout << "Generating H19 and VRL at scale " << scale
            << " (paper: 56.03 / 65.84 Mbp)...\n";
  const simulate::PaperData data(scale, seed);
  auto h19_input = data.make("H19");
  const auto vrl = data.make("VRL");
  std::cout << "  H19: " << h19_input.size() << " contigs, "
            << h19_input.stats().mbp() << " Mbp\n";
  std::cout << "  VRL: " << vrl.size() << " sequences, " << vrl.stats().mbp()
            << " Mbp\n\n";

  // One session serves every query bank below: the chromosome is masked
  // and indexed exactly once, however many divisions we compare it to.
  Options opt;
  opt.asymmetric = args.get_flag("asymmetric");
  Session session(std::move(h19_input), opt);
  const seqio::SequenceBank& h19 = session.reference();
  // SCORIS-N's time counts the one index build, as BLASTN's counts its
  // lookup table.
  core::Result sr = session.search_collect(vrl);
  sr.stats.add_reference_build(session.reference_build_seconds());
  std::size_t queries = 1;
  const blast::BlastResult br = blast::BlastN().run(h19, vrl);

  std::cout << "SCORIS-N:    " << sr.alignments.size() << " alignments in "
            << util::Table::fmt(sr.stats.total_seconds, 2) << " s\n";
  std::cout << "BLASTN-like: " << br.alignments.size() << " alignments in "
            << util::Table::fmt(br.stats.total_seconds, 2) << " s\n\n";

  // Top alignments by bit score.
  auto sorted = sr.alignments;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.bitscore > b.bitscore; });
  std::cout << "Top 10 SCORIS-N alignments (m8):\n";
  const std::size_t top = std::min<std::size_t>(10, sorted.size());
  for (std::size_t i = 0; i < top; ++i) {
    std::cout << compare::format_m8(compare::to_m8(sorted[i], h19, vrl))
              << '\n';
  }

  // The paper's contrast: the same chromosome against bacteria finds
  // (almost) nothing.  The session reuses the resident H19 index — no
  // re-masking, no re-indexing for the second query bank.
  const auto bct = data.make("BCT");
  const core::Result empty = session.search_collect(bct);
  ++queries;
  std::cout << "\nContrast (paper: H19 vs BCT = 11 alignments, H10 vs BCT = "
               "0):\n  H19 vs BCT here: "
            << empty.alignments.size() << " alignments ("
            << queries << " queries served, "
            << session.reference_builds() << " reference index build)\n";
  return 0;
}
