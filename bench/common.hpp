// Shared infrastructure for the table/figure reproduction harnesses.
//
// Each bench binary regenerates one artefact of the paper's evaluation
// (its section 3; perfbench/README.md, "First traced numbers", records
// the measured shape against the paper's).  They all accept:
//   --scale S    bank scale relative to the paper's Mbp (default 0.05)
//   --seed N     universe seed (default 42)
//   --threads N  worker threads (default 1)
// and print the paper's rows alongside the measured ones so the shape can
// be eyeballed directly.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "blast/blastn.hpp"
#include "compare/m8.hpp"
#include "compare/sensitivity.hpp"
#include "simulate/paper_datasets.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace scoris::bench {

/// One bank-pair experiment of the paper's section 3.3 / 3.4.
struct PairSpec {
  const char* bank1;
  const char* bank2;
  double paper_search_space_mbp2;  ///< product of full-scale bank sizes
  double paper_scoris_seconds;     ///< paper's SCORIS-N time (-1 if absent)
  double paper_blast_seconds;      ///< paper's BLASTN time (-1 if absent)
  double paper_speedup;            ///< paper's reported speed-up
};

/// The paper's eight EST bank pairs (section 3.3, first speed-up table).
inline const std::vector<PairSpec>& est_pairs() {
  static const std::vector<PairSpec> kPairs = {
      {"EST1", "EST2", 42.82, 7.3, 73.4, 10.0},
      {"EST1", "EST3", 94.28, 9.6, 155.4, 16.2},
      {"EST1", "EST5", 164.09, 15.2, 260.2, 17.1},
      {"EST3", "EST4", 217.69, 19.9, 369.4, 18.5},
      {"EST1", "EST7", 258.11, 26.3, 420.6, 16.0},
      {"EST4", "EST5", 378.88, 24.4, 586.3, 24.0},
      {"EST5", "EST6", 642.09, 34.5, 981.7, 28.4},
      {"EST5", "EST7", 1021.23, 54.3, 1563.5, 28.8},
  };
  return kPairs;
}

/// The paper's six large-bank pairs (section 3.3, second speed-up table).
inline const std::vector<PairSpec>& large_pairs() {
  static const std::vector<PairSpec> kPairs = {
      {"H19", "VRL", 3689, 90, 558, 6.2},
      {"BCT", "EST7", 3931, 62, 537, 8.6},
      {"H19", "BCT", 5496, 80, 439, 5.5},
      {"BCT", "VRL", 6458, 80, 741, 9.2},
      {"H10", "VRL", 8673, 146, 1266, 8.6},
      {"H10", "BCT", 12922, 145, 965, 6.6},
  };
  return kPairs;
}

/// Measured outcome of running both programs on one pair.
struct PairRun {
  std::string name;
  double search_space_mbp2 = 0.0;  ///< measured product, Mbp^2
  core::Result scoris;
  blast::BlastResult blast;
  std::vector<compare::M8Record> scoris_m8;
  std::vector<compare::M8Record> blast_m8;
};

/// Generate the pair's banks, run SCORIS-N and the baseline, convert to m8.
inline PairRun run_pair(const simulate::PaperData& data, const PairSpec& spec,
                        int threads, bool want_m8 = true) {
  PairRun out;
  out.name = std::string(spec.bank1) + " vs " + spec.bank2;
  const auto bank1 = data.make(spec.bank1);
  const auto bank2 = data.make(spec.bank2);
  out.search_space_mbp2 = bank1.stats().mbp() * bank2.stats().mbp();

  core::Options sopt;
  sopt.threads = threads;
  // SCORIS-N's seconds count its reference build, as BLASTN's count its
  // lookup table.
  const Session session(bank1, sopt);
  out.scoris = session.search_collect(bank2);
  out.scoris.stats.add_reference_build(session.reference_build_seconds());

  blast::BlastOptions bopt;
  bopt.threads = threads;
  out.blast = blast::BlastN(bopt).run(bank1, bank2);

  if (want_m8) {
    out.scoris_m8.reserve(out.scoris.alignments.size());
    for (const auto& a : out.scoris.alignments) {
      out.scoris_m8.push_back(compare::to_m8(a, bank1, bank2));
    }
    out.blast_m8.reserve(out.blast.alignments.size());
    for (const auto& a : out.blast.alignments) {
      out.blast_m8.push_back(compare::to_m8(a, bank1, bank2));
    }
  }
  return out;
}

/// Search-stage seconds (index + hit detection + ungapped extension): the
/// part of each program the ORIS contribution targets. The gapped stage is
/// shared code by design (see blast/blastn.hpp), so end-to-end times
/// converge when alignments dominate; the stage split keeps the comparison
/// interpretable at reduced scale.
inline double scoris_search_seconds(const core::Result& r) {
  return r.stats.index_seconds + r.stats.hsp_seconds;
}
inline double blast_search_seconds(const blast::BlastResult& r) {
  return r.stats.index_seconds + r.stats.scan_seconds;
}

struct BenchArgs {
  double scale = 0.05;
  std::uint64_t seed = 42;
  int threads = 1;
};

inline BenchArgs parse_bench_args(int argc, char** argv,
                                  double default_scale = 0.05) {
  const util::Args args = util::Args::parse(argc, argv);
  BenchArgs out;
  out.scale = args.get_double_or_exit("scale", default_scale);
  out.seed = static_cast<std::uint64_t>(args.get_int_or_exit("seed", 42));
  out.threads = static_cast<int>(args.get_int_or_exit("threads", 1));
  return out;
}

inline void print_preamble(const char* experiment, const BenchArgs& args) {
  std::cout << "==============================================================\n"
            << experiment << '\n'
            << "scale " << args.scale << " of the paper's bank sizes, seed "
            << args.seed << ", threads " << args.threads << '\n'
            << "==============================================================\n";
}

}  // namespace scoris::bench
