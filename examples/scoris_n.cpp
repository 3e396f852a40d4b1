// scoris_n — the SCORIS-N command-line tool (the paper's prototype).
//
// Compares two DNA banks in FASTA format and writes BLAST -m 8 tabular
// output, exactly like
//     blastall -p blastn -d bank1 -i bank2 -o out -m 8 -e 0.001 -S 1
// but using the ORIS algorithm.
//
// Usage:
//   scoris_n <bank1.fa> <bank2.fa> [--out FILE] [--w N] [--evalue E]
//            [--threads N] [--asymmetric] [--no-dust] [--s1 SCORE]
//            [--baseline]   (run the BLASTN-style baseline instead)
//            [--blat]       (run its BLAT configuration instead)
//            [--stats]      (print per-step statistics to stderr)
#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string_view>

#include "align/display.hpp"
#include "align/gapped.hpp"
#include "blast/blastn.hpp"
#include "scoris/api.hpp"
#include "util/argparse.hpp"

namespace {

void print_usage(const char* prog) {
  std::cerr
      << "usage: " << prog << " <bank1.fa> <bank2.fa> [options]\n"
      << "  --out FILE      write m8 output to FILE (default: stdout)\n"
      << "  --w N           seed length (default 11)\n"
      << "  --evalue E      e-value cutoff (default 1e-3)\n"
      << "  --threads N     worker threads for steps 1-3 (default 1)\n"
      << "  --strand S      plus (default, paper's -S 1), minus, or both\n"
      << "  --asymmetric    10-nt words, stride-2 index on bank2\n"
      << "  --no-dust       disable the low-complexity filter\n"
      << "  --s1 SCORE      minimum HSP raw score (default 25)\n"
      << "  --save-banks P  also write banks as P_1.scob / P_2.scob\n"
      << "  --align N       also print full pairwise alignments of the top N\n"
      << "  --baseline      run the BLASTN-style baseline instead of ORIS\n"
      << "  --blat          run the baseline's BLAT configuration instead\n"
      << "  --stats         print per-step statistics to stderr\n";
}

/// The flags print_usage lists; any other is a usage error.
constexpr std::string_view kFlags[] = {
    "out", "w", "evalue", "threads", "strand", "asymmetric", "no-dust",
    "s1", "save-banks", "align", "baseline", "blat", "stats"};

/// Print BLAST-style full pairwise alignments of the top `n` results.
void print_full_alignments(std::ostream& os,
                           const std::vector<scoris::align::GappedAlignment>&
                               alignments,
                           const scoris::seqio::SequenceBank& bank1,
                           const scoris::seqio::SequenceBank& bank2,
                           const scoris::align::ScoringParams& scoring,
                           std::size_t n) {
  using namespace scoris;
  const seqio::SequenceBank rc = seqio::reverse_complement(bank2);
  for (std::size_t k = 0; k < alignments.size() && k < n; ++k) {
    const auto& a = alignments[k];
    const seqio::SequenceBank& subject_bank = a.minus ? rc : bank2;
    std::vector<align::AlignOp> ops;
    std::int32_t score = 0;
    (void)align::banded_global_stats(bank1.data(), a.s1, a.e1,
                                     subject_bank.data(), a.s2, a.e2, scoring,
                                     &score, &ops);
    os << ">" << bank1.seq_name(a.seq1) << " vs "
       << bank2.seq_name(a.seq2) << (a.minus ? " (minus strand)" : "")
       << "  score=" << score << " evalue=" << a.evalue
       << " cigar=" << align::to_cigar(ops) << '\n';
    os << align::render_alignment(bank1.data(), a.s1,
                                  a.s1 - bank1.offset(a.seq1),
                                  subject_bank.data(), a.s2,
                                  a.s2 - subject_bank.offset(a.seq2), ops)
       << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scoris;
  const util::Args args = util::Args::parse(argc, argv);
  // Usage errors exit 2 with the diagnostic `scoris` prints for them.
  for (const std::string& name : args.flag_names()) {
    if (std::find(std::begin(kFlags), std::end(kFlags), name) ==
        std::end(kFlags)) {
      std::cerr << "error: unknown flag --" << name << '\n';
      print_usage(argv[0]);
      return 2;
    }
  }
  Options opt;
  if (const auto issue = core::set_strand(opt, args.get("strand", "plus"))) {
    std::cerr << "error: " << issue->message << '\n';
    print_usage(argv[0]);
    return 2;
  }
  if (args.positional().size() != 2) {
    print_usage(argv[0]);
    return 2;
  }

  // Banks load from FASTA or from the binary .scob format (parse once,
  // reload fast — see seqio/serialize.hpp).
  const auto load_any = [](const std::string& path) {
    if (path.size() > 5 && path.substr(path.size() - 5) == ".scob") {
      return scoris::seqio::load_bank_file(path);
    }
    return scoris::seqio::read_fasta_file(path);
  };
  seqio::SequenceBank bank1;
  seqio::SequenceBank bank2;
  try {
    bank1 = load_any(args.positional()[0]);
    bank2 = load_any(args.positional()[1]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  if (args.has("save-banks")) {
    // Write both banks in binary form next to the given prefix.
    const std::string prefix = args.get("save-banks");
    seqio::save_bank_file(prefix + "_1.scob", bank1);
    seqio::save_bank_file(prefix + "_2.scob", bank2);
  }

  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (args.has("out")) {
    out_file.open(args.get("out"));
    if (!out_file) {
      std::cerr << "error: cannot create " << args.get("out") << '\n';
      return 1;
    }
    out = &out_file;
  }

  const bool want_stats = args.get_flag("stats");
  const auto align_top = static_cast<std::size_t>(args.get_int_or_exit("align", 0));

  const bool blat = args.get_flag("blat");
  if (args.get_flag("baseline") || blat) {
    // The BLAT configuration's lookup width and tile stride follow --w.
    blast::BlastOptions bopt =
        blat ? blast::blat_options() : blast::BlastOptions{};
    bopt.w = static_cast<int>(args.get_int_or_exit("w", 11));
    bopt.max_evalue = args.get_double_or_exit("evalue", 1e-3);
    bopt.dust = !args.get_flag("no-dust");
    bopt.min_hsp_score = static_cast<int>(args.get_int_or_exit("s1", 25));
    bopt.threads = static_cast<int>(args.get_int_or_exit("threads", 1));
    bopt.strand = opt.strand;
    const blast::BlastResult r = blast::BlastN(bopt).run(bank1, bank2);
    compare::write_m8(*out, r.alignments, bank1, bank2);
    if (align_top > 0) {
      print_full_alignments(*out, r.alignments, bank1, bank2, bopt.scoring,
                            align_top);
    }
    if (want_stats) {
      std::cerr << (blat ? "blat-like: " : "baseline: ")
                << r.alignments.size() << " alignments, "
                << r.stats.hit_pairs << " hits, " << r.stats.hsps
                << " HSPs, scan " << r.stats.scan_seconds << "s, gapped "
                << r.stats.gapped_seconds << "s, total "
                << r.stats.total_seconds << "s\n";
    }
    return 0;
  }

  opt.w = static_cast<int>(args.get_int_or_exit("w", 11));
  opt.max_evalue = args.get_double_or_exit("evalue", 1e-3);
  opt.asymmetric = args.get_flag("asymmetric");
  opt.dust = !args.get_flag("no-dust");
  opt.min_hsp_score = static_cast<int>(args.get_int_or_exit("s1", 25));
  opt.threads = static_cast<int>(args.get_int_or_exit("threads", 1));

  // The session API: bank1 is indexed once and owned by the session;
  // the default path streams m8 lines as they become final.  --align
  // needs the alignment records afterwards, so it collects instead.
  core::PipelineStats stats;
  std::size_t alignments = 0;
  try {
    Session session(std::move(bank1), opt);
    if (align_top > 0) {
      const core::Result r = session.search_collect(bank2);
      compare::write_m8(*out, r.alignments, session.reference(), bank2);
      print_full_alignments(*out, r.alignments, session.reference(), bank2,
                            opt.scoring, align_top);
      stats = r.stats;
      alignments = r.alignments.size();
    } else {
      M8Writer writer(*out);
      const SearchOutcome outcome = session.search(bank2, writer);
      stats = outcome.stats;
      alignments = writer.written();
    }
    // This run indexed bank1 for its one query: step 1 counts it.
    stats.add_reference_build(session.reference_build_seconds());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  if (want_stats) {
    std::cerr << "scoris-n: " << alignments << " alignments, "
              << stats.hit_pairs << " hits (" << stats.order_aborts
              << " order-aborted), " << stats.hsps << " HSPs\n"
              << "  step1 " << stats.index_seconds << "s, step2 "
              << stats.hsp_seconds << "s, step3 " << stats.gapped_seconds
              << "s, total " << stats.total_seconds << "s\n";
  }
  return 0;
}
