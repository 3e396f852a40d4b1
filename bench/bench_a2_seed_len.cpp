// A2 — seed-length sweep plus the paper's asymmetric 10-nt mode
// (section 3.4: "an asymmetric indexing is done on 10-nt words ... All
// 11-nt seeds are detected together with an average of 50% of the 10-nt
// seed anchoring").
//
// Sweeps W over {9, 10, 11, 12} plus asymmetric-10 on one EST pair and
// reports run time, hit volume and alignments found.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace scoris;
  const auto args = bench::parse_bench_args(argc, argv, 0.03);
  bench::print_preamble("A2: seed length / asymmetric indexing sweep", args);

  const simulate::PaperData data(args.scale, args.seed);
  const auto bank1 = data.make("EST1");
  const auto bank2 = data.make("EST2");
  std::cout << "EST1 (" << util::Table::fmt(bank1.stats().mbp(), 2)
            << " Mbp) vs EST2 (" << util::Table::fmt(bank2.stats().mbp(), 2)
            << " Mbp)\n";

  util::Table table({"mode", "hit pairs", "HSPs", "alignments", "time (s)",
                     "index MB"});
  table.set_title("seed configuration sweep");

  const auto run_mode = [&](const std::string& label, int w, bool asym) {
    core::Options opt;
    opt.w = w;
    opt.asymmetric = asym;
    opt.threads = args.threads;
    const Session session(bank1, opt);
    auto r = session.search_collect(bank2);
    r.stats.add_reference_build(session.reference_build_seconds());
    table.add_row(
        {label, util::Table::fmt_int(static_cast<long long>(r.stats.hit_pairs)),
         util::Table::fmt_int(static_cast<long long>(r.stats.hsps)),
         util::Table::fmt_int(static_cast<long long>(r.alignments.size())),
         util::Table::fmt(r.stats.total_seconds, 2),
         util::Table::fmt(static_cast<double>(r.stats.index_bytes) / 1e6, 1)});
    std::cout << "." << std::flush;
  };

  run_mode("W = 9", 9, false);
  run_mode("W = 10", 10, false);
  run_mode("W = 11 (paper default)", 11, false);
  run_mode("W = 12", 12, false);
  run_mode("asymmetric 10-nt (paper 3.4)", 11, true);
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nExpected shape: shorter seeds -> ~4x more hit pairs per\n"
               "step, more alignments, more time. Asymmetric-10 sits between\n"
               "W=11 and W=10: all 11-nt seeds plus ~half the 10-nt ones at\n"
               "about half the W=10 hit cost.\n";
  return 0;
}
