// A1 — ablation of the paper's central mechanism: the ordered-seed abort.
//
// "Without such a condition the same HSP would be produced in multiple
// copies, leading to add a costly procedure to suppress all the
// duplicates." (section 2.2)
//
// Runs SCORIS-N with the order rule on (normal) and off (plain extension +
// sort/unique dedup, the naive variant) over EST pairs and reports the
// duplicate volume and the step-2 time of each.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace scoris;
  const auto args = bench::parse_bench_args(argc, argv, 0.03);
  bench::print_preamble("A1: ordered-seed abort ablation", args);

  const simulate::PaperData data(args.scale, args.seed);

  util::Table table({"banks", "HSPs", "order aborts", "naive duplicates",
                     "dup ratio", "step2 ordered (s)", "step2 naive (s)"});
  table.set_title("order rule ON vs OFF (naive = plain extension + dedup)");

  const std::vector<bench::PairSpec> pairs = {
      bench::est_pairs()[0], bench::est_pairs()[3], bench::est_pairs()[7],
      bench::large_pairs()[0],  // H19 vs VRL: repeat/ERV rich
  };

  for (const auto& spec : pairs) {
    const auto bank1 = data.make(spec.bank1);
    const auto bank2 = data.make(spec.bank2);

    core::Options ordered;
    ordered.threads = args.threads;
    const auto ron = Session(bank1, ordered).search_collect(bank2);

    core::Options naive = ordered;
    naive.enforce_order = false;
    const auto roff = Session(bank1, naive).search_collect(bank2);

    const double dup_ratio =
        roff.stats.hsps == 0
            ? 0.0
            : static_cast<double>(roff.stats.duplicate_hsps) /
                  static_cast<double>(roff.stats.hsps + roff.stats.duplicate_hsps);
    table.add_row(
        {std::string(spec.bank1) + " vs " + spec.bank2,
         util::Table::fmt_int(static_cast<long long>(ron.stats.hsps)),
         util::Table::fmt_int(static_cast<long long>(ron.stats.order_aborts)),
         util::Table::fmt_int(static_cast<long long>(roff.stats.duplicate_hsps)),
         util::Table::fmt(100.0 * dup_ratio, 1) + " %",
         util::Table::fmt(ron.stats.hsp_seconds, 2),
         util::Table::fmt(roff.stats.hsp_seconds, 2)});
    std::cout << "." << std::flush;
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nExpected shape: without the order rule the overwhelming\n"
               "majority of emitted HSPs are duplicates (every seed of every\n"
               "HSP regenerates it), and step 2 pays both the redundant\n"
               "extensions and the explicit dedup.\n";
  return 0;
}
