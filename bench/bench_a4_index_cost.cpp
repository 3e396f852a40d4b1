// A4 — verifies the paper's section-3.1 claim that the index structure
// costs approximately 5 bytes per nucleotide (4-byte INDEX entry + 1-byte
// SEQ, plus the 4^W dictionary), and measures indexing throughput.
#include "common.hpp"

#include "index/bank_index.hpp"

int main(int argc, char** argv) {
  using namespace scoris;
  const auto args = bench::parse_bench_args(argc, argv);
  bench::print_preamble("A4: index memory (~5N bytes) and build throughput",
                        args);

  const simulate::PaperData data(args.scale, args.seed);

  util::Table table({"bank", "Mbp", "index+SEQ MB", "bytes/nt", "dict MB",
                     "build (s)", "Mnt/s"});
  table.set_title("BankIndex cost, W = 11 (paper: ~5 bytes per nucleotide)");

  const index::SeedCoder coder(11);
  const double dict_mb =
      static_cast<double>(coder.num_seeds()) * sizeof(std::int32_t) / 1e6;

  for (const char* name : {"EST1", "EST5", "EST7", "VRL", "BCT", "H10"}) {
    const auto bank = data.make(name);
    util::WallTimer t;
    const index::BankIndex idx(bank, coder);
    const double secs = t.seconds();
    const double n = static_cast<double>(bank.total_bases());
    // Per-nucleotide cost: positions (the INDEX array) + SEQ byte (the
    // seed offsets are reported apart since they are O(4^W), not O(N)).
    const auto chain_bytes = static_cast<double>(idx.chain_bytes());
    const double per_nt = (chain_bytes + static_cast<double>(bank.data_size())) / n;
    table.add_row({name, util::Table::fmt(n / 1e6, 2),
                   util::Table::fmt((chain_bytes + n) / 1e6, 1),
                   util::Table::fmt(per_nt, 2), util::Table::fmt(dict_mb, 1),
                   util::Table::fmt(secs, 3),
                   util::Table::fmt(n / 1e6 / std::max(1e-9, secs), 1)});
    std::cout << "." << std::flush;
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nPaper check: \"comparing two chromosomes of 40 MBytes will\n"
               "require, at least, a free memory space of 400 MBytes\" —\n"
               "i.e. ~5N bytes per bank; the bytes/nt column should read\n"
               "~5.0 for every bank.\n";
  return 0;
}
