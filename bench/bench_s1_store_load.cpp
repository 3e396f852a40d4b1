// S1 — the persistent index store's reason to exist: cold start from FASTA
// (parse + DUST + BankIndex build, what every `scoris` invocation used to
// pay) vs loading a prebuilt .scix artifact (bank unpack + index check,
// what `scoris search` pays).  Also reports the artifact's on-disk size
// against the paper's ~5N-byte in-memory figure.
#include "common.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "seqio/fasta.hpp"
#include "store/index_store.hpp"

int main(int argc, char** argv) {
  using namespace scoris;
  const auto args = bench::parse_bench_args(argc, argv);
  bench::print_preamble(
      "S1: cold FASTA+index build vs .scix artifact load", args);

  const simulate::PaperData data(args.scale, args.seed);
  const store::IndexKey key;  // w=11, stride 1, DUST — the search default
  bool all_equal = true;

  util::Table table({"bank", "Mbp", "fasta+build (s)", "scix load (s)",
                     "speedup", "scix MB", "hits equal"});
  table.set_title("build-once artifact vs per-run indexing (W = 11)");

  for (const char* name : {"EST1", "EST2", "EST5", "VRL"}) {
    const auto bank = data.make(name);
    const std::string fasta_path =
        "/tmp/scoris_s1_" + std::string(name) + ".fa";
    const std::string scix_path =
        "/tmp/scoris_s1_" + std::string(name) + ".scix";
    seqio::write_fasta_file(fasta_path, bank);
    store::write_index_file(scix_path, bank, {&key, 1});

    // Cold path: what a flat invocation pays for bank1 every run.
    util::WallTimer t_cold;
    const auto parsed = seqio::read_fasta_file(fasta_path);
    const auto mask = filter::dust_mask(parsed, key.dust_params);
    index::IndexOptions iopt;
    iopt.mask = &mask;
    const index::BankIndex built(parsed, index::SeedCoder(key.w), iopt);
    const double cold = t_cold.seconds();

    // Artifact path: unpack the bank, check the serialized index.
    util::WallTimer t_load;
    const auto loaded = store::load_index(scix_path);
    const double load = t_load.seconds();
    const index::BankIndex& adopted = loaded.require(key);

    const bool equal =
        adopted.total_indexed() == built.total_indexed() &&
        adopted.distinct_seeds() == built.distinct_seeds() &&
        adopted.masked_bases() == built.masked_bases();
    all_equal &= equal;

    std::ifstream scix(scix_path, std::ios::binary | std::ios::ate);
    const double scix_mb = static_cast<double>(scix.tellg()) / 1e6;

    table.add_row({name, util::Table::fmt(bank.stats().mbp(), 2),
                   util::Table::fmt(cold, 3), util::Table::fmt(load, 3),
                   util::Table::fmt(cold / std::max(1e-9, load), 1),
                   util::Table::fmt(scix_mb, 1), equal ? "yes" : "NO"});
    std::remove(fasta_path.c_str());
    std::remove(scix_path.c_str());
    std::cout << "." << std::flush;
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nThe 'hits equal' column cross-checks that the adopted\n"
               "index is structurally identical to the fresh build; the\n"
               "speedup column is what `scoris search --index` saves per\n"
               "invocation over the flat FASTA form.\n";
  if (!all_equal) {
    // This doubles as a CI probe: a divergence must fail the step, not
    // hide in a table cell.
    std::cerr << "FAIL: adopted index diverges from the fresh build\n";
    return 1;
  }
  return 0;
}
