// est_clustering — a downstream workflow on top of the comparison engine
// (the paper's introduction motivates intensive comparison as the filter
// stage of larger bioinformatics pipelines).
//
// Self-compares an EST bank with SCORIS-N, then single-links ESTs whose
// alignments exceed an identity/length threshold — the classic first step
// of EST assembly (grouping reads by gene).  Prints the cluster size
// histogram and the largest clusters.
//
// Usage: est_clustering [--scale S] [--seed N] [--min-identity P]
//                       [--min-length L]
#include <algorithm>
#include <iostream>
#include <map>
#include <numeric>
#include <vector>

#include "scoris/api.hpp"
#include "simulate/paper_datasets.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

namespace {

/// Plain union-find over sequence ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace scoris;
  const util::Args args = util::Args::parse(argc, argv);
  const double scale = args.get_double_or_exit("scale", 0.01);
  const auto seed = static_cast<std::uint64_t>(args.get_int_or_exit("seed", 42));
  const double min_identity = args.get_double_or_exit("min-identity", 94.0);
  const auto min_length =
      static_cast<std::uint32_t>(args.get_int_or_exit("min-length", 100));

  const simulate::PaperData data(scale, seed);
  auto est1 = data.make("EST1");
  std::cout << "EST1 at scale " << scale << ": " << est1.size()
            << " sequences, " << est1.stats().mbp() << " Mbp\n";

  // Self-comparison via the session API: the bank is indexed once and
  // then searched against itself (session.reference() is the resident
  // copy).
  Session session(std::move(est1), Options{});
  const seqio::SequenceBank& bank = session.reference();
  core::Result r = session.search_collect(bank);
  r.stats.add_reference_build(session.reference_build_seconds());
  std::cout << "self-comparison: " << r.alignments.size() << " alignments in "
            << util::Table::fmt(r.stats.total_seconds, 2) << " s\n";

  UnionFind uf(bank.size());
  std::size_t edges = 0;
  for (const auto& a : r.alignments) {
    if (a.seq1 == a.seq2) continue;  // self alignment
    if (a.stats.percent_identity() < min_identity) continue;
    if (a.stats.length < min_length) continue;
    uf.unite(a.seq1, a.seq2);
    ++edges;
  }
  std::cout << "clustering edges (identity >= " << min_identity
            << "%, length >= " << min_length << "): " << edges << "\n\n";

  std::map<std::size_t, std::vector<std::size_t>> clusters;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    clusters[uf.find(i)].push_back(i);
  }
  std::map<std::size_t, std::size_t> histogram;  // size -> count
  for (const auto& [root, members] : clusters) {
    ++histogram[members.size()];
  }

  util::Table hist({"cluster size", "clusters"});
  hist.set_title("cluster size histogram");
  for (const auto& [size, count] : histogram) {
    hist.add_row({std::to_string(size), std::to_string(count)});
  }
  hist.print(std::cout);

  // Show the three largest clusters.
  std::vector<const std::vector<std::size_t>*> sorted;
  for (const auto& [root, members] : clusters) sorted.push_back(&members);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* x, const auto* y) { return x->size() > y->size(); });
  std::cout << "\nlargest clusters:\n";
  for (std::size_t c = 0; c < sorted.size() && c < 3; ++c) {
    std::cout << "  #" << c + 1 << " (" << sorted[c]->size() << " ESTs):";
    for (std::size_t k = 0; k < sorted[c]->size() && k < 6; ++k) {
      std::cout << ' ' << bank.seq_name((*sorted[c])[k]);
    }
    if (sorted[c]->size() > 6) std::cout << " ...";
    std::cout << '\n';
  }
  std::cout << "\n(ESTs sampled from the same pool gene single-link into one\n"
               "cluster; orphans stay singletons.)\n";
  return 0;
}
