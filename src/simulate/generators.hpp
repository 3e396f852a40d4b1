// Synthetic sequence and bank generators.
//
// These replace the paper's GenBank-derived data sets (the recipes are in
// simulate/paper_datasets.hpp; perfbench/README.md, "Workloads", lists
// the sizes they yield): each generator reproduces the *shape* that
// drives the algorithms — length distributions, cross-bank homology rates,
// repeat content — with fully deterministic output.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "seqio/sequence_bank.hpp"
#include "simulate/mutate.hpp"
#include "simulate/rng.hpp"

namespace scoris::simulate {

/// Uniform random codes of the given length.
[[nodiscard]] CodeString random_codes(Rng& rng, std::size_t len);

/// Random codes with the given base composition (4 weights).
[[nodiscard]] CodeString random_codes(Rng& rng, std::size_t len,
                                      const std::array<double, 4>& freqs);

/// A random contiguous fragment of `source` with the requested length
/// (clamped to the source length).
[[nodiscard]] CodeString random_fragment(Rng& rng,
                                         std::span<const seqio::Code> source,
                                         std::size_t len);

/// Low-complexity stretch (short repeated motif), for filter tests.
[[nodiscard]] CodeString low_complexity_codes(Rng& rng, std::size_t len,
                                              int motif_len = 2);

// ---------------------------------------------------------------------------
// Shared-pool model.  A `SharedPools` instance is the "universe" from which
// related banks are built: EST banks sample the same gene pool, viral banks
// and chromosome ERV insertions share viral ancestors, bacterial replicons
// share genomic islands, and a tiny universal pool (rRNA-like) leaks into
// several bank kinds at low rates.
// ---------------------------------------------------------------------------

struct PoolParams {
  std::size_t gene_count = 160;        ///< EST gene pool size
  std::size_t gene_len_mean = 1400;    ///< log-normal-ish gene lengths
  std::size_t viral_ancestors = 24;    ///< viral family founders
  double erv_ancestor_fraction = 0.4;  ///< share of founders that are ERV-like
  std::size_t bct_islands = 24;        ///< bacterial genomic islands
  std::size_t island_len = 4000;
  std::size_t universal_elements = 5;  ///< rRNA-like universal pool
  std::size_t universal_len = 1500;
};

class SharedPools {
 public:
  SharedPools(std::uint64_t seed, const PoolParams& params = {});

  [[nodiscard]] const std::vector<CodeString>& genes() const { return genes_; }
  [[nodiscard]] const std::vector<CodeString>& viral() const { return viral_; }
  /// First `erv_count()` viral ancestors are the ERV-like ones that also
  /// appear (diverged) inside chromosomes.
  [[nodiscard]] std::size_t erv_count() const { return erv_count_; }
  [[nodiscard]] const std::vector<CodeString>& islands() const {
    return islands_;
  }
  [[nodiscard]] const std::vector<CodeString>& universal() const {
    return universal_;
  }
  /// Repeat-element consensi (SINE-like short, LINE-like long) used by
  /// chromosome construction.
  [[nodiscard]] const std::vector<CodeString>& repeats() const {
    return repeats_;
  }

 private:
  std::vector<CodeString> genes_;
  std::vector<CodeString> viral_;
  std::size_t erv_count_ = 0;
  std::vector<CodeString> islands_;
  std::vector<CodeString> universal_;
  std::vector<CodeString> repeats_;
};

// ---------------------------------------------------------------------------
// Bank generators.  All take a target size in bases and stop when reached.
// ---------------------------------------------------------------------------

struct EstBankParams {
  std::size_t target_bases = 250'000;
  double frag_log_mean = 6.05;   ///< exp(6.05) ~ 424 nt mean EST length
  double frag_log_sigma = 0.35;
  double sequencing_error = 0.015;
  double universal_rate = 0.002;  ///< ESTs drawn from the universal pool
  double orphan_rate = 0.15;      ///< ESTs with no gene (random, unmatched)
  /// ESTs transcribed from a diverged paralog of a pool gene.  These
  /// produce the borderline low-score alignments (e-values near the
  /// cutoff) on which the paper's few-percent program disagreement
  /// concentrates (section 3.4).
  double paralog_rate = 0.12;
  double paralog_divergence_min = 0.12;
  double paralog_divergence_max = 0.30;
};

/// EST bank: fragments of shared genes plus sequencing error.
[[nodiscard]] seqio::SequenceBank est_bank(Rng& rng, const SharedPools& pools,
                                           const std::string& name,
                                           const EstBankParams& params);

struct ViralBankParams {
  std::size_t target_bases = 250'000;
  /// Within-family divergence of records from their ancestor.  Kept mild
  /// so that chromosome-ERV vs viral-record alignments stay robust — the
  /// paper's H10/H19-vs-VRL runs agree between programs to ~0.1%, which
  /// requires this homology to sit well inside the extension heuristics.
  double divergence_min = 0.010;
  double divergence_max = 0.045;
  double universal_rate = 0.0015;
};

/// Viral bank: mutated copies / fragments of the viral ancestor pool.
[[nodiscard]] seqio::SequenceBank viral_bank(Rng& rng,
                                             const SharedPools& pools,
                                             const std::string& name,
                                             const ViralBankParams& params);

struct BacterialBankParams {
  std::size_t target_bases = 1'000'000;
  std::size_t num_replicons = 4;
  double island_copies_per_replicon = 3.0;
  double island_divergence = 0.05;
  double universal_copies_per_replicon = 2.0;
};

/// Bacterial bank: few long replicons with shared island insertions.
[[nodiscard]] seqio::SequenceBank bacterial_bank(
    Rng& rng, const SharedPools& pools, const std::string& name,
    const BacterialBankParams& params);

struct ChromosomeParams {
  std::size_t target_bases = 2'000'000;
  std::size_t num_contigs = 3;
  double repeat_fraction = 0.30;  ///< of length covered by repeat copies
  double erv_fraction = 0.08;     ///< of length covered by ERV insertions
  double repeat_divergence_min = 0.05;
  double repeat_divergence_max = 0.25;
};

/// Chromosome-like bank: long contigs, repeat families, ERV insertions.
[[nodiscard]] seqio::SequenceBank chromosome_bank(Rng& rng,
                                                  const SharedPools& pools,
                                                  const std::string& name,
                                                  const ChromosomeParams& params);

/// Test helper: a pair of banks where bank2 contains `pairs` mutated copies
/// of fragments of bank1 (ground-truth homology), surrounded by noise.
struct HomologousPair {
  seqio::SequenceBank bank1;
  seqio::SequenceBank bank2;
  std::size_t planted_pairs = 0;
};
[[nodiscard]] HomologousPair make_homologous_pair(Rng& rng,
                                                  std::size_t seq_len,
                                                  std::size_t num_seqs,
                                                  std::size_t pairs,
                                                  double divergence);

}  // namespace scoris::simulate
