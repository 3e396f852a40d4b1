// Spaced seeds — the sensitivity-oriented seed family the paper positions
// ORIS against (section 1: "instead of considering a seed as a word of W
// contiguous characters, a word of W not necessarily consecutive
// characters may be considered. These seeds, referred as spaced-seeds,
// significantly increase the sensitivity", PatternHunter / Yass).
//
// ORIS deliberately keeps contiguous seeds (its ordering and rolling-code
// machinery depend on them); this module provides the spaced family so the
// trade-off the paper describes can be measured (bench_a7_spaced_seeds):
// at equal weight, a well-chosen spaced seed hits diverged homologies more
// often than the contiguous seed, at the cost of O(weight) code extraction
// (no rolling update) and without ORIS's enumeration order.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "index/seed_coder.hpp"
#include "seqio/nucleotide.hpp"
#include "simulate/rng.hpp"

namespace scoris::index {

/// A match/don't-care sampling pattern, e.g. PatternHunter's
/// "111010010100110111" (span 18, weight 11).
class SpacedSeed {
 public:
  /// Pattern of '1' (sampled) and '0' (don't care); must start and end
  /// with '1' and contain 1..15 ones. Throws std::invalid_argument.
  explicit SpacedSeed(std::string_view pattern);

  [[nodiscard]] int span() const { return static_cast<int>(pattern_.size()); }
  [[nodiscard]] int weight() const { return static_cast<int>(ones_.size()); }
  [[nodiscard]] const std::string& pattern() const { return pattern_; }

  /// Code of the sampled positions of codes[pos .. pos+span), or nullopt
  /// when any sampled character is not a concrete base or out of range.
  [[nodiscard]] std::optional<SeedCode> code_at(
      std::span<const seqio::Code> codes, std::size_t pos) const;

  /// The contiguous seed of weight w as a degenerate pattern ("111...1").
  [[nodiscard]] static SpacedSeed contiguous(int w);

  /// PatternHunter's classic weight-11 seed.
  [[nodiscard]] static const SpacedSeed& pattern_hunter();

 private:
  std::string pattern_;
  std::vector<int> ones_;  // offsets of sampled positions
};

/// Monte-Carlo hit sensitivity: probability that a homologous region of
/// `region_len` at the given identity contains at least one seed match
/// (the PatternHunter experiment; identity applied i.i.d. per position).
[[nodiscard]] double hit_sensitivity(const SpacedSeed& seed, double identity,
                                     std::size_t region_len,
                                     simulate::Rng& rng, int trials = 2000);

}  // namespace scoris::index
