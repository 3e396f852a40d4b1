#include "index/spaced_seed.hpp"

#include <stdexcept>

namespace scoris::index {

SpacedSeed::SpacedSeed(std::string_view pattern) : pattern_(pattern) {
  if (pattern.empty() || pattern.front() != '1' || pattern.back() != '1') {
    throw std::invalid_argument(
        "SpacedSeed: pattern must start and end with '1'");
  }
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '1') {
      ones_.push_back(static_cast<int>(i));
    } else if (pattern[i] != '0') {
      throw std::invalid_argument("SpacedSeed: pattern must be 0/1");
    }
  }
  if (ones_.empty() || ones_.size() > 15) {
    throw std::invalid_argument("SpacedSeed: weight must be in [1, 15]");
  }
}

std::optional<SeedCode> SpacedSeed::code_at(std::span<const seqio::Code> codes,
                                            std::size_t pos) const {
  if (pos + pattern_.size() > codes.size()) return std::nullopt;
  SeedCode c = 0;
  int shift = 0;
  for (const int off : ones_) {
    const seqio::Code nt = codes[pos + static_cast<std::size_t>(off)];
    if (!seqio::is_base(nt)) return std::nullopt;
    c |= static_cast<SeedCode>(nt) << shift;
    shift += 2;
  }
  return c;
}

SpacedSeed SpacedSeed::contiguous(int w) {
  return SpacedSeed(std::string(static_cast<std::size_t>(w), '1'));
}

const SpacedSeed& SpacedSeed::pattern_hunter() {
  static const SpacedSeed kSeed("111010010100110111");
  return kSeed;
}

double hit_sensitivity(const SpacedSeed& seed, double identity,
                       std::size_t region_len, simulate::Rng& rng,
                       int trials) {
  if (region_len < static_cast<std::size_t>(seed.span())) return 0.0;
  const std::string& pat = seed.pattern();
  const std::size_t span = pat.size();
  int hits = 0;
  std::vector<bool> match(region_len);
  for (int t = 0; t < trials; ++t) {
    for (std::size_t i = 0; i < region_len; ++i) {
      match[i] = rng.next_bool(identity);
    }
    bool found = false;
    for (std::size_t p = 0; !found && p + span <= region_len; ++p) {
      bool ok = true;
      for (std::size_t i = 0; i < span; ++i) {
        if (pat[i] == '1' && !match[p + i]) {
          ok = false;
          break;
        }
      }
      found = ok;
    }
    hits += found ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(trials);
}

}  // namespace scoris::index
