// SeedCoder — the paper's ordered seed encoding.
//
// A seed S of W characters is the little-endian base-4 integer
//     codeSEED(S) = sum_{i<W} 4^i * codeNT(S_i)
// with codeNT(A)=0, C=1, T=2, G=3 (section 2.1).  The induced total order
// over seeds is what makes the ORIS uniqueness argument work: any seed pair
// can be compared by comparing integers, and step 2 enumerates codes
// 0 .. 4^W-1 in increasing order.
//
// Rolling updates: sliding the W-window one character left or right is O(1)
// (the ungapped ordered extension recomputes seed codes every matched
// character, so this matters).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "seqio/nucleotide.hpp"

namespace scoris::index {

/// Integer seed code; fits 2 bits per character, W <= 15.
using SeedCode = std::uint32_t;

/// Longest word a BankIndex accepts, and so every search and every .scix
/// payload: its 4^W + 1 offsets take 256 MiB at W = 13 and 1 GiB at 14.
inline constexpr int kMaxW = 13;

class SeedCoder {
 public:
  /// W in [1, 15]; throws std::invalid_argument otherwise.  BankIndex
  /// caps W at kMaxW.
  explicit SeedCoder(int w);

  [[nodiscard]] int w() const { return w_; }

  /// Number of distinct seeds, 4^W.
  [[nodiscard]] std::uint64_t num_seeds() const {
    return std::uint64_t{1} << (2 * w_);
  }

  /// Code of the word codes[pos .. pos+W); requires all characters to be
  /// concrete bases (checked only by assert — use is_word() to test).
  [[nodiscard]] SeedCode code_unchecked(std::span<const seqio::Code> codes,
                                        std::size_t pos) const;

  /// Code of the word at pos, or nullopt when any character is not ACGT or
  /// the window runs off the span.
  [[nodiscard]] std::optional<SeedCode> code_at(
      std::span<const seqio::Code> codes, std::size_t pos) const;

  /// True when codes[pos .. pos+W) is all concrete bases within range.
  [[nodiscard]] bool is_word(std::span<const seqio::Code> codes,
                             std::size_t pos) const;

  /// Slide the window one position *right*: drop the leftmost character,
  /// append `incoming` at the right end.
  [[nodiscard]] SeedCode roll_right(SeedCode code, seqio::Code incoming) const {
    return (code >> 2) |
           (static_cast<SeedCode>(incoming) << (2 * (w_ - 1)));
  }

  /// Slide the window one position *left*: drop the rightmost character,
  /// prepend `incoming` at the left end.
  [[nodiscard]] SeedCode roll_left(SeedCode code, seqio::Code incoming) const {
    return ((code << 2) | static_cast<SeedCode>(incoming)) & mask_;
  }

  /// ASCII word for a code (debugging / tests).
  [[nodiscard]] std::string decode(SeedCode code) const;

  /// Encode an ASCII word of exactly W ACGT characters.
  [[nodiscard]] SeedCode encode(std::string_view word) const;

 private:
  int w_;
  SeedCode mask_;  // 4^W - 1
};

}  // namespace scoris::index
