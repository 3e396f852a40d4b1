#include "align/ungapped.hpp"

#include <cassert>

namespace scoris::align {

Hsp extend_ungapped(std::span<const seqio::Code> seq1,
                    std::span<const seqio::Code> seq2, seqio::Pos p1,
                    seqio::Pos p2, int w, const ScoringParams& params,
                    const simd::KernelOps& ops) {
  assert(w > 0);
  PlainWalk plain;
  return *extend_seed(seq1, seq2, p1, p2, w, params, ops, plain, plain);
}

}  // namespace scoris::align
