#include "core/gapped_stage.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "align/gapped.hpp"
#include "util/threading.hpp"

namespace scoris::core {
namespace {

using align::Diagonal;
using align::GappedAlignment;
using align::Hsp;
using seqio::Pos;

/// HSP with its subject-sequence id, the sort/partition key of the stage.
struct KeyedHsp {
  Hsp hsp;
  std::uint32_t seq2 = 0;
};

/// True when the HSP rectangle lies inside the alignment rectangle.
bool contained_in(const Hsp& h, const GappedAlignment& a) {
  return a.s1 <= h.s1 && h.e1 <= a.e1 && a.s2 <= h.s2 && h.e2 <= a.e2;
}

/// Serial gapped pass over one subject-sequence slice of HSPs.
void process_slice(const KeyedHsp* hsps, std::size_t count,
                   const seqio::SequenceBank& bank1,
                   const seqio::SequenceBank& bank2,
                   const stats::KarlinParams& karlin,
                   const GappedStageOptions& options,
                   std::vector<GappedAlignment>& out, GappedStageStats& st) {
  const auto seq1 = bank1.data();
  const auto seq2 = bank2.data();
  // An x-drop path deviates from its endpoints' diagonal span by at most
  // this many gap columns; used to early-terminate the containment scan.
  const Diagonal slack =
      options.scoring.xdrop_gapped / std::max(1, options.scoring.gap_extend) +
      2;

  for (std::size_t n = 0; n < count; ++n) {
    const Hsp& h = hsps[n].hsp;
    const Diagonal d = h.diagonal();

    // Backward scan over recent alignments (appended in ~ascending diagonal
    // order) for one that already covers this HSP.
    bool contained = false;
    std::size_t scanned = 0;
    for (std::size_t k = out.size(); k-- > 0 && scanned < 512; ++scanned) {
      const GappedAlignment& a = out[k];
      const Diagonal a_max =
          std::max(a.start_diagonal(), a.end_diagonal()) + slack;
      const Diagonal a_min =
          std::min(a.start_diagonal(), a.end_diagonal()) - slack;
      if (d > a_max && scanned > 32) break;  // sorted order: nothing earlier
      if (d < a_min || d > a_max) continue;
      if (contained_in(h, a)) {
        contained = true;
        break;
      }
    }
    if (contained) {
      ++st.skipped_contained;
      continue;
    }

    // Gapped extension from the HSP midpoint.
    const Pos half = (h.e1 - h.s1) / 2;
    const Pos mid1 = h.s1 + half;
    const Pos mid2 = h.s2 + half;
    const align::GappedExtent ext = align::extend_gapped(
        seq1, seq2, mid1, mid2, options.scoring, options.max_gap_extent);
    ++st.gapped_extensions;
    st.xdrop_cells += ext.cells;

    // Fast path: when the extension is pure-diagonal and a direct column
    // scan reproduces the x-drop score, the optimal path has no gaps and
    // the statistics follow without a second DP.  Most EST-style
    // alignments take this path.
    std::int32_t score = 0;
    align::AlignmentStats stats;
    bool have_stats = false;
    if (ext.e1 - ext.s1 == ext.e2 - ext.s2) {
      std::uint32_t matches = 0;
      for (Pos p = 0; p < ext.e1 - ext.s1; ++p) {
        const seqio::Code a = seq1[ext.s1 + p];
        matches += (seqio::is_base(a) && a == seq2[ext.s2 + p]) ? 1u : 0u;
      }
      const std::uint32_t len = ext.e1 - ext.s1;
      const std::int32_t diag_score =
          static_cast<std::int32_t>(matches) * options.scoring.match -
          static_cast<std::int32_t>(len - matches) * options.scoring.mismatch;
      if (diag_score >= ext.score) {
        stats.length = len;
        stats.matches = matches;
        stats.mismatches = len - matches;
        score = diag_score;
        have_stats = true;
        ++st.fast_path;
      }
    }
    if (!have_stats) {
      std::size_t cells = 0;
      stats = align::banded_global_stats(seq1, ext.s1, ext.e1, seq2, ext.s2,
                                         ext.e2, options.scoring, &score,
                                         nullptr, &cells);
      ++st.second_dp;
      st.band_cells += cells;
    }

    const std::uint32_t sid2 = hsps[n].seq2;
    double m = static_cast<double>(bank1.total_bases());
    double nlen = static_cast<double>(bank2.length(sid2));
    if (options.length_adjust) {
      const double adj = stats::expected_hsp_length(karlin, m, nlen);
      m = std::max(1.0, m - adj);
      nlen = std::max(1.0, nlen - adj);
    }
    const double ev = stats::evalue(karlin, score, m, nlen);
    if (ev > options.max_evalue || score <= 0) {
      ++st.below_cutoff;
      continue;
    }

    GappedAlignment a;
    a.s1 = ext.s1;
    a.e1 = ext.e1;
    a.s2 = ext.s2;
    a.e2 = ext.e2;
    a.score = score;
    a.stats = stats;
    a.evalue = ev;
    a.bitscore = stats::bit_score(karlin, score);
    a.seq1 = static_cast<std::uint32_t>(bank1.seq_of_pos(ext.s1));
    a.seq2 = sid2;
    out.push_back(a);
  }
}

}  // namespace

GappedStageStats& GappedStageStats::operator+=(const GappedStageStats& o) {
  hsps_in += o.hsps_in;
  skipped_contained += o.skipped_contained;
  gapped_extensions += o.gapped_extensions;
  fast_path += o.fast_path;
  second_dp += o.second_dp;
  below_cutoff += o.below_cutoff;
  exact_duplicates += o.exact_duplicates;
  xdrop_cells += o.xdrop_cells;
  band_cells += o.band_cells;
  return *this;
}

bool step4_less(const GappedAlignment& x, const GappedAlignment& y) {
  return std::tuple(x.evalue, -x.bitscore, x.seq1, x.s1, x.seq2, x.s2,
                    x.minus) < std::tuple(y.evalue, -y.bitscore, y.seq1, y.s1,
                                          y.seq2, y.s2, y.minus);
}

std::vector<GappedAlignment> gapped_stage(std::vector<Hsp>& hsps,
                                          const seqio::SequenceBank& bank1,
                                          const seqio::SequenceBank& bank2,
                                          const stats::KarlinParams& karlin,
                                          const GappedStageOptions& options,
                                          GappedStageStats* out_stats) {
  GappedStageStats st;
  st.hsps_in = hsps.size();

  // Key and sort: (subject sequence, diagonal, start).  Alignments never
  // cross sequence boundaries, so subject slices are independent — that is
  // the parallel decomposition (paper section 4 perspective).
  std::vector<KeyedHsp> keyed;
  keyed.reserve(hsps.size());
  for (const Hsp& h : hsps) {
    keyed.push_back(
        {h, static_cast<std::uint32_t>(bank2.seq_of_pos(h.s2))});
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const KeyedHsp& x, const KeyedHsp& y) {
              return std::tuple(x.seq2, x.hsp.diagonal(), x.hsp.s1, x.hsp.s2) <
                     std::tuple(y.seq2, y.hsp.diagonal(), y.hsp.s1, y.hsp.s2);
            });

  // Slice boundaries at subject-sequence changes: one pool task each.
  std::vector<std::size_t> starts;  // slice start offsets
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    if (i == 0 || keyed[i].seq2 != keyed[i - 1].seq2) starts.push_back(i);
  }
  starts.push_back(keyed.size());

  std::vector<GappedAlignment> result;
  const std::size_t num_slices = starts.size() - 1;
  const std::size_t workers = options.pool != nullptr
                                  ? options.pool->thread_count()
                                  : static_cast<std::size_t>(
                                        std::max(1, options.threads));
  if (workers <= 1 || num_slices <= 1) {
    for (std::size_t s = 0; s < num_slices; ++s) {
      process_slice(keyed.data() + starts[s], starts[s + 1] - starts[s], bank1,
                    bank2, karlin, options, result, st);
    }
  } else {
    std::vector<std::vector<GappedAlignment>> partial(num_slices);
    std::vector<GappedStageStats> partial_stats(num_slices);
    const auto run_slice = [&](std::size_t s) {
      process_slice(keyed.data() + starts[s], starts[s + 1] - starts[s], bank1,
                    bank2, karlin, options, partial[s], partial_stats[s]);
    };
    if (options.pool != nullptr) {
      util::run_tasks(*options.pool, num_slices, util::Schedule::kStealing,
                      run_slice);
    } else {
      util::run_tasks(num_slices, workers, util::Schedule::kStealing,
                      run_slice);
    }
    std::size_t total = 0;
    for (const auto& p : partial) total += p.size();
    result.reserve(total);
    for (std::size_t s = 0; s < num_slices; ++s) {
      result.insert(result.end(), partial[s].begin(), partial[s].end());
      // Freed once copied, so the copy never holds every alignment twice.
      std::vector<GappedAlignment>().swap(partial[s]);
      st += partial_stats[s];
    }
  }

  // Remove exact duplicates (two HSPs can converge to the same alignment
  // when the containment heuristic misses).
  const auto coord_key = [](const GappedAlignment& a) {
    return std::tuple(a.s1, a.e1, a.s2, a.e2);
  };
  std::sort(result.begin(), result.end(),
            [&](const GappedAlignment& x, const GappedAlignment& y) {
              return coord_key(x) < coord_key(y);
            });
  const auto new_end =
      std::unique(result.begin(), result.end(),
                  [&](const GappedAlignment& x, const GappedAlignment& y) {
                    return coord_key(x) == coord_key(y);
                  });
  st.exact_duplicates = static_cast<std::size_t>(
      std::distance(new_end, result.end()));
  result.erase(new_end, result.end());

  // Step-4 ordering: by e-value, then bit score, then coordinates.
  std::sort(result.begin(), result.end(), step4_less);

  if (out_stats != nullptr) *out_stats = st;
  return result;
}

}  // namespace scoris::core
