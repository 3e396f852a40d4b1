// Pipeline options and their validation — the single source of truth for
// what a well-formed configuration is.
//
// Every frontend (the scoris::Session API, the CLI, the daemon, the
// distributed worker) runs the same comparison, so they must agree on
// which settings are legal.
// Options::validate() returns structured diagnostics instead of throwing
// so callers can report every problem at once; the CLI prints each issue
// verbatim (prefixed "error: ") and exits 2, and Session's constructor
// joins them into one std::invalid_argument, which makes library and CLI
// rejection behaviour identical by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "align/scoring.hpp"
#include "filter/dust.hpp"
#include "index/seed_coder.hpp"
#include "seqio/strand.hpp"
#include "util/threading.hpp"

namespace scoris::core {

/// One validation failure.  `field` is the option's flag-style name
/// ("w", "threads", ...); `message` is a full human-readable sentence
/// ("--w must be in [4, 13], got 99") ready for CLI printing.
struct OptionIssue {
  std::string field;
  std::string message;
};

/// Range check shared by Options::validate() and the CLI's pre-narrowing
/// int64 checks, so both reject with the same message.
[[nodiscard]] std::optional<OptionIssue> check_range(std::string_view field,
                                                     std::int64_t value,
                                                     std::int64_t lo,
                                                     std::int64_t hi);

struct Options {
  int w = 11;                ///< seed length (paper default: 11-nt)
  bool asymmetric = false;   ///< 10-nt words, bank2 indexed with stride 2
  align::ScoringParams scoring;
  int min_hsp_score = 25;    ///< S1: raw-score threshold for keeping HSPs
  double max_evalue = 1e-3;  ///< S2 expressed as an e-value cutoff
  bool dust = true;          ///< low-complexity filter before indexing
  filter::DustParams dust_params;
  /// Which strands of bank2 to search.  The paper's prototype is
  /// plus-only (-S 1, section 3.3) and names minus-strand search as the
  /// next release's feature; kBoth reruns steps 1-3 on the reverse
  /// complement and merges.
  seqio::Strand strand = seqio::Strand::kPlus;
  int threads = 1;
  /// Step-2 seed-code shards per (strand x slice) group.  0 = auto: one
  /// shard single-threaded, otherwise threads * 8.  Boundaries adapt to
  /// the bank1 dictionary's occupancy histogram (see core/exec/plan.hpp);
  /// the m8 output is invariant under this knob.
  std::size_t shards = 0;
  /// How shards are assigned to workers (static round-robin, or each
  /// worker claims the next shard).  Output-invariant, like `shards`.
  util::Schedule schedule = util::Schedule::kStealing;
  std::size_t max_gap_extent = 1u << 20;
  /// Ablation switch (bench A1): when false, step 2 uses the plain
  /// unordered extension and duplicates are removed by sort+unique, the
  /// way a naive implementation would.
  bool enforce_order = true;
  /// Solve Karlin-Altschul parameters from the banks' actual base
  /// composition instead of uniform 0.25 (affects e-values on GC-skewed
  /// data; off by default to match the paper's prototype).
  bool composition_stats = false;
  /// Peak delivery-path memory for the cross-group merge
  /// (bytes).  Each finished group is a sorted run: runs stay in memory
  /// while they fit half this budget and spill to CRC-framed temp files
  /// in `tmp_dir` over it; the k-way merge then streams the canonical
  /// order with bounded head blocks and batches.  0 = unbounded (no
  /// spilling); the m8 output is invariant under this knob.
  std::size_t delivery_budget_bytes = 0;
  /// Directory for spill-run temp files; empty = the system temp
  /// directory.  Files are removed when the merge finishes.
  std::string tmp_dir;
  /// Pin the step-2 extension walks to the scalar match-run kernel
  /// instead of the runtime-dispatched SIMD one (align/simd/).  The m8
  /// output is invariant under this knob — it exists for A/B timing and
  /// for the CI determinism matrix's forced-scalar leg.  The
  /// SCORIS_FORCE_SCALAR environment variable forces scalar globally
  /// regardless of this field.
  bool force_scalar_kernel = false;

  /// Effective word length (asymmetric mode drops to 10-nt).
  [[nodiscard]] int effective_w() const { return asymmetric ? 10 : w; }

  // Canonical bounds.  kMaxW is BankIndex's cap (index::kMaxW), so a W
  // that passes here can always be indexed and stored as .scix.  The
  // remaining bounds exist to catch typo-sized values before they
  // allocate or spawn absurd resources.
  static constexpr int kMinW = 4;
  static constexpr int kMaxW = index::kMaxW;
  static constexpr int kMinThreads = 1;
  static constexpr int kMaxThreads = 1024;
  static constexpr std::size_t kMaxShards = 1000000;
  static constexpr int kMaxHspScore = 1000000000;
  /// Smallest meaningful delivery budget: below this even a one-element
  /// run heap plus a one-element batch cannot fit, so the bound would be
  /// a lie.  0 stays legal (= unbounded).
  static constexpr std::size_t kMinDeliveryBudget = 1024;

  /// Check every field against the canonical bounds.  Empty = valid.
  [[nodiscard]] std::vector<OptionIssue> validate() const;

  /// Throw std::invalid_argument joining all validate() messages
  /// (used by scoris::Session so an invalid configuration can never
  /// reach the engine).
  void validate_or_throw() const;
};

/// Set `options.strand` from its CLI spelling ("plus" | "minus" |
/// "both").  Returns the canonical diagnostic on an unknown name, so the
/// list of legal names lives here and nowhere else.
[[nodiscard]] std::optional<OptionIssue> set_strand(Options& options,
                                                    std::string_view name);

/// Set `options.schedule` from its CLI spelling ("static" | "stealing").
[[nodiscard]] std::optional<OptionIssue> set_schedule(Options& options,
                                                      std::string_view name);

}  // namespace scoris::core
