// scoris::Session — the entry point of the public API.
//
// The ROADMAP's target workload is a service answering heavy repeated
// query traffic against one fixed reference bank.  A Session does the
// expensive preparation exactly once —
//
//   * load the reference (FASTA/.scob bank, or a prebuilt .scix store),
//   * validate the Options (Options::validate is the single source of
//     truth; an invalid configuration throws and never reaches the
//     engine),
//   * spin up the worker pool,
//   * DUST-mask the reference and index it on that pool (skipped
//     entirely for .scix artifacts) —
//
// and then serves any number of search() calls against it, each
// streaming alignments through a HitSink in bounded memory.  The memory
// budgets, strand selection, and spill directory vary per query via
// SearchLimits without touching the resident index.  A query's returned
// stats are the ones its sink receives; the one-time preparation is
// reported apart (reference_build_seconds()), for a one-shot caller to
// add to its one query.
//
// Thread safety: after construction a Session is immutable — the
// prepared reference, its index, the validated options, and the Karlin
// parameters are never written again — and search() is const.  Any
// number of threads may call search() on one shared Session
// concurrently (each query's mutable state is local to the call, and
// the shared worker pool hands every caller its own completion batch);
// this is exactly how the scorisd daemon serves parallel clients over
// one resident index.  A Session is movable but not copyable; moving it
// while queries are in flight is (unsurprisingly) not safe.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "core/exec/engine.hpp"
#include "core/hit_sink.hpp"
#include "core/options.hpp"
#include "core/pipeline.hpp"
#include "index/bank_index.hpp"
#include "obs/trace.hpp"
#include "seqio/sequence_bank.hpp"
#include "stats/karlin.hpp"
#include "store/index_store.hpp"
#include "util/threading.hpp"

namespace scoris {

/// The public option set (see core/options.hpp for fields and
/// validate()).
using Options = core::Options;

/// Per-query knobs of Session::search.  Everything here is
/// output-preserving except `strand` (which changes what is searched,
/// not how).
struct SearchLimits {
  /// Approximate budget for the two in-memory indexes (bytes).  When
  /// > 0, bank2 is streamed in sequence slices so the resident reference
  /// index plus one slice index fit the budget (the paper's section-3.1
  /// discipline); output is byte-identical to the unsliced run.  0 = no
  /// slicing.
  std::size_t memory_budget_bytes = 0;
  /// Override the session Options' strand for this query only.
  std::optional<seqio::Strand> strand;
  /// Lower bound on bank2 slices (testing hook; 0 = derive from the
  /// budget alone).
  std::size_t min_chunks = 0;
  /// Override the session Options' delivery budget for this query
  /// (bytes; see Options::delivery_budget_bytes).  Bounds the
  /// cross-group merge: sorted group runs spill to temp files over the
  /// budget and are k-way merged back in bounded head blocks.  0 = use
  /// the session options' value (whose own 0 means unbounded).
  std::size_t delivery_budget_bytes = 0;
  /// Override the session Options' spill directory for this query
  /// (empty = use the session options' value).
  std::string tmp_dir;
  /// Collect per-stage spans for this query (index/scan/gapped/merge;
  /// see obs::TraceRecorder).  Not owned; must outlive the search call.
  /// nullptr = no tracing.
  obs::TraceRecorder* trace = nullptr;
};

/// What one search() call reports: the engine's summary, whose `stats`
/// are exactly the ones the sink's on_stats received.  The one-time
/// reference build is not in them (see reference_build_seconds()).
using SearchOutcome = core::exec::ExecSummary;

class Session {
 public:
  /// Own `reference` and index it now, exactly once, with the validated
  /// `options` (throws std::invalid_argument listing every validation
  /// issue).
  explicit Session(seqio::SequenceBank reference, Options options = {});

  /// Adopt a loaded .scix store: no indexing happens at all.  The store
  /// must hold a payload matching the options' effective settings
  /// (std::runtime_error listing the available payloads otherwise).
  explicit Session(store::IndexStore store, Options options = {});

  /// Load a reference by path: `.scix` stores are adopted, `.scob` and
  /// FASTA banks are read and indexed.  Throws on I/O or format errors.
  [[nodiscard]] static Session open(const std::string& path,
                                    Options options = {});

  // The bank and the index are heap-pinned, so a moved Session's index
  // pointer stays valid.
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Compare the resident reference (query side, m8 qseqid) against
  /// `bank2`, streaming alignments into `sink`.  Reuses the prepared
  /// index and worker pool; never re-indexes the reference.  const and
  /// safe to call from any number of threads concurrently (see the
  /// header comment); each call's search state is call-local.
  SearchOutcome search(const seqio::SequenceBank& bank2, HitSink& sink,
                       const SearchLimits& limits = {}) const;

  /// Convenience: search into a Collector and return what it collected:
  /// every alignment in one vector, with the query's stats.
  [[nodiscard]] core::Result search_collect(
      const seqio::SequenceBank& bank2,
      const SearchLimits& limits = {}) const;

  /// The engine request search() runs for (bank2, limits): the session
  /// options with the limits' strand, delivery-budget and tmp-dir
  /// overrides applied and re-validated (std::invalid_argument on a bad
  /// override), the Karlin parameters, and the bank2 slices that the
  /// memory budget and min_chunks call for (empty = one whole-bank
  /// slice).  The request points into this session and `bank2`, so it
  /// is valid while both are.  dist::run_distributed plans its groups
  /// from it.
  [[nodiscard]] core::exec::ExecRequest exec_request(
      const seqio::SequenceBank& bank2, const SearchLimits& limits) const;

  [[nodiscard]] const seqio::SequenceBank& reference() const;
  [[nodiscard]] const index::BankIndex& reference_index() const {
    return *idx1_;
  }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Reference index builds performed by this session: 1 for a
  /// FASTA/.scob reference, 0 for an adopted .scix store — and never
  /// more, however many queries run.
  [[nodiscard]] std::size_t reference_builds() const { return builds_; }
  /// Wall seconds the one-time build took (0 when adopted).  No query's
  /// stats include it; a one-shot run that built the reference for its
  /// one query adds it to that query's step 1 and total.
  [[nodiscard]] double reference_build_seconds() const {
    return build_seconds_;
  }

 private:
  void init_pool();

  // Written during construction only; search() treats all of it as
  // immutable shared state.
  Options options_;
  stats::KarlinParams karlin_;
  std::unique_ptr<store::IndexStore> store_;    // .scix-backed sessions
  std::unique_ptr<seqio::SequenceBank> bank_;   // owned-bank sessions
  std::unique_ptr<index::BankIndex> index_;     // owned build
  const index::BankIndex* idx1_ = nullptr;      // points into store_/index_
  std::unique_ptr<util::ThreadPool> pool_;      // threads > 1 only
  std::size_t builds_ = 0;
  double build_seconds_ = 0.0;
};

}  // namespace scoris
