// Distributed-search coordinator: fan an ExecutionPlan's (strand x
// bank2-slice) groups out over remote scoris workers and the local
// engine, and k-way merge the returned sorted runs into the canonical
// global hit order.
//
// The distribution unit is the plan *group*, because a group's sorted
// step-4 run is invariant to thread count, shard count, and schedule —
// the engine's determinism contract — so it does not matter where (or
// with how many threads) a group executes.  Budget-driven bank2 slicing
// is itself output-invariant, which lets the coordinator cut extra
// slices purely to create distributable parallelism: the merged m8
// stream stays byte-identical to a single-process run over the same
// banks and options.
//
// Topology: one connection per worker, one group in flight per
// connection (the worker protocol's serial request/response doubles as
// dynamic load balancing), and the coordinator's own thread as one more
// executor running groups through the in-process engine on the
// session's worker pool.  The group list comes from
// core::exec::plan_groups, as the engine's does.  Finished runs —
// remote ones rehydrated through SpillRunReader over the socket stream,
// with the same CRC validation spill files get — enter a shared
// RunMerger keyed by plan-group order, so completion order is
// irrelevant to the output.
//
// Fault handling: a worker that cannot be dialed, times out, breaks
// protocol, or ships a corrupt run has its in-flight group requeued
// (partial runs are never merged) and is retried under the shared
// net::RetryPolicy; a worker that stays dead simply stops taking work,
// and the local executor drains whatever remains.  Only a *local*
// engine failure aborts the search — with every worker gone the
// coordinator degrades to exactly the single-process path.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "net/retry.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"

namespace scoris::dist {

struct DistConfig {
  /// Worker endpoints (dialed once each; a dead worker is skipped).
  std::vector<net::Endpoint> workers;
  /// Deadline for each connect handshake (<= 0 blocks indefinitely).
  int connect_timeout_ms = 5000;
  /// Per-recv deadline while awaiting worker frames.  Streaming runs
  /// reset it with every chunk, so it bounds peer *silence*, not group
  /// runtime.
  int recv_timeout_ms = 30000;
  /// Re-dial policy for a worker whose connection failed (shared with
  /// `scoris query --retry`).
  net::RetryPolicy retry{2, 100, 5000};
  /// Lower bound on bank2 slices; 0 = auto, 2 * (workers + 1) so every
  /// executor sees a few groups even on small inputs.  More slices =
  /// finer balancing; output is invariant either way.
  std::size_t dist_slices = 0;
  /// Non-empty: ship the reference as this .scix path (workers load it
  /// from their own filesystem) instead of inlining the bank bytes.
  std::string index_path;
  obs::Logger* logger = nullptr;  ///< not owned; nullptr = silent
};

/// Search `bank2` against the session's reference, distributing plan
/// groups over `config.workers` plus the calling thread, and stream the
/// merged canonical-order alignments into `sink` (same contract as
/// Session::search, which this degrades to for single-group plans or
/// an empty worker list).  Throws on local engine failure or when the
/// options reject; worker failures alone never throw.
SearchOutcome run_distributed(const Session& session,
                              const seqio::SequenceBank& bank2,
                              HitSink& sink, const SearchLimits& limits,
                              const DistConfig& config);

}  // namespace scoris::dist
