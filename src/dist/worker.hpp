// scoris worker — the remote shard-executor daemon of distributed
// execution.
//
// One Worker process sits on an endpoint and executes plan groups for
// whichever coordinator connects: the coordinator ships the reference,
// the query bank, and the output-affecting options in one WJOB frame
// (see dist/protocol.hpp), then feeds WGRP requests one at a time; the
// worker runs each group through the ordinary exec engine and streams
// the group's sorted step-4 run back as spill-run bytes.
//
// Accepting, admission, per-connection threads and the drain on
// request_stop() are net::Server's (net/server.hpp), configured by
// WorkerConfig::listen.  A worker conversation holds a whole prepared
// job (a Session over the reference, plus the query bank) for the life
// of its connection; a connection refused by the connection cap is
// closed without a word, and a coordinator treats that like a dead
// worker.
//
// Failure containment mirrors the daemon's: an engine error inside one
// group produces a WERR frame and the connection keeps serving; only a
// dead transport ends the connection, which discards the job while the
// accept loop takes the next coordinator.  Workers never create temp
// files — runs stream straight from memory to the socket — so a
// coordinator that dies mid-stream leaks nothing here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "net/server.hpp"

namespace scoris::dist {

struct WorkerConfig {
  /// Where and how the worker accepts: listen address (TCP or unix),
  /// kernel accept-queue bound, concurrent coordinator connections (more
  /// than one is unusual — each holds its own reference copy — but
  /// harmless) and the structured logger (not owned; must outlive
  /// serve(); nullptr silences the worker — metrics still accumulate in
  /// the registry).
  net::ServerConfig listen{.endpoint = {}, .max_connections = 2};
  /// Engine threads per job (the worker's own execution shape; the
  /// coordinator's options blob deliberately does not carry one).
  int threads = 1;
};

/// Tallies exposed for tests and the shutdown log line.
struct WorkerCounters {
  std::uint64_t accepted = 0;  ///< connections admitted (WHLO sent)
  std::uint64_t jobs = 0;      ///< WJOB setups completed (WACK sent)
  std::uint64_t groups = 0;    ///< groups executed to WEND
  std::uint64_t failed = 0;    ///< WERR frames sent or connections dropped
};

/// bind/serve/request_stop/endpoint are net::Server's.
class Worker : public net::Server {
 public:
  explicit Worker(WorkerConfig config);

  [[nodiscard]] WorkerCounters counters() const;

 private:
  struct Conversation;

  explicit Worker(std::shared_ptr<Conversation> conversation);

  std::shared_ptr<Conversation> conversation_;
};

}  // namespace scoris::dist
