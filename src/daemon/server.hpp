// scorisd — the scoris network daemon.
//
// One Server wraps one immutable scoris::Session (the resident prepared
// reference) and serves it to any number of concurrent clients over the
// net/frame.hpp protocol.  This is the service the ROADMAP's Session API
// was built for: the expensive reference preparation happens once, and
// every client query rides Session::search's documented thread-safety —
// the daemon adds only the query conversation.  A query's rows go
// through the M8Writer `scoris search` uses, on an ostream over a
// net::FrameWriter, so the ROWS payloads concatenate to the bytes a
// local search writes.  Accepting, admission,
// per-connection threads and the drain on request_stop() are
// net::Server's (net/server.hpp), configured by ServerConfig::listen; a
// connection refused by its connection cap gets a BUSY frame.
//
// Failure containment: a SinkError/NetError inside one query (client
// hung up mid-stream, send failed) aborts that query alone — its
// conversation logs-by-frame where possible and moves on; other clients
// never notice.  RunMerger's RAII spill directory reclaims the aborted
// query's temp files on the unwind path, so a long-lived daemon does
// not leak spill space however clients die.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "api/session.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "seqio/strand.hpp"

namespace scoris::daemon {

struct ServerConfig {
  /// Where and how the daemon accepts: listen address (TCP or unix),
  /// kernel accept-queue bound, concurrent admitted clients (the rest
  /// get BUSY) and the structured logger for lifecycle and
  /// per-connection events (not owned; must outlive serve(); nullptr
  /// silences the daemon — metrics still accumulate in
  /// obs::Registry::global()).
  net::ServerConfig listen{.endpoint = {}, .max_connections = 4};
  /// Largest QRY payload accepted (advertised in HELO; larger queries
  /// get an ERR and the connection survives).
  std::uint64_t max_query_bytes = std::uint64_t{64} << 20;
  /// ROWS frame flush threshold: m8 rows are batched into frames of at
  /// least this many bytes (the last frame may hold fewer), each ending
  /// on a row boundary.  Small values exist for tests that need many
  /// frames in flight (mid-stream disconnect coverage); 1 sends one row
  /// per frame.
  std::size_t chunk_bytes = std::size_t{256} << 10;
  /// Applied to every query (memory budget, delivery budget, tmp dir,
  /// ...); the QRY strand byte overrides `base_limits.strand` per query.
  SearchLimits base_limits;
};

/// QRY strand bytes and the strands they ask for, the one mapping both
/// ends of the wire use.  QueryStrand::kDefault asks for none: the
/// query runs on the session's own strand.
inline constexpr std::pair<net::QueryStrand, seqio::Strand>
    kQueryStrands[] = {
        {net::QueryStrand::kPlus, seqio::Strand::kPlus},
        {net::QueryStrand::kMinus, seqio::Strand::kMinus},
        {net::QueryStrand::kBoth, seqio::Strand::kBoth},
};

/// Tallies exposed for tests and the serve-loop log line.
struct ServerCounters {
  std::uint64_t accepted = 0;  ///< connections admitted (HELO sent)
  std::uint64_t rejected = 0;  ///< connections refused (BUSY sent)
  std::uint64_t served = 0;    ///< queries that reached DONE
  std::uint64_t failed = 0;    ///< queries that ended in ERR or a drop
};

/// bind/serve/request_stop/endpoint are net::Server's.
class Server : public net::Server {
 public:
  /// The session must outlive serve(); the server never copies it.
  Server(const Session& session, ServerConfig config);

  [[nodiscard]] ServerCounters counters() const;

 private:
  struct Conversation;

  explicit Server(std::shared_ptr<Conversation> conversation);

  std::shared_ptr<Conversation> conversation_;
};

}  // namespace scoris::daemon
