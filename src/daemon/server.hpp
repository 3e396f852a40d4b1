// scorisd — the scoris network daemon.
//
// One Server wraps one immutable scoris::Session (the resident prepared
// reference) and serves it to any number of concurrent clients over the
// net/frame.hpp protocol.  This is the service the ROADMAP's Session API
// was built for: the expensive reference preparation happens once, and
// every client query rides Session::search's documented thread-safety —
// the daemon adds only the query conversation.  Accepting, admission,
// per-connection threads and the drain on request_stop() are
// net::Server's (net/server.hpp); a connection refused by the
// max_clients cap gets a BUSY frame.
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
#include <string>

#include "api/session.hpp"
#include "net/server.hpp"
#include "obs/log.hpp"

namespace scoris::daemon {

struct ServerConfig {
  net::Endpoint endpoint;           ///< listen address (TCP or unix)
  int backlog = 16;                 ///< kernel accept-queue bound
  std::size_t max_clients = 4;      ///< concurrent admitted connections
  /// Largest QRY payload accepted (advertised in HELO; larger queries
  /// get an ERR and the connection survives).
  std::uint64_t max_query_bytes = std::uint64_t{64} << 20;
  /// ROWS frame flush threshold: m8 text is batched into frames of
  /// roughly this many bytes.  Small values exist for tests that need
  /// many frames in flight (mid-stream disconnect coverage).
  std::size_t chunk_bytes = std::size_t{256} << 10;
  /// Applied to every query (delivery budget, tmp dir, ...); the QRY
  /// strand byte overrides `base_limits.strand` per query.
  SearchLimits base_limits;
  /// Structured logger for lifecycle + per-connection events (not
  /// owned; must outlive serve()).  nullptr silences the daemon —
  /// metrics still accumulate in obs::Registry::global().
  obs::Logger* logger = nullptr;
};

/// Tallies exposed for tests and the serve-loop log line.
struct ServerCounters {
  std::uint64_t accepted = 0;  ///< connections admitted (HELO sent)
  std::uint64_t rejected = 0;  ///< connections refused (BUSY sent)
  std::uint64_t served = 0;    ///< queries that reached DONE
  std::uint64_t failed = 0;    ///< queries that ended in ERR or a drop
};

/// Streams m8 rows from a Session::search into ROWS frames.  Public so
/// the tests can drive it against a socketpair without a full server.
class SocketM8Sink final : public HitSink {
 public:
  SocketM8Sink(net::Socket& sock, std::size_t chunk_bytes)
      : sock_(&sock), chunk_bytes_(chunk_bytes == 0 ? 1 : chunk_bytes) {}

  void on_group(std::span<const align::GappedAlignment> hits,
                const HitBatch& batch) override;

  /// Send any buffered tail.  Called after the search returns; not from
  /// on_stats, because a failed flush must abort the query *before* the
  /// DONE frame is composed.
  void flush();

  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] std::uint64_t row_bytes() const { return row_bytes_; }

 private:
  net::Socket* sock_;
  std::size_t chunk_bytes_;
  std::string buffer_;
  std::uint64_t rows_ = 0;
  std::uint64_t row_bytes_ = 0;
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
