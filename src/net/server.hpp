// The one accept loop behind `scoris serve` and `scoris worker`.
//
// A Server owns a listening socket's lifecycle and nothing of what is
// said on it; a Service supplies the conversation.  daemon::Server (the
// query protocol) and dist::Worker (the worker protocol) are Servers
// configured with their own Service.
//
//   * serve() accepts; each connection is admitted (CAS on an active
//     counter, capped at max_connections) and gets a detached thread
//     running Service::converse, or is handed to Service::refuse.
//   * Connection threads hold a shared_ptr to the server's internal
//     state, never the Server, so a Server destroyed while stragglers
//     run cannot leave them dangling.
//   * The accept loop and Connection::next_frame also poll a WakePipe.
//     request_stop() writes its never-drained byte — nothing else — so
//     it is async-signal-safe and every poller wakes.
//   * Shutdown drains: a conversation busy with a request finishes it,
//     idle ones close, and serve() returns once every slot is free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"

namespace scoris::net {

struct ServerConfig {
  Endpoint endpoint;                ///< listen address (TCP or unix)
  int backlog = 16;                 ///< kernel accept-queue bound
  std::size_t max_connections = 1;  ///< concurrently admitted connections
  /// Lifecycle and conversation logger (not owned; must outlive serve()).
  /// nullptr silences the server.
  obs::Logger* logger = nullptr;
};

/// One admitted connection, as its conversation sees it.
class Connection {
 public:
  [[nodiscard]] Socket& socket() { return sock_; }
  /// Per-server sequence number, carried as `conn=` in every log line.
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] obs::Logger& log() const { return *log_; }

  /// Park on poll until the peer's next frame arrives, then read it.
  /// Returns false when the peer closed the connection or a stop has
  /// been requested; throws NetError on a broken transport or frame.
  /// Waiting here is what lets shutdown skip idle connections.
  [[nodiscard]] bool next_frame(Frame& frame);

 private:
  friend class Server;
  Connection(Socket sock, std::uint64_t id, obs::Logger& log, int wake_fd)
      : sock_(std::move(sock)), id_(id), log_(&log), wake_fd_(wake_fd) {}

  Socket sock_;
  std::uint64_t id_;
  obs::Logger* log_;
  int wake_fd_;
};

/// What a server says on its connections.  The accept loop and every
/// connection thread share one Service, so its members run concurrently.
class Service {
 public:
  Service() = default;
  virtual ~Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// The whole conversation with one admitted connection, on that
  /// connection's own thread.  Returning closes the connection; so does
  /// throwing, after the server logs "connection failed" and calls
  /// connection_failed().
  virtual void converse(Connection& conn) = 0;

  /// A connection beyond max_connections, on the accept thread; the
  /// socket is closed when this returns.
  virtual void refuse(Socket& sock, obs::Logger& log) = 0;

  /// A conversation ended by an exception.
  virtual void connection_failed() = 0;
};

class Server {
 public:
  Server(ServerConfig config, std::shared_ptr<Service> service);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen now (throws NetError on failure), so callers know the
  /// endpoint is live — and, for TCP port 0, what port it resolved to —
  /// before serve() blocks.
  void bind();

  /// Accept loop.  Blocks until request_stop(), then drains in-flight
  /// conversations and returns.  Calls bind() if it has not happened yet.
  void serve();

  /// Async-signal-safe: one write(2) on the wake pipe.  Safe from any
  /// thread and from SIGINT/SIGTERM handlers; idempotent.
  void request_stop();

  /// The resolved listen endpoint (real port for TCP port-0 binds).
  /// Valid after bind().
  [[nodiscard]] const Endpoint& endpoint() const;

 private:
  struct State;

  static void run_connection(std::shared_ptr<State> state, Socket sock,
                             std::uint64_t id);

  std::shared_ptr<State> state_;
  Socket listener_;
  bool bound_ = false;
};

}  // namespace scoris::net
