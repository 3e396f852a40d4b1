#include "daemon/server.hpp"

#include <exception>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/sinks.hpp"
#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"
#include "seqio/fasta.hpp"
#include "util/timer.hpp"

namespace scoris::daemon {

namespace {

/// Daemon-level metrics in the process registry.  References are
/// resolved once (registration takes the registry lock) and reused;
/// every increment after that is one relaxed atomic add.
struct DaemonMetrics {
  obs::Counter& connections_accepted;
  obs::Counter& busy_refusals;
  obs::Counter& queries_started;
  obs::Counter& queries_completed;
  obs::Counter& queries_errored;
  obs::Counter& bytes_sent;
  obs::Gauge& active_connections;
  obs::Histogram& query_seconds;

  static DaemonMetrics& get() {
    static DaemonMetrics* m = [] {
      obs::Registry& r = obs::Registry::global();
      return new DaemonMetrics{
          r.counter("scorisd_connections_accepted_total",
                    "Connections admitted (HELO sent)"),
          r.counter("scorisd_busy_refusals_total",
                    "Connections refused with BUSY (admission control)"),
          r.counter("scorisd_queries_started_total",
                    "QRY frames whose processing began"),
          r.counter("scorisd_queries_completed_total",
                    "Queries that reached DONE"),
          r.counter("scorisd_queries_errored_total",
                    "Queries that ended in ERR or a dropped connection"),
          r.counter("scorisd_bytes_sent_total",
                    "m8 result bytes streamed to clients"),
          r.gauge("scorisd_active_connections",
                  "Currently admitted client connections"),
          r.histogram("scorisd_query_seconds",
                      "Server-side wall time per query",
                      obs::latency_buckets()),
      };
    }();
    return *m;
  }
};

}  // namespace

struct Server::Conversation final : net::Service {
  Conversation(const Session& session, ServerConfig config)
      : session(&session), config(std::move(config)) {}

  const Session* session;
  ServerConfig config;

  util::Mutex mu;
  ServerCounters counters SCORIS_GUARDED_BY(mu);

  void count(std::uint64_t ServerCounters::* field) {
    util::MutexLock lock(mu);
    counters.*field += 1;
  }

  void converse(net::Connection& conn) override;
  void refuse(net::Socket& sock, obs::Logger& log) override;
  // `failed` counts queries: one that died with its connection counted
  // itself in serve_query, and a conversation that failed outside a
  // query was no query.
  void connection_failed() override {}
  void serve_query(net::Connection& conn, const net::Frame& request);
};

Server::Server(const Session& session, ServerConfig config)
    : Server(std::make_shared<Conversation>(session, std::move(config))) {}

Server::Server(std::shared_ptr<Conversation> conversation)
    : net::Server(conversation->config.listen, conversation),
      conversation_(std::move(conversation)) {}

ServerCounters Server::counters() const {
  util::MutexLock lock(conversation_->mu);
  return conversation_->counters;
}

void Server::Conversation::refuse(net::Socket& sock, obs::Logger& log) {
  count(&ServerCounters::rejected);
  DaemonMetrics::get().busy_refusals.inc();
  const std::size_t slots = config.listen.max_connections;
  log.warn("connection refused",
           {obs::kv("reason", "max clients"),
            obs::kv("max_clients", static_cast<unsigned long long>(slots))});
  try {
    std::string message = "all ";
    message += std::to_string(slots);
    message += " client slots are in use, try again later";
    net::PayloadWriter busy;
    busy.put_string(message);
    const std::vector<std::uint8_t> payload = busy.take();
    net::write_frame(sock, net::kBusyTag, payload);
  } catch (const net::NetError&) {
    // The refused client vanished first; nothing to tell it.
  }
}

void Server::Conversation::converse(net::Connection& conn) {
  DaemonMetrics& metrics = DaemonMetrics::get();
  count(&ServerCounters::accepted);
  metrics.connections_accepted.inc();
  metrics.active_connections.add(1);
  struct Active {
    DaemonMetrics& metrics;
    ~Active() { metrics.active_connections.sub(1); }
  } active{metrics};

  net::PayloadWriter hello;
  hello.put_u32(net::kProtocolVersion);
  hello.put_u64(config.max_query_bytes);
  const std::vector<std::uint8_t> payload = hello.take();
  net::write_frame(conn.socket(), net::kHelloTag, payload);

  net::Frame frame;
  while (conn.next_frame(frame)) {
    if (frame.tag == net::kStatTag) {
      // Snapshot outside any lock the query path touches; the render
      // only takes the registry's registration mutex.
      const std::string snapshot = obs::Registry::global().render_prometheus();
      net::write_frame(conn.socket(), net::kStatTag, snapshot);
      conn.log().debug("stats snapshot served",
                       {obs::kv("conn", conn.id()),
                        obs::kv("bytes", snapshot.size())});
      continue;
    }
    if (frame.tag != net::kQueryTag) {
      std::string message = "expected QRY or STAT, got '";
      message += net::tag_name(frame.tag);
      message += '\'';
      throw net::NetError(message);
    }
    serve_query(conn, frame);
  }
}

void Server::Conversation::serve_query(net::Connection& conn,
                                       const net::Frame& request) {
  // Per-query failures (bad FASTA, oversized payload, engine errors)
  // produce an ERR frame and leave the connection serving; only a dead
  // transport (NetError from a send) ends the conversation.
  DaemonMetrics& metrics = DaemonMetrics::get();
  metrics.queries_started.inc();
  util::WallTimer timer;
  std::string error;
  try {
    if (request.payload.size() > config.max_query_bytes) {
      std::string message = "query of ";
      message += std::to_string(request.payload.size());
      message += " bytes exceeds the server limit of ";
      message += std::to_string(config.max_query_bytes);
      throw std::runtime_error(message);
    }
    net::PayloadReader reader(request.payload, "QRY");
    const std::uint8_t strand_byte = reader.get_u8();
    const seqio::SequenceBank bank2 =
        seqio::read_fasta_string(reader.rest(), "query");

    SearchLimits limits = config.base_limits;
    bool known = strand_byte ==
                 static_cast<std::uint8_t>(net::QueryStrand::kDefault);
    for (const auto& [wire, strand] : kQueryStrands) {
      if (static_cast<std::uint8_t>(wire) == strand_byte) {
        limits.strand = strand;
        known = true;
      }
    }
    if (!known) {
      std::string message = "bad strand byte ";
      message += std::to_string(strand_byte);
      throw std::runtime_error(message);
    }

    // The rows stream as they are formatted.  send_all blocks while the
    // client's receive window is full, stalling the engine's delivery
    // thread: per-query backpressure, so a slow client cannot balloon
    // the daemon's memory.  A vanished client's NetError must leave the
    // stream as itself (badbit in the mask), unwinding and
    // spill-cleaning this query only.  The tail goes out before DONE is
    // composed, so a failed send aborts the query first.
    net::FrameWriter frames(conn.socket(), net::kRowsTag, config.chunk_bytes);
    std::ostream os(&frames);
    os.exceptions(std::ios::badbit);
    M8Writer rows(os);
    session->search(bank2, rows, limits);
    frames.flush();

    const double seconds = timer.seconds();
    net::PayloadWriter done;
    done.put_u64(rows.written());
    done.put_u64(frames.bytes_sent());
    done.put_f64(seconds);
    const std::vector<std::uint8_t> payload = done.take();
    net::write_frame(conn.socket(), net::kDoneTag, payload);
    count(&ServerCounters::served);
    metrics.queries_completed.inc();
    metrics.bytes_sent.inc(frames.bytes_sent());
    metrics.query_seconds.observe(seconds);
    conn.log().info("query served",
                    {obs::kv("conn", conn.id()),
                     obs::kv("rows", rows.written()),
                     obs::kv("bytes", frames.bytes_sent()),
                     obs::kv("seconds", seconds)});
    return;
  } catch (const net::NetError&) {
    count(&ServerCounters::failed);
    metrics.queries_errored.inc();
    metrics.query_seconds.observe(timer.seconds());
    throw;  // connection-fatal: the server closes it
  } catch (const std::exception& e) {
    error = e.what();
  }
  count(&ServerCounters::failed);
  metrics.queries_errored.inc();
  metrics.query_seconds.observe(timer.seconds());
  conn.log().warn("query failed",
                  {obs::kv("conn", conn.id()), obs::kv("error", error)});
  net::PayloadWriter err;
  err.put_string(error);
  const std::vector<std::uint8_t> payload = err.take();
  net::write_frame(conn.socket(), net::kErrorTag, payload);
}

}  // namespace scoris::daemon
