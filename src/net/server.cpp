#include "net/server.hpp"

#include <atomic>
#include <exception>
#include <filesystem>
#include <thread>
#include <utility>

#include "util/thread_annotations.hpp"

namespace scoris::net {

bool Connection::next_frame(Frame& frame) {
  const int ready = wait_readable(sock_.fd(), wake_fd_, -1);
  if ((ready & 2) != 0) return false;  // idle at shutdown: just close
  return read_frame(sock_, frame);
}

struct Server::State {
  ServerConfig config;
  std::shared_ptr<Service> service;
  /// Readable from the first request_stop() on: the stop state itself.
  WakePipe wake;
  std::atomic<std::size_t> active{0};
  std::atomic<std::uint64_t> next_conn_id{1};

  // Drain coordination.  `active` is decremented under the mutex so the
  // drain wait cannot miss the final notify.
  util::Mutex mu;
  util::CondVar cv;

  [[nodiscard]] obs::Logger& log() const {
    return config.logger != nullptr ? *config.logger : obs::null_logger();
  }

  bool admit() {
    std::size_t current = active.load(std::memory_order_relaxed);
    while (current < config.max_connections) {
      if (active.compare_exchange_weak(current, current + 1,
                                       std::memory_order_acq_rel)) {
        return true;
      }
    }
    return false;
  }

  void release() {
    {
      util::MutexLock lock(mu);
      active.fetch_sub(1, std::memory_order_acq_rel);
    }
    cv.notify_all();
  }
};

Server::Server(ServerConfig config, std::shared_ptr<Service> service)
    : state_(std::make_shared<State>()) {
  state_->config = std::move(config);
  state_->service = std::move(service);
  ignore_sigpipe();
}

Server::~Server() {
  // Detached stragglers own state_ and exit on the wake signal; nothing
  // here blocks on them.
  request_stop();
  if (bound_ && state_->config.endpoint.kind == Endpoint::Kind::kUnix) {
    std::error_code ec;
    std::filesystem::remove(state_->config.endpoint.path, ec);
  }
}

void Server::bind() {
  if (bound_) return;
  listener_ = listen_endpoint(state_->config.endpoint, state_->config.backlog);
  bound_ = true;
}

const Endpoint& Server::endpoint() const { return state_->config.endpoint; }

void Server::request_stop() { state_->wake.signal_stop(); }

void Server::serve() {
  bind();
  State& state = *state_;
  for (;;) {
    const int ready = wait_readable(listener_.fd(), state.wake.read_fd(), -1);
    if ((ready & 2) != 0) break;  // wake pipe: shutdown requested
    Socket sock = accept_connection(listener_);
    if (!sock.valid()) continue;
    if (!state.admit()) {
      state.service->refuse(sock, state.log());
      continue;
    }
    const std::uint64_t id =
        state.next_conn_id.fetch_add(1, std::memory_order_relaxed);
    state.log().info("connection accepted", {obs::kv("conn", id)});
    std::thread(&Server::run_connection, state_, std::move(sock), id)
        .detach();
  }
  // Stop accepting, then drain: busy conversations finish their request;
  // idle ones see the (never-drained) wake byte in next_frame and return.
  listener_.close();
  util::MutexLock lock(state.mu);
  while (state.active.load(std::memory_order_acquire) != 0) {
    state.cv.wait(state.mu);
  }
}

void Server::run_connection(std::shared_ptr<State> state, Socket sock,
                            std::uint64_t id) {
  // The admission slot is held for the connection's whole lifetime and
  // released on every exit path, including throws.
  struct SlotGuard {
    State& state;
    std::uint64_t id;
    ~SlotGuard() {
      state.log().info("connection closed", {obs::kv("conn", id)});
      state.release();
    }
  } guard{*state, id};

  Connection conn(std::move(sock), id, state->log(), state->wake.read_fd());
  try {
    state->service->converse(conn);
  } catch (const std::exception& e) {
    // The transport died or the peer broke protocol: this connection is
    // over, every other one is untouched.
    state->service->connection_failed();
    state->log().warn("connection failed",
                      {obs::kv("conn", id), obs::kv("error", e.what())});
  }
}

}  // namespace scoris::net
