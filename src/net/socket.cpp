#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace scoris::net {
namespace {

[[noreturn]] void throw_errno(const std::string& op) {
  throw NetError(op + ": " + std::strerror(errno));
}

/// getaddrinfo for one TCP endpoint; throws NetError with the gai text.
struct AddrInfo {
  addrinfo* head = nullptr;
  ~AddrInfo() {
    if (head != nullptr) ::freeaddrinfo(head);
  }
};

void resolve(const Endpoint& ep, bool passive, AddrInfo& out) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  const std::string port = std::to_string(ep.port);
  const char* node = ep.host.empty() ? nullptr : ep.host.c_str();
  const int rc = ::getaddrinfo(node, port.c_str(), &hints, &out.head);
  if (rc != 0) {
    throw NetError("resolve " + ep.host + ": " + ::gai_strerror(rc));
  }
}

/// Set SO_RCVTIMEO or SO_SNDTIMEO; `timeout_ms` <= 0 clears it.
void set_timeout(int fd, int option, int timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  }
  if (::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) != 0) {
    throw_errno(option == SO_RCVTIMEO ? "setsockopt SO_RCVTIMEO"
                                      : "setsockopt SO_SNDTIMEO");
  }
}

/// One blocking connect of `sock`, bounded by `timeout_ms` when it is
/// positive.  Linux bounds a blocking connect by SO_SNDTIMEO: at expiry
/// it fails with EINPROGRESS (TCP handshake still pending) or EAGAIN
/// (unix listener's backlog still full), both reported as "timed out".
/// The bound is cleared once connected, so sends stay unbounded.
/// Returns the failure text, empty on success.
std::string connect_socket(Socket& sock, const sockaddr* addr,
                           socklen_t addrlen, int timeout_ms) {
  if (timeout_ms > 0) set_timeout(sock.fd(), SO_SNDTIMEO, timeout_ms);
  if (::connect(sock.fd(), addr, addrlen) != 0) {
    const bool expired =
        timeout_ms > 0 && (errno == EINPROGRESS || errno == EAGAIN);
    return expired ? "timed out" : std::strerror(errno);
  }
  if (timeout_ms > 0) set_timeout(sock.fd(), SO_SNDTIMEO, 0);
  return {};
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw NetError("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) {
      throw NetError("endpoint '" + spec + "': empty unix socket path");
    }
    return ep;
  }
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 == spec.size()) {
    throw NetError("endpoint '" + spec +
                   "': expected host:port or unix:/path");
  }
  std::string host = spec.substr(0, colon);
  // Bracketed IPv6 literal: [::1]:4321.
  if (host.size() >= 2 && host.front() == '[' && host.back() == ']') {
    host = host.substr(1, host.size() - 2);
  }
  const std::string port_str = spec.substr(colon + 1);
  char* end = nullptr;
  errno = 0;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' || port < 0 ||
      port > 65535) {
    throw NetError("endpoint '" + spec + "': bad port '" + port_str + "'");
  }
  ep.kind = Endpoint::Kind::kTcp;
  ep.host = host;
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

std::string to_string(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kUnix) return "unix:" + ep.path;
  const bool v6 = ep.host.find(':') != std::string::npos;
  return (v6 ? "[" + ep.host + "]" : ep.host) + ":" +
         std::to_string(ep.port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::send_all(const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd_, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

bool Socket::recv_exact(void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd_, p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Only reachable with SO_RCVTIMEO armed (see set_recv_timeout):
        // the peer stalled past the bound.  Name the condition instead
        // of the raw errno so callers can log a meaningful diagnostic.
        throw NetError("recv: timed out waiting for the peer (got " +
                       std::to_string(got) + " of " + std::to_string(size) +
                       " bytes)");
      }
      throw_errno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF between messages
      throw NetError("recv: connection closed mid-message (got " +
                     std::to_string(got) + " of " + std::to_string(size) +
                     " bytes)");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

Socket listen_endpoint(Endpoint& ep, int backlog) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    Socket sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!sock.valid()) throw_errno("socket");
    const sockaddr_un addr = unix_addr(ep.path);
    if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("bind " + to_string(ep));
    }
    if (::listen(sock.fd(), backlog) != 0) throw_errno("listen");
    return sock;
  }

  AddrInfo ai;
  resolve(ep, /*passive=*/true, ai);
  std::string last_error = "no addresses";
  for (addrinfo* a = ai.head; a != nullptr; a = a->ai_next) {
    Socket sock(::socket(a->ai_family, a->ai_socktype | SOCK_CLOEXEC,
                         a->ai_protocol));
    if (!sock.valid()) continue;
    const int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(sock.fd(), a->ai_addr, a->ai_addrlen) != 0 ||
        ::listen(sock.fd(), backlog) != 0) {
      last_error = std::strerror(errno);
      continue;
    }
    // Report the kernel-chosen port back for ephemeral binds.
    sockaddr_storage bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      if (bound.ss_family == AF_INET) {
        ep.port = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        ep.port = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    return sock;
  }
  throw NetError("bind " + to_string(ep) + ": " + last_error);
}

Socket connect_endpoint(const Endpoint& ep, int timeout_ms) {
  std::string error = "no addresses";
  if (ep.kind == Endpoint::Kind::kUnix) {
    Socket sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!sock.valid()) throw_errno("socket");
    const sockaddr_un addr = unix_addr(ep.path);
    error = connect_socket(sock, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr), timeout_ms);
    if (error.empty()) return sock;
  } else {
    AddrInfo ai;
    resolve(ep, /*passive=*/false, ai);
    for (addrinfo* a = ai.head; a != nullptr; a = a->ai_next) {
      Socket sock(::socket(a->ai_family, a->ai_socktype | SOCK_CLOEXEC,
                           a->ai_protocol));
      if (!sock.valid()) continue;
      error = connect_socket(sock, a->ai_addr, a->ai_addrlen, timeout_ms);
      if (error.empty()) return sock;
    }
  }
  throw NetError("connect " + to_string(ep) + ": " + error);
}

void set_recv_timeout(Socket& sock, int timeout_ms) {
  set_timeout(sock.fd(), SO_RCVTIMEO, timeout_ms);
}

Socket accept_connection(Socket& listener) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    return Socket();  // transient (ECONNABORTED, EAGAIN after race, ...)
  }
}

int wait_readable(int fd_a, int fd_b, int timeout_ms) {
  pollfd fds[2];
  nfds_t n = 0;
  int index_a = -1;
  int index_b = -1;
  if (fd_a >= 0) {
    index_a = static_cast<int>(n);
    fds[n++] = {fd_a, POLLIN, 0};
  }
  if (fd_b >= 0) {
    index_b = static_cast<int>(n);
    fds[n++] = {fd_b, POLLIN, 0};
  }
  for (;;) {
    const int rc = ::poll(fds, n, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (rc == 0) return 0;
    int mask = 0;
    if (index_a >= 0 && (fds[index_a].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      mask |= 1;
    }
    if (index_b >= 0 && (fds[index_b].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      mask |= 2;
    }
    if (mask != 0) return mask;
  }
}

WakePipe::WakePipe() {
  if (::pipe2(fds_, O_CLOEXEC | O_NONBLOCK) != 0) throw_errno("pipe2");
}

WakePipe::~WakePipe() {
  if (fds_[0] >= 0) ::close(fds_[0]);
  if (fds_[1] >= 0) ::close(fds_[1]);
}

void WakePipe::signal_stop() {
  const char byte = 1;
  // write(2) is async-signal-safe.  Nothing drains the pipe, so enough
  // signals fill it; the non-blocking write end then fails with EAGAIN
  // instead of wedging a signal handler, and the pending bytes keep
  // every poller woken.
  [[maybe_unused]] const ssize_t rc = ::write(fds_[1], &byte, 1);
}

}  // namespace scoris::net
