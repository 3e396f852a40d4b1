// Unit coverage for the scorisd transport layer (src/net/): endpoint
// parsing, frame round-trips over a real socketpair, the frame writer's
// boundaries and failure paths, the corrupt-length guard, truncation
// detection, the payload scalar helpers, connect deadlines against full
// listen backlogs, and the shutdown wake pipe.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/retry.hpp"
#include "net/socket.hpp"

namespace scoris::net {
namespace {

/// A connected AF_UNIX stream pair — real kernel sockets, no listener.
struct SocketPair {
  Socket a;
  Socket b;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
};

// --- endpoint parsing --------------------------------------------------------

TEST(Endpoint, ParsesTcpHostPort) {
  const Endpoint ep = parse_endpoint("localhost:4321");
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.host, "localhost");
  EXPECT_EQ(ep.port, 4321);
  EXPECT_EQ(to_string(ep), "localhost:4321");
}

TEST(Endpoint, ParsesBracketedIpv6) {
  const Endpoint ep = parse_endpoint("[::1]:80");
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.host, "::1");
  EXPECT_EQ(ep.port, 80);
  EXPECT_EQ(to_string(ep), "[::1]:80");
}

TEST(Endpoint, ParsesUnixPath) {
  const Endpoint ep = parse_endpoint("unix:/tmp/scoris.sock");
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/tmp/scoris.sock");
  EXPECT_EQ(to_string(ep), "unix:/tmp/scoris.sock");
}

TEST(Endpoint, PortZeroMeansEphemeral) {
  EXPECT_EQ(parse_endpoint("127.0.0.1:0").port, 0);
}

TEST(Endpoint, RejectsMalformedSpecs) {
  for (const char* bad : {"nohost", "host:", "host:notaport", "host:70000",
                          "host:-1", "unix:", "host:12x"}) {
    EXPECT_THROW((void)parse_endpoint(bad), NetError) << bad;
  }
}

// --- frame round-trips -------------------------------------------------------

TEST(Frame, RoundTripsTagAndPayload) {
  SocketPair pair;
  const std::string payload = "hello, scorisd";
  write_frame(pair.a, kRowsTag, payload);

  Frame frame;
  ASSERT_TRUE(read_frame(pair.b, frame));
  EXPECT_EQ(frame.tag, kRowsTag);
  EXPECT_EQ(std::string(frame.payload.begin(), frame.payload.end()), payload);
}

TEST(Frame, RoundTripsEmptyPayloadAndSequences) {
  SocketPair pair;
  write_frame(pair.a, kDoneTag, std::string_view{});
  write_frame(pair.a, kQueryTag, std::string_view{">q\nACGT\n"});
  pair.a.close();  // clean EOF after the second frame

  Frame frame;
  ASSERT_TRUE(read_frame(pair.b, frame));
  EXPECT_EQ(frame.tag, kDoneTag);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_TRUE(read_frame(pair.b, frame));
  EXPECT_EQ(frame.tag, kQueryTag);
  EXPECT_EQ(frame.payload.size(), 8u);
  EXPECT_FALSE(read_frame(pair.b, frame));  // EOF between messages
}

TEST(Frame, RejectsOversizedLengthPrefix) {
  SocketPair pair;
  // Hand-craft a header claiming a payload beyond kMaxFramePayload: the
  // reader must throw before allocating, not trust the peer.
  const std::uint32_t huge = 0xFFFFFFFF;
  std::uint8_t header[8] = {'R', 'O', 'W', 'S',
                            static_cast<std::uint8_t>(huge),
                            static_cast<std::uint8_t>(huge >> 8),
                            static_cast<std::uint8_t>(huge >> 16),
                            static_cast<std::uint8_t>(huge >> 24)};
  pair.a.send_all(header, sizeof(header));

  Frame frame;
  EXPECT_THROW((void)read_frame(pair.b, frame), NetError);
}

TEST(Frame, DetectsTruncatedPayload) {
  SocketPair pair;
  // Header promises 100 bytes; the peer dies after 10.
  std::uint8_t header[8] = {'R', 'O', 'W', 'S', 100, 0, 0, 0};
  pair.a.send_all(header, sizeof(header));
  pair.a.send_all("0123456789", 10);
  pair.a.close();

  Frame frame;
  EXPECT_THROW((void)read_frame(pair.b, frame), NetError);
}

TEST(Frame, DetectsTruncatedHeader) {
  SocketPair pair;
  pair.a.send_all("RO", 2);
  pair.a.close();
  Frame frame;
  EXPECT_THROW((void)read_frame(pair.b, frame), NetError);
}

TEST(Frame, LargePayloadSurvivesKernelBuffering) {
  // Bigger than any socket buffer, so send_all must loop over partial
  // writes while the other thread drains.
  const std::string big(4 << 20, 'x');
  SocketPair pair;
  std::thread writer(
      [&pair, &big] { write_frame(pair.a, kRowsTag, big); });
  Frame frame;
  ASSERT_TRUE(read_frame(pair.b, frame));
  writer.join();
  EXPECT_EQ(frame.payload.size(), big.size());
}

// --- payload scalar helpers --------------------------------------------------

TEST(Payload, ScalarsRoundTripLittleEndian) {
  PayloadWriter writer;
  writer.put_u8(0xAB);
  writer.put_u32(0x01020304);
  writer.put_u64(0x0102030405060708ULL);
  writer.put_string("scoris");
  writer.put_bytes(">q\n");
  const std::vector<std::uint8_t> bytes = writer.take();

  // Byte layout is LE on the wire regardless of host order.
  EXPECT_EQ(bytes[1], 0x04);
  EXPECT_EQ(bytes[4], 0x01);

  PayloadReader reader(bytes, "test");
  EXPECT_EQ(reader.get_u8(), 0xAB);
  EXPECT_EQ(reader.get_u32(), 0x01020304u);
  EXPECT_EQ(reader.get_u64(), 0x0102030405060708ULL);
  EXPECT_EQ(reader.get_string(), "scoris");
  EXPECT_EQ(reader.rest(), ">q\n");
}

TEST(Payload, F64RoundTripsAndRemainingCountsDown) {
  PayloadWriter writer;
  writer.put_u64(42);
  writer.put_f64(0.125);
  writer.put_f64(-1e300);
  const std::vector<std::uint8_t> bytes = writer.take();
  PayloadReader reader(bytes, "test");
  EXPECT_EQ(reader.remaining(), 24u);
  EXPECT_EQ(reader.get_u64(), 42u);
  // remaining() is how a v2 client detects the optional trailing
  // server-seconds field in DONE without breaking v1 framing.
  EXPECT_EQ(reader.remaining(), 16u);
  EXPECT_EQ(reader.get_f64(), 0.125);
  EXPECT_EQ(reader.get_f64(), -1e300);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Client, OldServerVersionWithinRangeIsAccepted) {
  // A v1 HELO (the pre-STAT protocol) must still connect: the client
  // accepts [kMinProtocolVersion, kProtocolVersion] and only gates the
  // v2-only STAT request on the negotiated version.
  Endpoint ep;
  ep.kind = Endpoint::Kind::kTcp;
  ep.host = "127.0.0.1";
  ep.port = 0;
  Socket listener = listen_endpoint(ep, 4);
  ASSERT_GT(ep.port, 0);

  std::thread server([&listener] {
    Socket conn = accept_connection(listener);
    ASSERT_TRUE(conn.valid());
    PayloadWriter hello;
    hello.put_u32(kMinProtocolVersion);
    hello.put_u64(1024);
    const std::vector<std::uint8_t> payload = hello.take();
    write_frame(conn, kHelloTag, payload);
  });
  QueryClient client = QueryClient::connect(ep);
  server.join();
  EXPECT_EQ(client.version(), kMinProtocolVersion);
  // STAT needs v2; against a v1 server the client refuses locally.
  EXPECT_THROW((void)client.stats(), NetError);
}

TEST(Payload, ReaderThrowsPastTheEnd) {
  PayloadWriter writer;
  writer.put_u32(7);
  const std::vector<std::uint8_t> bytes = writer.take();
  PayloadReader reader(bytes, "test");
  EXPECT_EQ(reader.get_u32(), 7u);
  EXPECT_THROW((void)reader.get_u8(), NetError);
}

TEST(Payload, StringLengthBeyondPayloadThrows) {
  PayloadWriter writer;
  writer.put_u32(1000);  // claims 1000 bytes follow; none do
  const std::vector<std::uint8_t> bytes = writer.take();
  PayloadReader reader(bytes, "test");
  EXPECT_THROW((void)reader.get_string(), NetError);
}

TEST(Payload, TagNamesEscapeUnprintableBytes) {
  EXPECT_EQ(tag_name(kRowsTag), "ROWS");
  EXPECT_EQ(tag_name(FrameTag{'\x01', 'A', 'B', 'C'}), "\\x01ABC");
}

// --- frame writer ------------------------------------------------------------

/// Every frame readable on `sock` until the peer closes, as text.
std::vector<std::string> drain_frames(Socket& sock, const FrameTag& tag) {
  std::vector<std::string> payloads;
  Frame frame;
  while (read_frame(sock, frame)) {
    EXPECT_EQ(tag_name(frame.tag), tag_name(tag));
    payloads.emplace_back(frame.payload.begin(), frame.payload.end());
  }
  return payloads;
}

TEST(FrameWriter, SendsAtTheEndOfTheWriteThatReachesTheChunk) {
  SocketPair pair;
  FrameWriter frames(pair.a, kRowsTag, /*chunk_bytes=*/8);
  std::ostream os(&frames);
  os.exceptions(std::ios::badbit);
  os << std::string("abc");
  EXPECT_EQ(frames.bytes_sent(), 0u);
  os << std::string("defghij");  // reaches 8 mid-write: sent whole, at 10
  EXPECT_EQ(frames.bytes_sent(), 10u);
  os << std::string("0123456789ABCDEF");  // one write over the chunk
  EXPECT_EQ(frames.bytes_sent(), 26u);
  os.put('x');  // single characters go through overflow()
  os.put('y');
  os.flush();  // a stream flush is not a frame boundary
  EXPECT_EQ(frames.bytes_sent(), 26u);
  frames.flush();
  EXPECT_EQ(frames.bytes_sent(), 28u);
  frames.flush();  // nothing buffered: no empty frame
  pair.a.close();

  const std::vector<std::string> payloads = drain_frames(pair.b, kRowsTag);
  EXPECT_EQ(payloads, (std::vector<std::string>{"abcdefghij",
                                                "0123456789ABCDEF", "xy"}));
  std::uint64_t received = 0;
  for (const std::string& p : payloads) received += p.size();
  EXPECT_EQ(received, frames.bytes_sent());
}

TEST(FrameWriter, DestructionDropsTheUnflushedTail) {
  SocketPair pair;
  {
    FrameWriter frames(pair.a, kRowsTag, /*chunk_bytes=*/64);
    std::ostream os(&frames);
    os << std::string("never flushed");
  }
  pair.a.close();
  Frame frame;
  EXPECT_FALSE(read_frame(pair.b, frame)) << "the destructor sent a frame";
}

TEST(FrameWriter, ClosedPeerNetErrorEscapesAStreamWithBadbitSet) {
  SocketPair pair;
  pair.b.close();
  FrameWriter frames(pair.a, kRowsTag, /*chunk_bytes=*/1);
  std::ostream os(&frames);
  os.exceptions(std::ios::badbit);
  EXPECT_THROW(os << std::string("row\n"), NetError);
  EXPECT_TRUE(os.bad());
  EXPECT_EQ(frames.bytes_sent(), 0u);
}

// --- connect failures and deadlines ------------------------------------------

TEST(Connect, RefusedPortThrowsNetError) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = "/nonexistent/scoris-test.sock";
  EXPECT_THROW((void)connect_endpoint(ep), NetError);
}

/// A unix endpoint in a private temp directory, removed with it.
class UnixEndpoint {
 public:
  UnixEndpoint() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "scoris-nt-XXXXXX")
            .string();
    if (::mkdtemp(templ.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed";
    }
    dir_ = templ;
    ep_.kind = Endpoint::Kind::kUnix;
    ep_.path = dir_ + "/listener.sock";
  }
  ~UnixEndpoint() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] Endpoint& get() { return ep_; }

 private:
  std::string dir_;
  Endpoint ep_;
};

Endpoint loopback_tcp() {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kTcp;
  ep.host = "127.0.0.1";
  ep.port = 0;
  return ep;
}

/// Fill the queue of a listener that never accepts: with backlog 1 the
/// kernel queues two connections, and a third finds it full.
std::vector<Socket> fill_backlog(const Endpoint& ep) {
  std::vector<Socket> queued;
  for (int i = 0; i < 2; ++i) queued.push_back(connect_endpoint(ep, 2000));
  return queued;
}

/// A 200 ms connect into a full queue must wait out its deadline and
/// throw NetError naming the timeout, not hand back a socket.
void expect_connect_times_out(const Endpoint& ep) {
  const auto start = std::chrono::steady_clock::now();
  try {
    const Socket sock = connect_endpoint(ep, 200);
    ADD_FAILURE() << "connect returned fd " << sock.fd()
                  << " through a full backlog";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::milliseconds(150));
  EXPECT_LT(waited, std::chrono::seconds(10));
}

TEST(Connect, UnixFullBacklogTimesOut) {
  UnixEndpoint ep;
  const Socket listener = listen_endpoint(ep.get(), /*backlog=*/1);
  const std::vector<Socket> queued = fill_backlog(ep.get());
  expect_connect_times_out(ep.get());
}

TEST(Connect, TcpFullAcceptQueueTimesOut) {
  Endpoint ep = loopback_tcp();
  const Socket listener = listen_endpoint(ep, /*backlog=*/1);
  const std::vector<Socket> queued = fill_backlog(ep);
  expect_connect_times_out(ep);
}

TEST(Connect, BothFormsReachALiveListenerAndLeaveSendsUnbounded) {
  UnixEndpoint unix_ep;
  for (Endpoint ep : {unix_ep.get(), loopback_tcp()}) {
    Socket listener = listen_endpoint(ep, 4);
    for (const int timeout_ms : {0, 200}) {
      Socket sock = timeout_ms == 0 ? connect_endpoint(ep)
                                    : connect_endpoint(ep, timeout_ms);
      ASSERT_TRUE(sock.valid()) << to_string(ep);
      timeval tv{1, 1};
      socklen_t len = sizeof(tv);
      ASSERT_EQ(::getsockopt(sock.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, &len),
                0);
      EXPECT_EQ(tv.tv_sec, 0) << to_string(ep) << " " << timeout_ms;
      EXPECT_EQ(tv.tv_usec, 0) << to_string(ep) << " " << timeout_ms;

      Socket conn = accept_connection(listener);
      ASSERT_TRUE(conn.valid());
      write_frame(sock, kStatTag, std::string_view("ping"));
      Frame frame;
      ASSERT_TRUE(read_frame(conn, frame));
      EXPECT_EQ(std::string(frame.payload.begin(), frame.payload.end()),
                "ping");
    }
  }
}

TEST(Client, HeloWithWrongVersionIsRejected) {
  // Drive QueryClient::connect's admission path by hand over a listener.
  Endpoint ep;
  ep.kind = Endpoint::Kind::kTcp;
  ep.host = "127.0.0.1";
  ep.port = 0;
  Socket listener = listen_endpoint(ep, 4);
  ASSERT_GT(ep.port, 0);

  std::thread server([&listener] {
    Socket conn = accept_connection(listener);
    ASSERT_TRUE(conn.valid());
    PayloadWriter hello;
    hello.put_u32(kProtocolVersion + 1);  // future protocol
    hello.put_u64(1024);
    const std::vector<std::uint8_t> payload = hello.take();
    write_frame(conn, kHelloTag, payload);
  });
  EXPECT_THROW((void)QueryClient::connect(ep), NetError);
  server.join();
}

TEST(Client, BusyFrameThrowsServerBusy) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kTcp;
  ep.host = "127.0.0.1";
  ep.port = 0;
  Socket listener = listen_endpoint(ep, 4);

  std::thread server([&listener] {
    Socket conn = accept_connection(listener);
    ASSERT_TRUE(conn.valid());
    PayloadWriter busy;
    busy.put_string("no slots");
    const std::vector<std::uint8_t> payload = busy.take();
    write_frame(conn, kBusyTag, payload);
  });
  EXPECT_THROW((void)QueryClient::connect(ep), ServerBusy);
  server.join();
}

// --- wake pipe ---------------------------------------------------------------

/// The other open descriptor naming the same FIFO as `fd`, or -1.
int pipe_peer(int fd) {
  struct stat mine {};
  if (::fstat(fd, &mine) != 0) return -1;
  for (int other = 0; other < 4096; ++other) {
    struct stat st {};
    if (other != fd && ::fstat(other, &st) == 0 && S_ISFIFO(st.st_mode) &&
        st.st_dev == mine.st_dev && st.st_ino == mine.st_ino) {
      return other;
    }
  }
  return -1;
}

TEST(WakePipe, SignalStopNeverBlocks) {
  // Nothing drains the pipe, so the stop bytes fill its buffer long
  // before 100,000 signals; a signal_stop() that blocked then would
  // wedge the signal handler calling it.
  constexpr int kSignals = 100000;
  WakePipe wake;
  std::atomic<int> returned{0};
  std::thread signaller([&wake, &returned] {
    for (int i = 0; i < kSignals; ++i) {
      wake.signal_stop();
      returned.fetch_add(1, std::memory_order_release);
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (returned.load(std::memory_order_acquire) < kSignals &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(returned.load(), kSignals) << "signal_stop() blocked";
  EXPECT_EQ(wait_readable(wake.read_fd(), -1, 0), 1);
  // A wedged signaller is drained loose so the failure reports instead
  // of hanging the suite.
  char discard[4096];
  while (returned.load(std::memory_order_acquire) < kSignals) {
    if (wait_readable(wake.read_fd(), -1, 10) != 0) {
      (void)::read(wake.read_fd(), discard, sizeof(discard));
    }
  }
  signaller.join();

  const int write_fd = pipe_peer(wake.read_fd());
  ASSERT_GE(write_fd, 0);
  EXPECT_NE(::fcntl(wake.read_fd(), F_GETFD) & FD_CLOEXEC, 0);
  EXPECT_NE(::fcntl(write_fd, F_GETFD) & FD_CLOEXEC, 0);
}

// --- retry policy ------------------------------------------------------------

TEST(Retry, DelayDoublesAndSaturatesAtTheCap) {
  const RetryPolicy policy{5, 100, 500};
  EXPECT_EQ(policy.delay_ms(0), 100);
  EXPECT_EQ(policy.delay_ms(1), 200);
  EXPECT_EQ(policy.delay_ms(2), 400);
  EXPECT_EQ(policy.delay_ms(3), 500);
  // Far past the doubling range: must saturate, never overflow or wrap.
  EXPECT_EQ(policy.delay_ms(40), 500);
}

TEST(Retry, ZeroRetriesIsFailFast) {
  const RetryPolicy policy{};
  EXPECT_EQ(policy.retries, 0);
  EXPECT_EQ(policy.delay_ms(0), 100);  // still well-defined if asked
}

}  // namespace
}  // namespace scoris::net
