// Unit coverage for the scorisd transport layer (src/net/): endpoint
// parsing, frame round-trips over a real socketpair, the corrupt-length
// guard, truncation detection, the payload scalar helpers, and the
// shutdown wake pipe.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
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

// --- connect failures --------------------------------------------------------

TEST(Connect, RefusedPortThrowsNetError) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = "/nonexistent/scoris-test.sock";
  EXPECT_THROW((void)connect_endpoint(ep), NetError);
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
