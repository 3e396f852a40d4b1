// The scorisd wire protocol: length-prefixed frames over a stream
// socket.
//
// Every message is one frame:
//
//   [tag 4 ASCII bytes][payload length u32 LE][payload bytes]
//
// mirroring the store/format section skeleton (tag + length) so the
// whole codebase frames bytes the same way; the CRC is omitted because
// TCP/Unix stream sockets already checksum, and a truncated frame is
// detected positionally (recv_exact throws mid-message).
//
// Conversation (protocol version 2):
//
//   server -> client   HELO [u32 version][u64 max_query_bytes]
//                        — admission granted, immediately after accept
//   server -> client   BUSY [string reason]
//                        — admission denied (503-style); server closes
//   client -> server   QRY  [u8 strand (0 = server default, 1 = plus,
//                            2 = minus, 3 = both)][FASTA bytes]
//   server -> client   ROWS [raw m8 text]            (0..n per query)
//                        — whole rows: every frame ends on a newline
//   server -> client   DONE [u64 alignments][u64 row_bytes]
//                           [f64 server_seconds]        (v2+)
//                        — query complete; row_bytes lets the client
//                          verify it received every ROWS byte, and
//                          server_seconds is the server-side query wall
//                          time (absent in v1 frames)
//   server -> client   ERR  [string message]
//                        — that query failed; the connection stays
//                          usable for the next QRY
//   client -> server   STAT []                            (v2+)
//                        — request an observability snapshot
//   server -> client   STAT [Prometheus text exposition bytes]  (v2+)
//                        — the process metrics registry, rendered
//
// A client may send any number of QRY/STAT frames on one connection;
// closing the connection ends the session.  Strings are
// [u32 length][bytes].
//
// Versioning: the server states its version in HELO.  Version 2 is a
// superset of version 1 (new STAT frame, DONE gained a trailing f64);
// clients accept any server version in [kMinProtocolVersion,
// kProtocolVersion] and gate v2-only features on the negotiated value.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "net/socket.hpp"

namespace scoris::net {

using FrameTag = std::array<char, 4>;

[[nodiscard]] constexpr FrameTag make_frame_tag(const char (&s)[5]) {
  return {s[0], s[1], s[2], s[3]};
}

inline constexpr FrameTag kHelloTag = make_frame_tag("HELO");
inline constexpr FrameTag kBusyTag = make_frame_tag("BUSY");
inline constexpr FrameTag kQueryTag = make_frame_tag("QRY ");
inline constexpr FrameTag kRowsTag = make_frame_tag("ROWS");
inline constexpr FrameTag kDoneTag = make_frame_tag("DONE");
inline constexpr FrameTag kErrorTag = make_frame_tag("ERR ");
inline constexpr FrameTag kStatTag = make_frame_tag("STAT");

inline constexpr std::uint32_t kProtocolVersion = 2;
/// Oldest server version this client generation still understands.
inline constexpr std::uint32_t kMinProtocolVersion = 1;
/// First version with the STAT frame and the DONE server-seconds field.
inline constexpr std::uint32_t kStatProtocolVersion = 2;

/// Hard upper bound on one frame's payload — a corrupt or hostile
/// length prefix must not become a multi-gigabyte allocation.
inline constexpr std::size_t kMaxFramePayload = std::size_t{256} << 20;

/// Strand byte of a QRY frame.
enum class QueryStrand : std::uint8_t {
  kDefault = 0,  ///< use the server session's configured strand
  kPlus = 1,
  kMinus = 2,
  kBoth = 3,
};

struct Frame {
  FrameTag tag{};
  std::vector<std::uint8_t> payload;
};

[[nodiscard]] std::string tag_name(const FrameTag& tag);

/// Send one frame (header + payload in one buffered write).
void write_frame(Socket& sock, const FrameTag& tag,
                 std::span<const std::uint8_t> payload);
void write_frame(Socket& sock, const FrameTag& tag, std::string_view payload);

/// Read one frame.  Returns false on clean EOF before a header; throws
/// NetError on truncation or an oversized length prefix.
[[nodiscard]] bool read_frame(Socket& sock, Frame& frame);

/// std::streambuf that sends what is written to it as frames of one
/// tag: the daemon's ROWS (an M8Writer over an ostream on it) and the
/// worker's WRUN (write_spill_run into one).  Each write is appended
/// whole, and once the buffer holds `chunk_bytes` it goes out as one
/// frame at the end of the write that crossed the threshold, so a
/// frame never splits a write: frames hold at least `chunk_bytes`
/// (except the last) and at most `chunk_bytes` - 1 plus one write.
///
/// Only flush() sends the tail — not the destructor, not
/// ostream::flush() — so a caller that fails mid-stream drops its
/// unsent bytes.  A send to a vanished peer throws NetError; an ostream
/// over the writer must keep badbit in its exception mask, or the
/// NetError is swallowed into badbit instead of reaching the caller.
class FrameWriter : public std::streambuf {
 public:
  /// `chunk_bytes` 0 behaves as 1 (one frame per write).
  FrameWriter(Socket& sock, const FrameTag& tag, std::size_t chunk_bytes);

  /// Send the buffered tail, if any, as one frame.
  void flush();

  /// Payload bytes framed so far.
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void send();

  Socket* sock_;
  FrameTag tag_;
  std::size_t chunk_bytes_;
  std::string buffer_;
  std::uint64_t bytes_sent_ = 0;
};

/// Little-endian payload composer for the scalar-bearing frames.
class PayloadWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f64(double v);  ///< IEEE-754 bits, little-endian
  void put_string(std::string_view s);  ///< u32 length + bytes
  void put_bytes(std::string_view s);   ///< raw, unprefixed
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader over a received payload; every getter throws
/// NetError("<what>: truncated ... frame") past the end.
class PayloadReader {
 public:
  PayloadReader(std::span<const std::uint8_t> payload, std::string what)
      : payload_(payload), what_(std::move(what)) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::string get_string();
  /// Everything not yet consumed, as text (QRY carries FASTA this way).
  [[nodiscard]] std::string_view rest() const;
  /// Unconsumed byte count — lets DONE parsing detect the optional v2
  /// trailing field without risking a truncation throw.
  [[nodiscard]] std::size_t remaining() const {
    return payload_.size() - cursor_;
  }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> payload_;
  std::size_t cursor_ = 0;
  std::string what_;
};

}  // namespace scoris::net
