// Worker protocol v1 — the distributed-execution wire format.
//
// A `scoris worker` process executes (strand x bank2-slice) plan groups
// on behalf of a coordinator and streams each finished group's sorted
// step-4 run back as spill-run bytes (the exact `write_spill_run`
// framing, see core/exec/run_merge.hpp).  The transport is the same
// length-prefixed frame layer scorisd speaks (net/frame.hpp); this
// header defines the worker-side tags and payload layouts on top of it.
//
// Conversation (worker protocol version 1):
//
//   worker -> coord   WHLO [u32 version]
//                       — sent immediately after accept
//   coord -> worker   WJOB [u8 ref_kind][string reference]
//                          [string bank2 (.scob bytes)][options blob]
//                       — job setup: ref_kind 0 ships the reference
//                         inline as .scob bank bytes (worker indexes
//                         it), ref_kind 1 ships a .scix artifact *path*
//                         the worker loads locally (shared filesystem /
//                         pre-distributed artifact).  The options blob
//                         (see write_options) carries exactly the
//                         output-affecting option fields.
//   worker -> coord   WACK []
//                       — setup complete (reference resident, indexed)
//   coord -> worker   WGRP [u64 group][u8 minus][u64 slice_from]
//                          [u64 slice_to]
//                       — execute one plan group
//   worker -> coord   WRUN [spill-run byte chunk]       (0..n per group)
//   worker -> coord   WEND [u64 group][u64 elements][u64 run_bytes]
//                       — group complete; the WRUN chunks concatenate
//                         to exactly `run_bytes` bytes framing
//                         `elements` alignments
//   worker -> coord   WERR [string message]
//                       — the group (or setup) failed; no partial WRUN
//                         bytes for the group may be used
//
// One WGRP is in flight per connection at a time (serial
// request/response), which is the coordinator's dynamic load balancing:
// a fast worker asks for its next group sooner.  Closing the connection
// ends the job; the worker discards job state and returns to accept.
//
// Determinism contract: a group's run content depends only on (banks,
// options, strand, slice) — never on the worker's thread/shard/schedule
// choices — so the coordinator may merge runs computed anywhere, in any
// completion order, with RunMerger's explicit-order add_run, and the
// merged stream is byte-identical to the single-process engine.
//
// Versioning: the worker states its version in WHLO; a coordinator
// rejects versions above its own (it cannot know a future worker's
// framing) and workers reject future WJOB option-blob versions the same
// way.
#pragma once

#include <cstdint>
#include <streambuf>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "net/frame.hpp"

namespace scoris::dist {

inline constexpr net::FrameTag kWorkerHelloTag = net::make_frame_tag("WHLO");
inline constexpr net::FrameTag kJobTag = net::make_frame_tag("WJOB");
inline constexpr net::FrameTag kJobAckTag = net::make_frame_tag("WACK");
inline constexpr net::FrameTag kGroupTag = net::make_frame_tag("WGRP");
inline constexpr net::FrameTag kRunChunkTag = net::make_frame_tag("WRUN");
inline constexpr net::FrameTag kGroupEndTag = net::make_frame_tag("WEND");
inline constexpr net::FrameTag kWorkerErrorTag = net::make_frame_tag("WERR");

inline constexpr std::uint32_t kWorkerProtocolVersion = 1;

/// How WJOB ships the reference (bank1 side).
enum class RefKind : std::uint8_t {
  kInlineBank = 0,  ///< .scob bank bytes in the WJOB payload
  kIndexPath = 1,   ///< path to a .scix artifact the worker loads itself
};

/// WRUN chunk size: the worker streams spill-run bytes through a
/// net::FrameWriter with this threshold, so a large group goes out in
/// frames of at least this many bytes (except the last) and at most
/// this plus one section write, instead of one giant frame.
inline constexpr std::size_t kRunChunkBytes = std::size_t{256} << 10;

/// One plan group as the coordinator dispatches it.  `id` is the
/// group's position in the coordinator's plan (slice-major, plus before
/// minus) — the RunMerger tie-break key that pins global output order.
struct GroupTask {
  std::uint64_t id = 0;
  bool minus = false;
  std::uint64_t slice_from = 0;
  std::uint64_t slice_to = 0;
};

/// WEND payload.
struct GroupEnd {
  std::uint64_t id = 0;
  std::uint64_t elements = 0;
  std::uint64_t run_bytes = 0;
};

/// Serialize the output-affecting core::Options fields (versioned).
/// Execution-shape fields (threads, shards, schedule, delivery budget,
/// tmp dir, SIMD pinning) are deliberately absent: they are
/// output-invariant and each worker picks its own.
void write_options(net::PayloadWriter& out, const core::Options& options);

/// Parse an options blob into a default-constructed Options (the
/// worker's own execution-shape fields are applied on top by the
/// caller).  Throws net::NetError on a truncated blob or a version this
/// build does not speak.
[[nodiscard]] core::Options read_options(net::PayloadReader& in);

void write_group(net::PayloadWriter& out, const GroupTask& task);
[[nodiscard]] GroupTask read_group(net::PayloadReader& in);

void write_group_end(net::PayloadWriter& out, const GroupEnd& end);
[[nodiscard]] GroupEnd read_group_end(net::PayloadReader& in);

/// std::streambuf yielding the concatenated WRUN payload bytes of one
/// group as a non-seekable read stream — the coordinator wraps the
/// socket in one of these and hands it (as an istream) to
/// SpillRunReader, which validates CRCs and counts exactly as it does
/// for on-disk spill files.  The stream ends (EOF) at the WEND frame,
/// whose payload is then available via end(); a WERR frame ends the
/// stream by throwing net::NetError carrying the worker's message.
class RunFrameReader : public std::streambuf {
 public:
  explicit RunFrameReader(net::Socket& sock);

  /// True once the WEND frame has been consumed (stream hit EOF).
  [[nodiscard]] bool done() const { return done_; }
  /// The WEND payload; valid only when done().
  [[nodiscard]] const GroupEnd& end() const { return end_; }
  /// WRUN payload bytes delivered so far.
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_; }

 protected:
  int_type underflow() override;

 private:
  net::Socket* sock_;
  net::Frame frame_;
  bool done_ = false;
  GroupEnd end_;
  std::uint64_t bytes_ = 0;
};

}  // namespace scoris::dist
