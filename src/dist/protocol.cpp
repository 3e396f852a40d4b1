#include "dist/protocol.hpp"

#include "net/socket.hpp"

namespace scoris::dist {
namespace {

/// Bump when the option blob layout changes; readers reject newer blobs.
constexpr std::uint32_t kOptionsBlobVersion = 1;

}  // namespace

void write_options(net::PayloadWriter& out, const core::Options& options) {
  out.put_u32(kOptionsBlobVersion);
  out.put_u32(static_cast<std::uint32_t>(options.w));
  out.put_u8(options.asymmetric ? 1 : 0);
  out.put_u32(static_cast<std::uint32_t>(options.scoring.match));
  out.put_u32(static_cast<std::uint32_t>(options.scoring.mismatch));
  out.put_u32(static_cast<std::uint32_t>(options.scoring.gap_open));
  out.put_u32(static_cast<std::uint32_t>(options.scoring.gap_extend));
  out.put_u32(static_cast<std::uint32_t>(options.scoring.xdrop_ungapped));
  out.put_u32(static_cast<std::uint32_t>(options.scoring.xdrop_gapped));
  out.put_u32(static_cast<std::uint32_t>(options.min_hsp_score));
  out.put_f64(options.max_evalue);
  out.put_u8(options.dust ? 1 : 0);
  out.put_u32(static_cast<std::uint32_t>(options.dust_params.window));
  out.put_u32(static_cast<std::uint32_t>(options.dust_params.level));
  out.put_u64(options.max_gap_extent);
  out.put_u8(options.enforce_order ? 1 : 0);
  out.put_u8(options.composition_stats ? 1 : 0);
}

core::Options read_options(net::PayloadReader& in) {
  const std::uint32_t version = in.get_u32();
  if (version > kOptionsBlobVersion) {
    throw net::NetError("worker job: option blob version " +
                        std::to_string(version) +
                        " is newer than this build speaks (" +
                        std::to_string(kOptionsBlobVersion) + ")");
  }
  core::Options options;
  options.w = static_cast<int>(in.get_u32());
  options.asymmetric = in.get_u8() != 0;
  options.scoring.match = static_cast<int>(in.get_u32());
  options.scoring.mismatch = static_cast<int>(in.get_u32());
  options.scoring.gap_open = static_cast<int>(in.get_u32());
  options.scoring.gap_extend = static_cast<int>(in.get_u32());
  options.scoring.xdrop_ungapped = static_cast<int>(in.get_u32());
  options.scoring.xdrop_gapped = static_cast<int>(in.get_u32());
  options.min_hsp_score = static_cast<int>(in.get_u32());
  options.max_evalue = in.get_f64();
  options.dust = in.get_u8() != 0;
  options.dust_params.window = static_cast<int>(in.get_u32());
  options.dust_params.level = static_cast<int>(in.get_u32());
  options.max_gap_extent = static_cast<std::size_t>(in.get_u64());
  options.enforce_order = in.get_u8() != 0;
  options.composition_stats = in.get_u8() != 0;
  return options;
}

void write_group(net::PayloadWriter& out, const GroupTask& task) {
  out.put_u64(task.id);
  out.put_u8(task.minus ? 1 : 0);
  out.put_u64(task.slice_from);
  out.put_u64(task.slice_to);
}

GroupTask read_group(net::PayloadReader& in) {
  GroupTask task;
  task.id = in.get_u64();
  task.minus = in.get_u8() != 0;
  task.slice_from = in.get_u64();
  task.slice_to = in.get_u64();
  return task;
}

void write_group_end(net::PayloadWriter& out, const GroupEnd& end) {
  out.put_u64(end.id);
  out.put_u64(end.elements);
  out.put_u64(end.run_bytes);
}

GroupEnd read_group_end(net::PayloadReader& in) {
  GroupEnd end;
  end.id = in.get_u64();
  end.elements = in.get_u64();
  end.run_bytes = in.get_u64();
  return end;
}

RunFrameReader::RunFrameReader(net::Socket& sock) : sock_(&sock) {
  setg(nullptr, nullptr, nullptr);
}

RunFrameReader::int_type RunFrameReader::underflow() {
  if (done_) return traits_type::eof();
  for (;;) {
    if (!net::read_frame(*sock_, frame_)) {
      throw net::NetError(
          "worker stream: connection closed mid-group (before WEND)");
    }
    if (frame_.tag == kRunChunkTag) {
      if (frame_.payload.empty()) continue;  // tolerate empty chunks
      char* data = reinterpret_cast<char*>(frame_.payload.data());
      setg(data, data, data + frame_.payload.size());
      bytes_ += frame_.payload.size();
      return traits_type::to_int_type(*data);
    }
    if (frame_.tag == kGroupEndTag) {
      net::PayloadReader reader(frame_.payload, "worker group end");
      end_ = read_group_end(reader);
      done_ = true;
      setg(nullptr, nullptr, nullptr);
      return traits_type::eof();
    }
    if (frame_.tag == kWorkerErrorTag) {
      net::PayloadReader reader(frame_.payload, "worker error");
      throw net::NetError("worker reported: " + reader.get_string());
    }
    throw net::NetError("worker stream: unexpected " +
                        net::tag_name(frame_.tag) + " frame mid-group");
  }
}

}  // namespace scoris::dist
