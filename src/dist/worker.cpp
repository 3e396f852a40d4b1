#include "dist/worker.hpp"

#include <exception>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "api/sinks.hpp"
#include "core/exec/engine.hpp"
#include "core/exec/run_merge.hpp"
#include "dist/protocol.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "seqio/serialize.hpp"
#include "store/index_store.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace scoris::dist {

namespace {

/// Spill-run block size for runs streamed over the wire.  Any value
/// round-trips (the reader takes it from the RHDR section); this one
/// keeps section payloads near the WRUN chunk size.
constexpr std::size_t kWireBlockElems = 4096;

struct WorkerMetrics {
  obs::Counter& connections_accepted;
  obs::Counter& jobs_prepared;
  obs::Counter& groups_executed;
  obs::Counter& groups_failed;
  obs::Counter& run_bytes_sent;
  obs::Histogram& group_seconds;

  static WorkerMetrics& get() {
    static WorkerMetrics* m = [] {
      obs::Registry& r = obs::Registry::global();
      return new WorkerMetrics{
          r.counter("scoris_worker_connections_accepted_total",
                    "Coordinator connections admitted (WHLO sent)"),
          r.counter("scoris_worker_jobs_prepared_total",
                    "WJOB setups completed (reference resident, WACK sent)"),
          r.counter("scoris_worker_groups_executed_total",
                    "Plan groups executed to WEND"),
          r.counter("scoris_worker_groups_failed_total",
                    "Groups that ended in WERR"),
          r.counter("scoris_worker_run_bytes_sent_total",
                    "Spill-run bytes streamed to coordinators"),
          r.histogram("scoris_worker_group_seconds",
                      "Wall time per executed group",
                      obs::latency_buckets()),
      };
    }();
    return *m;
  }
};

/// Everything one WJOB setup prepares; lives for the connection.
struct Job {
  /// The reference, prepared exactly as the coordinator's Session was
  /// (same options, same mask, same index), so the seed sets agree.
  std::optional<Session> session;
  seqio::SequenceBank bank2;
};

}  // namespace

namespace {

/// Parse a WJOB payload into a ready-to-execute Job.  Throws
/// std::exception subclasses on any problem (bad ref kind, missing
/// store payload, invalid options); the caller turns those into WERR.
Job prepare_job(const net::Frame& frame, int threads) {
  net::PayloadReader reader(frame.payload, "WJOB");
  const std::uint8_t ref_kind = reader.get_u8();
  const std::string ref = reader.get_string();
  const std::string bank2_bytes = reader.get_string();

  core::Options options = read_options(reader);
  options.threads = threads;
  Job job;
  {
    std::istringstream is(bank2_bytes);
    job.bank2 = seqio::load_bank(is);
  }

  switch (static_cast<RefKind>(ref_kind)) {
    case RefKind::kInlineBank: {
      std::istringstream is(ref);
      job.session.emplace(seqio::load_bank(is), options);
      break;
    }
    case RefKind::kIndexPath:
      job.session.emplace(store::load_index(ref), options);
      break;
    default: {
      std::string message = "WJOB: unknown reference kind ";
      message += std::to_string(ref_kind);
      throw net::NetError(message);
    }
  }
  return job;
}

void send_error(net::Socket& conn, const std::string& message) {
  net::PayloadWriter err;
  err.put_string(message);
  const std::vector<std::uint8_t> payload = err.take();
  net::write_frame(conn, kWorkerErrorTag, payload);
}

/// Execute one WGRP and stream its run back.  Returns true on WEND,
/// false on a WERR (engine error); transport errors (NetError)
/// propagate and end the connection.
[[nodiscard]] bool serve_group(net::Connection& conn, const Job& job,
                               const GroupTask& task) {
  WorkerMetrics& metrics = WorkerMetrics::get();
  util::WallTimer timer;
  core::Result result;
  try {
    if (task.slice_from > task.slice_to ||
        task.slice_to > job.bank2.size()) {
      std::ostringstream message;
      message << "group " << task.id << ": slice [" << task.slice_from
              << ", " << task.slice_to << ") exceeds the query bank ("
              << job.bank2.size() << " sequences)";
      throw std::runtime_error(message.str());
    }
    // One group: this strand of this slice, streamed as it finishes.
    SearchLimits limits;
    limits.strand = task.minus ? seqio::Strand::kMinus : seqio::Strand::kPlus;
    core::exec::ExecRequest request =
        job.session->exec_request(job.bank2, limits);
    request.slices = {core::exec::SliceRange{
        static_cast<std::size_t>(task.slice_from),
        static_cast<std::size_t>(task.slice_to)}};
    Collector collector;
    (void)core::exec::execute(request, collector);
    result = collector.take();
  } catch (const std::exception& e) {
    // The group failed before any WRUN byte went out (execution is
    // collect-then-stream), so WERR leaves the coordinator's view
    // clean and the connection serving.
    metrics.groups_failed.inc();
    conn.log().warn("group failed",
                    {obs::kv("conn", conn.id()), obs::kv("group", task.id),
                     obs::kv("error", e.what())});
    send_error(conn.socket(), e.what());
    return false;
  }

  net::FrameWriter frames(conn.socket(), kRunChunkTag, kRunChunkBytes);
  std::ostream os(&frames);
  // Without this, a NetError thrown inside a streambuf write would be
  // swallowed into badbit by std::ostream; with badbit in the
  // exception mask the original exception is rethrown to us.
  os.exceptions(std::ios::badbit);
  core::exec::write_spill_run(os, result.alignments, kWireBlockElems);
  frames.flush();

  GroupEnd end;
  end.id = task.id;
  end.elements = result.alignments.size();
  end.run_bytes = frames.bytes_sent();
  net::PayloadWriter done;
  write_group_end(done, end);
  const std::vector<std::uint8_t> payload = done.take();
  net::write_frame(conn.socket(), kGroupEndTag, payload);

  const double seconds = timer.seconds();
  metrics.groups_executed.inc();
  metrics.run_bytes_sent.inc(end.run_bytes);
  metrics.group_seconds.observe(seconds);
  conn.log().info("group served",
                  {obs::kv("conn", conn.id()), obs::kv("group", task.id),
                   obs::kv("minus", task.minus ? 1 : 0),
                   obs::kv("elements", end.elements),
                   obs::kv("bytes", end.run_bytes),
                   obs::kv("seconds", seconds)});
  return true;
}

}  // namespace

struct Worker::Conversation final : net::Service {
  explicit Conversation(WorkerConfig config) : config(std::move(config)) {}

  WorkerConfig config;

  util::Mutex mu;
  WorkerCounters counters SCORIS_GUARDED_BY(mu);

  void count(std::uint64_t WorkerCounters::* field) {
    util::MutexLock lock(mu);
    counters.*field += 1;
  }

  void converse(net::Connection& conn) override;
  void refuse(net::Socket& sock, obs::Logger& log) override;
  void connection_failed() override { count(&WorkerCounters::failed); }
};

Worker::Worker(WorkerConfig config)
    : Worker(std::make_shared<Conversation>(std::move(config))) {}

Worker::Worker(std::shared_ptr<Conversation> conversation)
    : net::Server(conversation->config.listen, conversation),
      conversation_(std::move(conversation)) {}

WorkerCounters Worker::counters() const {
  util::MutexLock lock(conversation_->mu);
  return conversation_->counters;
}

void Worker::Conversation::refuse(net::Socket& /*sock*/, obs::Logger& log) {
  // No BUSY tier here: a refused coordinator sees the close and treats
  // the worker as dead, which is the correct fallback.
  log.warn("connection refused",
           {obs::kv("reason", "max jobs"),
            obs::kv("max_jobs", static_cast<unsigned long long>(
                                    config.listen.max_connections))});
}

void Worker::Conversation::converse(net::Connection& conn) {
  count(&WorkerCounters::accepted);
  WorkerMetrics::get().connections_accepted.inc();

  net::PayloadWriter hello;
  hello.put_u32(kWorkerProtocolVersion);
  const std::vector<std::uint8_t> hello_payload = hello.take();
  net::write_frame(conn.socket(), kWorkerHelloTag, hello_payload);

  // Job setup first: exactly one WJOB opens the conversation.
  net::Frame frame;
  if (!conn.next_frame(frame)) return;
  if (frame.tag != kJobTag) {
    std::string message = "expected WJOB, got '";
    message += net::tag_name(frame.tag);
    message += '\'';
    throw net::NetError(message);
  }
  Job job;
  try {
    job = prepare_job(frame, config.threads);
  } catch (const std::exception& e) {
    // Setup failure is connection-fatal by design: a coordinator
    // cannot dispatch groups to a worker with no reference.
    count(&WorkerCounters::failed);
    conn.log().warn("job setup failed", {obs::kv("conn", conn.id()),
                                         obs::kv("error", e.what())});
    send_error(conn.socket(), e.what());
    return;
  }
  count(&WorkerCounters::jobs);
  WorkerMetrics::get().jobs_prepared.inc();
  net::write_frame(conn.socket(), kJobAckTag, std::string_view{});
  conn.log().info("job prepared",
                  {obs::kv("conn", conn.id()),
                   obs::kv("reference_seqs", job.session->reference().size()),
                   obs::kv("query_seqs", job.bank2.size())});

  while (conn.next_frame(frame)) {
    if (frame.tag != kGroupTag) {
      std::string message = "expected WGRP, got '";
      message += net::tag_name(frame.tag);
      message += '\'';
      throw net::NetError(message);
    }
    net::PayloadReader reader(frame.payload, "WGRP");
    const GroupTask task = read_group(reader);
    if (serve_group(conn, job, task)) {
      count(&WorkerCounters::groups);
    } else {
      count(&WorkerCounters::failed);
    }
  }
}

}  // namespace scoris::dist
