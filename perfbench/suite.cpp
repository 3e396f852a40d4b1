// scoris_perfbench — the benchmark harness run.py launches, once to make a
// workload's inputs and once to measure them:
//
//   scoris_perfbench gen --workload W --seed N --work DIR [--smoke]
//   scoris_perfbench run --workload W --seed N --work DIR --seconds S
//                        --trace 0|1 --scoris PATH [--smoke]
//
// `gen` writes the banks as FASTA (simulate::PaperData, seeded); it is
// harness work, never timed, and runs in its own process so the
// generator's memory never shows in the measured process.  `run` gives
// the program under test only those files.  It prints progress and every
// number it measures to stderr and one JSON result document as the last
// line of stdout (see suite/common.hpp, Report::json).
//
// The workloads and why each was chosen are in README.md.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "api/sinks.hpp"
#include "core/chunked.hpp"
#include "core/exec/run_merge.hpp"
#include "dist/coordinator.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seqio/fasta.hpp"
#include "simulate/paper_datasets.hpp"
#include "suite/common.hpp"
#include "suite/compose.hpp"
#include "suite/layers.hpp"
#include "suite/loadgen.hpp"
#include "suite/proc.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"

namespace scoris::perfbench {
namespace {

struct WorkloadSpec {
  const char* name;
  const char* bank1;  ///< the reference (m8 query side)
  const char* bank2;  ///< searched against it (the service's query pool)
  double scale;       ///< of the paper's bank sizes
  double smoke_scale;
  int threads;  ///< engine threads, capped at the host's CPUs
  seqio::Strand strand;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"est_pair", "EST5", "EST7", 0.05, 0.005, 4, seqio::Strand::kPlus},
    {"genome_scan", "BCT", "EST7", 0.1, 0.01, 4, seqio::Strand::kPlus},
    {"resident_service", "EST7", "EST5", 0.1, 0.01, 1, seqio::Strand::kPlus},
    {"dist_sliced", "EST5", "EST6", 0.05, 0.005, 1, seqio::Strand::kBoth},
};

constexpr int kSetupRepeats = 5;
// Traced runs repeat each measured search this often (once with --smoke,
// which checks the plumbing, not the numbers).
constexpr int kTracedRepeats = 3;

// resident_service: query windows of consecutive query-pool sequences,
// sent over a fixed number of connections; the open loop runs at a fixed
// rate well below the daemon's closed-loop capacity on a 4-CPU host.
constexpr std::size_t kServiceWindows = 32;
constexpr std::size_t kSmokeServiceWindows = 4;
constexpr std::size_t kWindowSequences = 32;
constexpr std::size_t kServiceConnections = 4;
constexpr double kOpenLoopRate = 15.0;  // queries per second
constexpr double kOpenLoopShare = 0.6;  // of --seconds; the rest is closed
constexpr double kLatencyLimit = 1.0;   // seconds, for throughput_per_s

// dist_sliced: two single-thread workers plus the coordinator's thread.
constexpr std::size_t kDistWorkers = 2;
constexpr std::size_t kDistSlices = 8;
constexpr std::size_t kDeliveryBudget = std::size_t{256} << 10;
constexpr std::size_t kWireBlockElems = 4096;  // as the workers send runs

struct Run {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 42;
  std::string work;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string scoris;
  int threads = 1;
  int repeats = kTracedRepeats;

  [[nodiscard]] std::string path(const std::string& file) const {
    return work + "/" + file;
  }
  /// A unix-socket address in the work directory (relative, so it stays
  /// under the sun_path limit wherever the checkout lives).
  [[nodiscard]] std::string socket_address(const std::string& stem,
                                           int instance) const {
    std::string address = "unix:";
    address += path(stem + std::to_string(instance) + ".sock");
    return address;
  }
  [[nodiscard]] core::Options options() const {
    core::Options o;
    o.threads = threads;
    o.strand = spec->strand;
    return o;
  }
};

double median(std::vector<double> v) { return summarize(std::move(v)).median; }

double cpus() {
  return static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
}

// ---- inputs ---------------------------------------------------------------

void generate(const Run& run) {
  const simulate::PaperData data(
      run.smoke ? run.spec->smoke_scale : run.spec->scale, run.seed);
  seqio::write_fasta_file(run.path("ref.fa"), data.make(run.spec->bank1));
  seqio::write_fasta_file(run.path("bank2.fa"), data.make(run.spec->bank2));
}

/// Keep the reference m8 bytes for run.py's seed-42 digest check.
void keep_output(const Run& run, Report& r, const std::string& m8) {
  write_file(run.path("output.m8"), m8);
  r.set_m8_path(run.path("output.m8"));
  r.check(!m8.empty(), "the searches find alignments");
}

/// Time `kSetupRepeats` set-ups; `setup(i)` builds instance i and returns
/// once it can take its first search.  `teardown()` (untimed) releases
/// every instance but the last, which the workload then measures.
template <typename Setup, typename Teardown>
std::vector<double> time_setups(Report& r, Setup&& setup,
                                Teardown&& teardown) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) teardown();
    util::WallTimer timer;
    setup(i);
    seconds.push_back(timer.seconds());
  }
  r.timing("setup", summarize(seconds), "s");
  return seconds;
}

/// Latency and throughput of back-to-back calls of `op` for `seconds`;
/// `op` returns false for a failed call.
template <typename Op>
void timed_loop(Report& r, double seconds, Op&& op) {
  std::vector<double> latency;
  std::size_t ok = 0;
  util::WallTimer phase;
  do {
    util::WallTimer timer;
    const bool success = op();
    latency.push_back(timer.seconds());
    r.attempted();
    if (success) {
      ++ok;
    } else {
      r.failed();
    }
  } while (phase.seconds() < seconds);
  const double elapsed = phase.seconds();
  const Summary s = summarize(latency);
  r.timing("search", s, "s");
  r.metric("latency_p50_ms", s.median * 1e3, "ms");
  r.metric("throughput_per_s", static_cast<double>(ok) / elapsed, "1/s");
}

/// Composed one-shot runs of the reference against `bank2`, each checked
/// against `expected`.
std::vector<ComposedSample> compose_pair(
    Report& r, int repeats, obs::TraceRecorder& trace,
    const seqio::SequenceBank& ref,
    const seqio::SequenceBank& bank2, const core::Options& options,
    const std::string& expected,
    const std::vector<core::exec::SliceRange>& slices = {},
    std::vector<std::vector<align::GappedAlignment>>* runs = nullptr) {
  std::vector<ComposedSample> samples(static_cast<std::size_t>(repeats));
  for (ComposedSample& s : samples) {
    util::WallTimer wall;
    Composer composer(ref, options, &trace, s.totals);
    util::WallTimer search;
    const std::string m8 = composer.search(bank2, slices, runs);
    s.search_s = search.seconds();
    s.wall_s = wall.seconds();
    r.verified(m8 == expected,
               "composed engine output is byte-identical to Session::search");
    runs = nullptr;  // keep the first repeat's runs only
  }
  return samples;
}

double untraced_pair_s(Report& r, int repeats, const Session& session,
                       const seqio::SequenceBank& bank2,
                       const std::string& expected,
                       const SearchLimits& limits = {}) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    util::WallTimer timer;
    const std::string m8 = search_m8(session, bank2, limits);
    seconds.push_back(timer.seconds());
    r.verified(m8 == expected, "repeated Session::search output is identical");
  }
  return median(seconds);
}

// ---- est_pair, genome_scan: one in-process Session ------------------------

void run_batch(const Run& run, Report& r, obs::TraceRecorder& trace) {
  const core::Options options = run.options();
  std::optional<Session> session;
  const std::vector<double> setup = time_setups(
      r,
      [&](int) { session.emplace(Session::open(run.path("ref.fa"), options)); },
      [&] { session.reset(); });
  const seqio::SequenceBank bank2 =
      seqio::read_fasta_file(run.path("bank2.fa"));

  const std::string expected = search_m8(*session, bank2);  // warm-up
  keep_output(run, r, expected);

  if (!run.trace) {
    r.metric("setup_s", median(setup), "s");
    timed_loop(r, run.seconds, [&] {
      try {
        const std::string m8 = search_m8(*session, bank2);
        r.check(m8 == expected, "every timed search output is identical");
        return true;
      } catch (const std::exception& e) {
        std::cerr << "  search failed: " << e.what() << '\n';
        return false;
      }
    });
    r.metric("peak_rss_mb", vm_hwm_mib(), "MiB");
    return;
  }

  const double untraced =
      untraced_pair_s(r, run.repeats, *session, bank2, expected);
  const seqio::SequenceBank ref = seqio::read_fasta_file(run.path("ref.fa"));
  const std::vector<ComposedSample> composed =
      compose_pair(r, run.repeats, trace, ref, bank2, options, expected);
  report_engine_layers(r, composed, untraced);
  report_store(r, ref, options, run.path("ref.scix"));
  report_blast(r, ref, bank2, options, composed);
  report_unused(r, kServiceLayer);
  report_unused(r, kDistLayer);
  if (std::string(run.spec->name) == "est_pair") {
    // Plain single-thread baseline for the scaling efficiency.
    core::Options t1 = options;
    t1.threads = 1;
    const Session single = Session::open(run.path("ref.fa"), t1);
    const double t1_s =
        untraced_pair_s(r, run.repeats, single, bank2, expected);
    r.metric("exec.t1_pair_s", t1_s, "s");
    r.metric("exec.scaling_eff",
             ratio(t1_s, static_cast<double>(options.threads) * untraced),
             "ratio");
  } else {
    report_unused(r, kThreadingLayer);
  }
}

// ---- resident_service: `scoris serve` and a load generator ---------------

void run_service(const Run& run, Report& r, obs::TraceRecorder& trace) {
  const core::Options options = run.options();

  // Query windows and their expected replies, from an in-process session
  // (harness work: untimed, and not part of the daemon's memory).
  const seqio::SequenceBank pool = seqio::read_fasta_file(run.path("bank2.fa"));
  if (pool.size() < kWindowSequences) {
    throw std::runtime_error("query pool smaller than one window");
  }
  std::mt19937_64 rng(run.seed);
  std::uniform_int_distribution<std::size_t> start(
      0, pool.size() - kWindowSequences);
  std::vector<std::string> queries;
  std::vector<seqio::SequenceBank> windows;
  const std::size_t window_count =
      run.smoke ? kSmokeServiceWindows : kServiceWindows;
  for (std::size_t k = 0; k < window_count; ++k) {
    const std::size_t from = start(rng);
    std::ostringstream fasta;
    seqio::write_fasta(fasta,
                       core::slice_bank(pool, from, from + kWindowSequences));
    queries.push_back(fasta.str());
    windows.push_back(seqio::read_fasta_string(queries.back()));
  }
  std::vector<std::string> expected;
  {
    core::Options fast = options;
    fast.threads = static_cast<int>(std::min(4.0, cpus()));
    const Session reference = Session::open(run.path("ref.fa"), fast);
    std::string all;
    for (const seqio::SequenceBank& w : windows) {
      expected.push_back(search_m8(reference, w));
      all += expected.back();
    }
    keep_output(run, r, all);
  }

  // The daemon adopts a .scix built by the program's own `index` command.
  {
    Child index({run.scoris, "index", "--bank", run.path("ref.fa"), "--out",
                 run.path("ref.scix")},
                run.path("index.log"));
    if (index.wait_exit(120.0) != 0) {
      throw std::runtime_error("scoris index failed (see index.log)");
    }
  }

  double rss = 0.0;
  std::unique_ptr<Child> serve;
  net::Endpoint endpoint;
  const auto stop_serve = [&] {
    rss = std::max(rss, serve->vm_hwm_mib());
    serve.reset();
  };
  const std::vector<double> setup = time_setups(r, [&](int i) {
    const std::string address = run.socket_address("serve", i);
    endpoint = net::parse_endpoint(address);
    serve = std::make_unique<Child>(
        std::vector<std::string>{run.scoris, "serve", "--index",
                                 run.path("ref.scix"), "--listen", address,
                                 "--threads", "1", "--max-clients",
                                 std::to_string(kServiceConnections),
                                 "--log-level", "warn"},
        run.path("serve.log"));
    wait_until(*serve, 60.0, "scoris serve", [&] {
      try {
        (void)net::QueryClient::connect(endpoint);
        return true;
      } catch (const net::NetError&) {
        return false;
      }
    });
  }, stop_serve);

  LoadGen load(endpoint, queries, expected, kServiceConnections);
  load.warm_up();
  const std::vector<QuerySample> open = load.open_loop(
      kOpenLoopRate, run.seconds * kOpenLoopShare, run.seed);
  const std::vector<QuerySample> closed =
      load.closed_loop(run.seconds * (1.0 - kOpenLoopShare), run.seed + 1);
  load.disconnect();
  stop_serve();

  std::size_t busy = 0;
  std::vector<double> latency;
  std::vector<double> late;
  std::vector<double> server;
  std::vector<double> overhead;
  for (const std::vector<QuerySample>* phase : {&open, &closed}) {
    for (const QuerySample& q : *phase) {
      r.attempted();
      if (q.busy) ++busy;
      if (q.mismatch) {
        r.check(false, "a daemon reply differs from Session::search");
      } else if (!q.ok) {
        r.failed();
      }
    }
  }
  for (const QuerySample& q : open) {
    // A failed query misses every latency limit.
    latency.push_back(q.ok ? q.latency_s : 1e9);
    late.push_back(q.late_s);
    if (q.ok && q.server_s >= 0) {
      server.push_back(q.server_s);
      overhead.push_back(q.client_s - q.server_s);
    }
  }
  const double closed_s = run.seconds * (1.0 - kOpenLoopShare);
  const auto within_limit = std::count_if(
      closed.begin(), closed.end(), [&](const QuerySample& q) {
        return q.ok && q.latency_s <= kLatencyLimit && q.done_at_s <= closed_s;
      });
  r.timing("open-loop latency", summarize(latency), "s");
  std::cerr << "  open loop: " << open.size() << " queries at "
            << kOpenLoopRate << "/s; closed loop: " << closed.size()
            << " queries on " << kServiceConnections << " connections\n";

  if (!run.trace) {
    r.metric("setup_s", median(setup), "s");
    r.metric("latency_p50_ms", median(latency) * 1e3, "ms");
    r.metric("throughput_per_s", static_cast<double>(within_limit) / closed_s,
             "1/s");
    r.metric("peak_rss_mb", rss, "MiB");
    return;
  }

  r.metric("daemon.server_ms_p50", median(server) * 1e3, "ms");
  r.metric("net.overhead_ms_p50", median(overhead) * 1e3, "ms");
  r.metric("loadgen.late_ms_p99", percentile(late, 99) * 1e3, "ms");
  r.metric("daemon.busy_refusals", static_cast<double>(busy), "count");
  r.metric("loadgen.latency_p90_ms", percentile(latency, 90) * 1e3, "ms");
  r.metric("loadgen.latency_p99_ms", percentile(latency, 99) * 1e3, "ms");

  // The same windows replayed in-process: plain (untraced) and composed,
  // with the daemon's one engine thread per query.
  const seqio::SequenceBank ref = seqio::read_fasta_file(run.path("ref.fa"));
  double untraced = 0.0;
  {
    const Session single = Session::open(run.path("ref.fa"), options);
    util::WallTimer timer;
    for (std::size_t k = 0; k < windows.size(); ++k) {
      r.verified(search_m8(single, windows[k]) == expected[k],
                 "in-process replay output is identical");
    }
    untraced = timer.seconds();
  }
  std::vector<ComposedSample> composed(static_cast<std::size_t>(run.repeats));
  for (ComposedSample& s : composed) {
    util::WallTimer wall;
    Composer composer(ref, options, &trace, s.totals);
    util::WallTimer search;
    for (std::size_t k = 0; k < windows.size(); ++k) {
      r.verified(composer.search(windows[k]) == expected[k],
                 "composed engine output is byte-identical to Session::search");
    }
    s.search_s = search.seconds();
    s.wall_s = wall.seconds();
  }
  report_engine_layers(r, composed, untraced);
  report_store(r, ref, options, run.path("store.scix"));
  report_unused(r, kBlastLayer);
  report_unused(r, kDistLayer);
  report_unused(r, kThreadingLayer);
}

// ---- dist_sliced: run_distributed over two `scoris worker`s ---------------

std::uint64_t registry_count(const char* name) {
  return obs::Registry::global().counter(name).value();
}

void run_dist(const Run& run, Report& r, obs::TraceRecorder& trace) {
  core::Options options = run.options();
  options.delivery_budget_bytes = kDeliveryBudget;
  options.tmp_dir = run.path("tmp");
  std::filesystem::create_directories(options.tmp_dir);

  double rss = 0.0;
  std::vector<std::unique_ptr<Child>> workers;
  dist::DistConfig config;
  config.dist_slices = kDistSlices;
  std::optional<Session> session;
  const auto stop_workers = [&] {
    for (const auto& w : workers) rss = std::max(rss, w->vm_hwm_mib());
    workers.clear();
  };
  const std::vector<double> setup = time_setups(r, [&](int i) {
    config.workers.clear();
    for (std::size_t w = 0; w < kDistWorkers; ++w) {
      const std::string address =
          run.socket_address("worker" + std::to_string(w) + "-", i);
      config.workers.push_back(net::parse_endpoint(address));
      workers.push_back(std::make_unique<Child>(
          std::vector<std::string>{run.scoris, "worker", "--listen", address,
                                   "--threads", "1", "--log-level", "warn"},
          run.path("worker.log")));
    }
    session.emplace(Session::open(run.path("ref.fa"), options));
    for (std::size_t w = 0; w < kDistWorkers; ++w) {
      wait_until(*workers[w], 60.0, "scoris worker", [&] {
        // Ready once it accepts and greets a connection.
        try {
          net::Socket probe = net::connect_endpoint(config.workers[w]);
          net::Frame hello;
          return net::read_frame(probe, hello);
        } catch (const net::NetError&) {
          return false;
        }
      });
    }
  }, [&] {
    stop_workers();
    session.reset();
  });
  const seqio::SequenceBank bank2 =
      seqio::read_fasta_file(run.path("bank2.fa"));

  // In-process reference output, then one untimed distributed warm-up.
  const std::string expected = search_m8(*session, bank2);
  keep_output(run, r, expected);

  // One distributed search; false when it threw or a worker was lost
  // (the coordinator then finishes locally, so bytes alone cannot tell).
  const auto distributed = [&](std::string& m8) {
    const std::uint64_t lost =
        registry_count("scoris_dist_workers_failed_total");
    try {
      std::ostringstream os;
      M8Writer writer(os);
      (void)dist::run_distributed(*session, bank2, writer, {}, config);
      m8 = std::move(os).str();
    } catch (const std::exception& e) {
      std::cerr << "  distributed search failed: " << e.what() << '\n';
      return false;
    }
    r.check(m8 == expected,
            "distributed output is byte-identical to Session::search");
    return registry_count("scoris_dist_workers_failed_total") == lost;
  };
  std::string m8;
  r.check(distributed(m8), "the distributed warm-up succeeds");

  if (!run.trace) {
    r.metric("setup_s", median(setup), "s");
    timed_loop(r, run.seconds, [&] { return distributed(m8); });
    stop_workers();
    r.metric("peak_rss_mb", std::max(rss, vm_hwm_mib()), "MiB");
    return;
  }

  std::vector<double> dist_s;
  std::vector<double> wire;
  std::vector<double> remote;
  for (int i = 0; i < run.repeats; ++i) {
    const std::uint64_t bytes0 =
        registry_count("scoris_dist_wire_bytes_received_total");
    const std::uint64_t remote0 =
        registry_count("scoris_dist_groups_remote_total");
    util::WallTimer timer;
    r.verified(distributed(m8), "a distributed search succeeds");
    dist_s.push_back(timer.seconds());
    wire.push_back(static_cast<double>(
        registry_count("scoris_dist_wire_bytes_received_total") - bytes0));
    remote.push_back(static_cast<double>(
        registry_count("scoris_dist_groups_remote_total") - remote0));
  }
  stop_workers();

  // The same banks in-process on as many threads as the distributed run
  // has executors.
  core::Options threaded = options;
  threaded.threads = static_cast<int>(kDistWorkers + 1);
  const Session inproc = Session::open(run.path("ref.fa"), threaded);
  const double inproc_s =
      untraced_pair_s(r, run.repeats, inproc, bank2, expected);

  // The coordinator's slicing, composed and untraced on one thread.
  core::ChunkedOptions copt;
  copt.pipeline = options;
  copt.memory_budget_bytes = ~std::size_t{0};
  copt.min_chunks = kDistSlices;
  const std::vector<core::exec::SliceRange> slices = core::plan_budget_slices(
      session->reference_index().memory_bytes() +
          session->reference().data_size() * sizeof(seqio::Code),
      bank2, copt);
  SearchLimits sliced;
  sliced.min_chunks = kDistSlices;
  const double untraced =
      untraced_pair_s(r, run.repeats, *session, bank2, expected, sliced);
  const seqio::SequenceBank ref = seqio::read_fasta_file(run.path("ref.fa"));
  std::vector<std::vector<align::GappedAlignment>> runs;
  const std::vector<ComposedSample> composed = compose_pair(
      r, run.repeats, trace, ref, bank2, options, expected, slices, &runs);
  report_engine_layers(r, composed, untraced);

  // Spill-run encoding and decoding of the group runs, as workers ship
  // them and the coordinator validates them.
  double encode_s = 0.0;
  double decode_s = 0.0;
  for (const auto& group_run : runs) {
    std::ostringstream os;
    {
      obs::Span span(&trace, "dist.encode");
      util::WallTimer timer;
      core::exec::write_spill_run(os, group_run, kWireBlockElems);
      encode_s += timer.seconds();
    }
    std::istringstream is(std::move(os).str());
    std::size_t decoded = 0;
    {
      obs::Span span(&trace, "dist.decode");
      util::WallTimer timer;
      core::exec::SpillRunReader reader(is, "group run");
      for (auto block = reader.next_block(is); !block.empty();
           block = reader.next_block(is)) {
        decoded += block.size();
      }
      decode_s += timer.seconds();
    }
    r.check(decoded == group_run.size(), "spill runs round-trip");
  }

  const double dist_median = median(dist_s);
  r.metric("dist.pair_s", dist_median, "s");
  r.metric("dist.inproc_pair_s", inproc_s, "s");
  r.metric("dist.overhead_ratio", ratio(dist_median, inproc_s), "ratio");
  r.metric("dist.run_encode_s", encode_s, "s");
  r.metric("dist.run_decode_s", decode_s, "s");
  r.metric("dist.wire_bytes", median(wire), "bytes");
  r.metric("dist.remote_groups", median(remote), "count");
  report_store(r, ref, options, run.path("ref.scix"));
  report_unused(r, kServiceLayer);
  report_unused(r, kBlastLayer);
  report_unused(r, kThreadingLayer);
}

int usage() {
  std::cerr << "usage: scoris_perfbench gen|run --workload W --seed N "
               "--work DIR [--seconds S --trace 0|1 --scoris PATH] "
               "[--smoke]\n";
  return 2;
}

}  // namespace
}  // namespace scoris::perfbench

int main(int argc, char** argv) {
  using namespace scoris::perfbench;
  const scoris::util::Args args = scoris::util::Args::parse(argc, argv);
  if (args.positional().size() != 1) return usage();
  const std::string mode = args.positional()[0];

  Run run;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.get("workload") == spec.name) run.spec = &spec;
  }
  if (run.spec == nullptr || !args.has("work")) return usage();
  run.seed = static_cast<std::uint64_t>(args.get_int_or_exit("seed", 42));
  run.work = args.get("work");
  run.seconds = args.get_double_or_exit("seconds", 10.0);
  run.trace = args.get_int_or_exit("trace", 0) != 0;
  run.smoke = args.get_flag("smoke");
  run.scoris = args.get("scoris");
  run.threads = static_cast<int>(
      std::min(static_cast<double>(run.spec->threads), cpus()));
  if (run.smoke) run.repeats = 1;

  try {
    if (mode == "gen") {
      generate(run);
      return 0;
    }
    if (mode != "run" || run.scoris.empty()) return usage();
    std::cerr << run.spec->name << " (seed " << run.seed << ", "
              << (run.trace ? "traced" : "untraced") << ", " << run.threads
              << " engine threads, " << cpus() << " CPUs)\n";
    scoris::net::ignore_sigpipe();
    Report report;
    scoris::obs::TraceRecorder trace;
    const std::string name = run.spec->name;
    if (name == "resident_service") {
      run_service(run, report, trace);
    } else if (name == "dist_sliced") {
      run_dist(run, report, trace);
    } else {
      run_batch(run, report, trace);
    }
    if (run.trace) {
      report.metric("host.cpus", cpus(), "count");
      trace.write_chrome_json(run.path("trace.json"));
    }
    std::cout << report.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
