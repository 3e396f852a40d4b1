#include "core/exec/run_merge.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/gapped_stage.hpp"
#include "obs/metrics.hpp"
#include "store/format.hpp"

namespace scoris::core::exec {
namespace {

using align::GappedAlignment;

/// Merge/spill metrics: how often the delivery budget forces disk, and
/// the process-wide high-water mark of delivery-path memory.
struct MergeMetrics {
  obs::Counter& spilled_runs;
  obs::Counter& spill_bytes;
  obs::Gauge& peak_delivery_bytes;

  static MergeMetrics& get() {
    static MergeMetrics* m = [] {
      obs::Registry& r = obs::Registry::global();
      return new MergeMetrics{
          r.counter("scoris_spill_runs_total",
                    "Sorted runs spilled to temp files"),
          r.counter("scoris_spill_bytes_total",
                    "Bytes written to spill files"),
          r.gauge("scoris_peak_delivery_bytes",
                  "High-water mark of delivery-path memory"),
      };
    }();
    return *m;
  }
};

// Spill runs are a process-private scratch format: raw trivially-copyable
// structs framed by the shared versioned container, consumed by the same
// build that wrote them.
static_assert(std::is_trivially_copyable_v<GappedAlignment>);

constexpr store::Tag kRunMagic = store::make_tag("SRUN");
constexpr store::Tag kRunHeader = store::make_tag("RHDR");
constexpr store::Tag kRunBlock = store::make_tag("RUNB");
constexpr std::uint32_t kRunVersion = 1;
constexpr const char* kWhat = "spill run";

constexpr std::size_t kAlignBytes = sizeof(GappedAlignment);
/// Batch size when no budget bounds the delivery path.
constexpr std::size_t kDefaultBatchElems = 8192;

}  // namespace

std::uint64_t write_spill_run(std::ostream& os,
                              std::span<const GappedAlignment> run,
                              std::size_t block_elems) {
  if (block_elems == 0) block_elems = 1;
  // Counted here rather than by tellp(): the worker writes runs to a
  // socket-backed streambuf, where tellp() is -1.
  std::uint64_t bytes = store::write_header(os, kRunMagic, kRunVersion);
  {
    store::SectionWriter header(kRunHeader);
    header.put_u64(run.size());
    header.put_u64(block_elems);
    bytes += header.finish(os);
  }
  for (std::size_t from = 0; from < run.size(); from += block_elems) {
    const std::size_t n = std::min(block_elems, run.size() - from);
    store::SectionWriter block(kRunBlock);
    block.put_array(run.subspan(from, n));
    bytes += block.finish(os);
  }
  return bytes;
}

SpillRunReader::SpillRunReader(std::istream& is, std::string what)
    : what_(std::move(what)) {
  store::read_header(is, kRunMagic, kRunVersion, what_);
  store::SectionReader header(is, what_);
  if (!header.is(kRunHeader)) {
    throw std::runtime_error(what_ + ": expected RHDR section, got " +
                             header.tag_name());
  }
  total_ = header.read_u64();
  block_elems_ = header.read_u64();
  if (block_elems_ == 0) {
    throw std::runtime_error(what_ + ": corrupt RHDR (zero block size)");
  }
  offset_ = is.tellg();
}

std::vector<GappedAlignment> SpillRunReader::next_block(std::istream& is) {
  if (read_ == total_) return {};
  // Reopened spill files seek to the recorded block offset; a
  // non-seekable stream (socket-backed, tellg() == -1) is consumed
  // strictly sequentially and is by construction already positioned at
  // the next block.
  const std::streamoff pos = is.tellg();
  if (pos != offset_ && pos != std::streamoff{-1}) is.seekg(offset_);
  store::SectionReader section(is, what_);
  if (!section.is(kRunBlock)) {
    throw std::runtime_error(what_ + ": expected RUNB section, got " +
                             section.tag_name());
  }
  std::vector<GappedAlignment> block =
      section.read_array<GappedAlignment>();
  if (block.empty() || read_ + block.size() > total_) {
    throw std::runtime_error(
        what_ + ": RUNB block disagrees with the RHDR element count "
                "(corrupt or truncated run)");
  }
  read_ += block.size();
  offset_ = is.tellg();
  return block;
}

RunMerger::RunMerger(RunMergeConfig config, std::size_t expected_runs)
    : config_(std::move(config)) {
  if (config_.budget_bytes > 0) {
    // The head share of the budget, divided across every potential run's
    // one live block; floor of one alignment per block keeps tiny budgets
    // functional at the cost of the minimum possible overshoot.
    block_elems_ = std::max<std::size_t>(
        1, config_.budget_bytes / 4 /
               (std::max<std::size_t>(1, expected_runs) * kAlignBytes));
  }
}

RunMerger::~RunMerger() {
  if (!spill_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }
}

std::string RunMerger::next_spill_path() {
  if (spill_dir_.empty()) {
    // One private mkdtemp directory (mode 0700, unpredictable name) per
    // merger: spill files under a world-writable temp root must not be
    // pre-creatable or symlinkable by other local users, and the
    // directory makes cleanup one recursive remove.
    const std::filesystem::path base =
        config_.tmp_dir.empty() ? std::filesystem::temp_directory_path()
                                : std::filesystem::path(config_.tmp_dir);
    std::string templ = (base / "scoris-spill-XXXXXX").string();
    if (::mkdtemp(templ.data()) == nullptr) {
      throw std::runtime_error(
          "spill run: cannot create spill directory under " +
          base.string() + ": " + std::strerror(errno));
    }
    spill_dir_ = templ;
  }
  return (std::filesystem::path(spill_dir_) /
          ("run-" + std::to_string(spill_seq_++) + ".run"))
      .string();
}

void RunMerger::track_peak(std::size_t batch_capacity) {
  stats_.peak_delivery_bytes =
      std::max(stats_.peak_delivery_bytes,
               retained_bytes_ + head_bytes_ + batch_capacity * kAlignBytes);
  MergeMetrics::get().peak_delivery_bytes.max_of(
      static_cast<std::int64_t>(stats_.peak_delivery_bytes));
}

void RunMerger::add_run(std::vector<GappedAlignment>&& run) {
  // Sequential callers (the engine) add in plan order, so insertion
  // order is the tie-break; runs_.size() reproduces the historical
  // run-index key exactly (empty runs never occupy a slot).
  add_run(std::move(run), runs_.size());
}

void RunMerger::add_run(std::vector<GappedAlignment>&& run,
                        std::size_t order) {
  if (run.empty()) return;
  ++stats_.runs;
  const std::size_t run_bytes = run.size() * kAlignBytes;
  // The incoming group buffer is delivery-path memory during the handoff
  // (the streamed paths count the very same buffer), so the peak covers
  // it even when the run spills rather than being retained.
  stats_.peak_delivery_bytes =
      std::max(stats_.peak_delivery_bytes, retained_bytes_ + run_bytes);
  const std::size_t run_share = config_.budget_bytes / 2;
  if (config_.budget_bytes == 0 ||
      retained_bytes_ + run_bytes <= run_share) {
    retained_bytes_ += run_bytes;
    track_peak(0);
    runs_.push_back(Run{std::move(run), 0, {}, order});
    return;
  }
  Run spilled;
  spilled.order = order;
  spilled.path = next_spill_path();
  try {
    std::ofstream os(spilled.path, std::ios::binary);
    if (!os) {
      throw std::runtime_error("spill run: cannot create " + spilled.path);
    }
    const std::uint64_t written = write_spill_run(os, run, block_elems_);
    stats_.spill_bytes += written;
    MergeMetrics::get().spill_bytes.inc(written);
    os.close();
    if (!os) {
      throw std::runtime_error("spill run: write failed: " + spilled.path);
    }
  } catch (...) {
    // A half-written run (full disk) is unreadable; remove it now rather
    // than leaving it for the destructor's directory sweep, since the
    // caller may catch the error and keep the merger alive.
    std::error_code ec;
    std::filesystem::remove(spilled.path, ec);
    throw;
  }
  ++stats_.spilled_runs;
  MergeMetrics::get().spilled_runs.inc();
  runs_.push_back(std::move(spilled));
}

std::size_t RunMerger::merge(HitSink& sink, HitBatch batch) {
  // One resumable reader per spilled run; the file itself is opened only
  // for the duration of a block read, so the merge never holds more than
  // one spill fd however many runs spilled (a budget-degraded plan can
  // have thousands of groups — RLIMIT_NOFILE must not bound it).
  std::vector<std::optional<SpillRunReader>> spill(runs_.size());
  const auto open_spill = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      throw std::runtime_error("spill run: cannot reopen " + path);
    }
    return is;
  };

  // Refill `run`'s head block (or report it exhausted).  In-memory runs
  // release their buffer the moment the cursor passes the end, so the
  // retained total shrinks as the merge drains; spilled runs delete
  // their temp file the moment the last block is consumed, so a
  // long-lived process reclaims spill disk per run rather than holding
  // every file until the merger is destroyed (the destructor still
  // removes the whole directory, covering aborted merges).
  const auto ensure = [&](std::size_t r) -> bool {
    Run& run = runs_[r];
    if (run.pos < run.mem.size()) return true;
    if (spill[r].has_value()) {
      head_bytes_ -= run.mem.size() * kAlignBytes;
      std::ifstream is = open_spill(run.path);
      run.mem = spill[r]->next_block(is);
      run.pos = 0;
      head_bytes_ += run.mem.size() * kAlignBytes;
      if (run.mem.empty()) {
        is.close();
        std::error_code ec;
        std::filesystem::remove(run.path, ec);
        run.path.clear();
        spill[r].reset();
        return false;
      }
      return true;
    }
    retained_bytes_ -= run.mem.size() * kAlignBytes;
    std::vector<GappedAlignment>().swap(run.mem);
    run.pos = 0;
    return false;
  };

  const std::size_t batch_elems =
      config_.budget_bytes > 0
          ? std::max<std::size_t>(1,
                                  config_.budget_bytes / 4 / kAlignBytes)
          : kDefaultBatchElems;

  // Higher-order items sort after lower-order items on a full step4 tie,
  // so the merge is stable in plan order whatever order the runs were
  // added in — a deterministic refinement of the sort the collector path
  // used.
  struct Item {
    const GappedAlignment* a;
    std::size_t run;    ///< index into runs_ (for cursor refills)
    std::size_t order;  ///< the run's tie-break key
  };
  const auto after = [](const Item& x, const Item& y) {
    if (step4_less(*x.a, *y.a)) return false;
    if (step4_less(*y.a, *x.a)) return true;
    return x.order > y.order;
  };
  std::priority_queue<Item, std::vector<Item>, decltype(after)> heap(after);

  std::size_t total = 0;
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    Run& run = runs_[r];
    if (!run.path.empty()) {
      std::ifstream is = open_spill(run.path);
      spill[r].emplace(is, kWhat);
      total += spill[r]->total();
    } else {
      total += run.mem.size();
    }
    if (ensure(r)) heap.push({&run.mem[run.pos], r, run.order});
  }

  std::vector<GappedAlignment> buf;
  buf.reserve(std::min(batch_elems, total));
  track_peak(buf.capacity());

  std::size_t emitted = 0;
  const auto deliver = [&](bool last) {
    HitBatch meta = batch;
    meta.index = batch.index + stats_.batches;
    meta.last = last;
    sink.on_group(buf, meta);
    ++stats_.batches;
    emitted += buf.size();
    buf.clear();
  };

  while (!heap.empty()) {
    const Item top = heap.top();
    heap.pop();
    buf.push_back(*top.a);
    Run& run = runs_[top.run];
    ++run.pos;
    if (ensure(top.run)) heap.push({&run.mem[run.pos], top.run, top.order});
    track_peak(buf.capacity());
    if (buf.size() == batch_elems) deliver(emitted + buf.size() == total);
  }
  // The final (possibly empty) delivery: every merge ends with last=true
  // exactly once, even when the hit set is empty or a full batch already
  // carried it.
  if (emitted < total || total == 0) deliver(true);
  return emitted;
}

}  // namespace scoris::core::exec
