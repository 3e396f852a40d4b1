// Minimal work-sharing thread pool plus parallel_for helpers.
//
// The ORIS paper (section 4) observes that the outer loop of step 2 — the
// enumeration of all 4^W seed codes — is embarrassingly parallel *because*
// the seed-order condition already guarantees globally unique HSPs, so
// workers never need to coordinate on de-duplication.  The pipeline uses
// this pool to partition seed-code ranges (step 2) and HSP chunks (step 3).
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace scoris::util {

/// How indexed tasks are assigned to workers (run_tasks / the exec engine).
enum class Schedule {
  kStatic,    ///< fixed round-robin assignment, no migration
  kStealing,  ///< contiguous blocks; idle workers steal from peers' tails
};

/// Fixed-size pool of worker threads consuming a FIFO of tasks.
///
/// Tasks are `std::function<void()>`; exceptions escaping a raw submitted
/// task terminate the program.  The run_tasks / parallel_chunks overloads
/// below wrap their tasks in a per-call completion latch that captures the
/// first exception and rethrows it at the call site instead, so pipeline
/// errors (bad_alloc, sink failures) unwind to the caller rather than
/// killing a long-lived server process.
class ThreadPool {
 public:
  /// Create a pool with `threads` workers. `threads == 0` is clamped to 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<std::function<void()>> tasks_ SCORIS_GUARDED_BY(mu_);
  CondVar cv_task_;  // signalled when a task is available
  CondVar cv_idle_;  // signalled when the pool may be idle
  /// Tasks popped but not yet finished.
  std::size_t in_flight_ SCORIS_GUARDED_BY(mu_) = 0;
  bool stop_ SCORIS_GUARDED_BY(mu_) = false;
};

/// Run `fn(chunk_begin, chunk_end)` over [begin, end) split into
/// approximately `threads * chunks_per_thread` contiguous chunks, on a
/// transient pool of `threads` workers (the pool overload below).
///
/// With `threads <= 1` the call degenerates to a single inline invocation,
/// so callers need no special single-threaded path.  If any chunk throws,
/// the remaining chunks still run and the first exception is rethrown
/// here once all of them have finished.
void parallel_chunks(std::size_t begin, std::size_t end, std::size_t threads,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t chunks_per_thread = 4);

/// Same, on an existing pool instead of spawning one — a long-lived
/// session amortizes thread creation across queries.  Safe for multiple
/// threads to call on the same pool concurrently: each call waits on its
/// own completion latch (not pool idleness), so one caller's batch never
/// blocks on — or returns before — another's.  Exceptions propagate as in
/// the spawning overload.
void parallel_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t chunks_per_thread = 4);

/// Per-worker deques of task indexes with tail stealing.
///
/// Tasks [0, count) are dealt to `workers` deques in contiguous blocks.
/// A worker pops its own deque from the front (preserving ascending task
/// order locally, which keeps cache reuse between adjacent seed-code
/// ranges); a worker whose deque is empty scans its peers and steals one
/// task from the *tail* of the first non-empty deque, so thieves take the
/// work the owner would reach last.  Every task is handed out exactly
/// once.  Mutex-per-deque keeps the implementation simple; shards are
/// coarse enough (milliseconds) that pop cost is noise.
class WorkStealingQueue {
 public:
  WorkStealingQueue(std::size_t count, std::size_t workers);

  /// Fetch the next task for `worker`. Returns false when no work remains
  /// anywhere (the queue is fully drained).
  bool pop(std::size_t worker, std::size_t& task);

  [[nodiscard]] std::size_t workers() const { return deques_.size(); }

  /// Number of tasks that migrated off their initial worker (telemetry).
  [[nodiscard]] std::size_t stolen() const {
    return stolen_.load(std::memory_order_relaxed);
  }

 private:
  struct PerWorker {
    Mutex mu;
    std::deque<std::size_t> tasks SCORIS_GUARDED_BY(mu);
  };
  std::vector<PerWorker> deques_;
  std::atomic<std::size_t> stolen_{0};
};

/// Run `fn(task)` for every task in [0, count) on up to `threads` workers.
///
/// kStatic assigns task t to worker t % threads and never migrates it;
/// kStealing deals contiguous blocks and lets idle workers steal (see
/// WorkStealingQueue).  Either way every task runs exactly once, so output
/// written to per-task slots is schedule- and thread-count-invariant.
/// When more than one worker would run, the tasks run on a transient pool
/// of min(threads, count) workers (the pool overload below); otherwise
/// they run inline in ascending order, starting no thread.  The first
/// exception a task throws is rethrown here after every task finished.
void run_tasks(std::size_t count, std::size_t threads, Schedule schedule,
               const std::function<void(std::size_t)>& fn);

/// Same, on an existing pool (worker count = pool.thread_count()).  Task
/// assignment and output placement are identical to the spawning
/// overload, so results stay schedule- and pool-invariant.  Like the pool
/// parallel_chunks overload, this is safe for concurrent callers sharing
/// one pool (per-call completion latch, not wait_idle), which is what
/// lets one scoris::Session serve parallel search() calls.
void run_tasks(ThreadPool& pool, std::size_t count, Schedule schedule,
               const std::function<void(std::size_t)>& fn);

}  // namespace scoris::util
