// Minimal work-sharing thread pool plus the run_tasks loop.
//
// The ORIS paper (section 4) observes that the outer loop of step 2 — the
// enumeration of all 4^W seed codes — is embarrassingly parallel *because*
// the seed-order condition already guarantees globally unique HSPs, so
// workers never need to coordinate on de-duplication.  The pipeline hands
// seed-code ranges (step 2) and subject-sequence slices (step 3) to this
// pool through run_tasks, each unit writing only its own output slot.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace scoris::util {

/// How indexed tasks are assigned to workers (run_tasks / the exec engine).
enum class Schedule {
  kStatic,    ///< fixed round-robin assignment, no migration
  kStealing,  ///< each worker claims the next unclaimed task in turn
};

/// Fixed-size pool of worker threads consuming a FIFO of tasks.
///
/// Tasks are `std::function<void()>`; exceptions escaping a raw submitted
/// task terminate the program.  The run_tasks overloads below wrap their
/// tasks in a per-call completion latch that captures the first exception
/// and rethrows it at the call site instead, so pipeline errors
/// (bad_alloc, sink failures) unwind to the caller rather than killing a
/// long-lived server process.
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

/// Run `fn(task)` for every task in [0, count) on up to `threads` workers.
///
/// kStatic assigns task t to worker t % threads and never migrates it;
/// under kStealing each worker claims the next task index from one
/// per-call cursor, so a worker held up by a long task leaves the rest to
/// its peers.  Either way every task runs exactly once, so output written
/// to per-task slots is schedule- and thread-count-invariant.
/// When more than one worker would run, the tasks run on a transient pool
/// of min(threads, count) workers (the pool overload below); otherwise
/// they run inline in ascending order, starting no thread.  The first
/// exception a task throws is rethrown here after every task finished.
void run_tasks(std::size_t count, std::size_t threads, Schedule schedule,
               const std::function<void(std::size_t)>& fn);

/// Same, on an existing pool (worker count = pool.thread_count()).  Task
/// assignment and output placement are identical to the spawning
/// overload, so results stay schedule- and pool-invariant.  Safe for
/// concurrent callers sharing one pool: each call waits on its own
/// completion latch (not wait_idle), so one caller's batch never blocks
/// on — or returns before — another's, which is what lets one
/// scoris::Session serve parallel search() calls.
void run_tasks(ThreadPool& pool, std::size_t count, Schedule schedule,
               const std::function<void(std::size_t)>& fn);

}  // namespace scoris::util
