#include "util/threading.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/metrics.hpp"

namespace scoris::util {
namespace {

/// Pool/scheduler metrics.  The queue-depth gauge aggregates across all
/// live pools (the spawning overloads' transient pools included), so it
/// reads as "tasks queued process-wide right now" — exactly the
/// saturation signal a loaded daemon needs.
struct PoolMetrics {
  obs::Counter& tasks;
  obs::Gauge& queue_depth;

  static PoolMetrics& get() {
    static PoolMetrics* m = [] {
      obs::Registry& r = obs::Registry::global();
      return new PoolMetrics{
          r.counter("scoris_pool_tasks_total",
                    "Tasks executed by thread pools"),
          r.gauge("scoris_pool_queue_depth",
                  "Tasks queued across all live pools"),
      };
    }();
    return *m;
  }
};

/// Per-call completion latch for one batch of parallel work.
///
/// Every parallel entry point (spawning or pool-backed) runs its tasks
/// through one of these: `run` executes the body, capturing the first
/// exception instead of letting it escape into a worker (which would
/// std::terminate — fatal for a daemon, and it would leak RAII-managed
/// state like spill directories); `wait` blocks until *this batch's*
/// tasks are done and rethrows that exception.  Waiting on the batch
/// rather than ThreadPool::wait_idle is what makes a shared pool safe
/// for concurrent submitters: each caller observes only its own tasks.
class TaskBatch {
 public:
  explicit TaskBatch(std::size_t count) : remaining_(count) {}

  void run(const std::function<void()>& body) {
    std::exception_ptr error;
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
    // notify_all under the lock: the waiter may destroy the batch the
    // moment the predicate holds, so the cv must not be touched after
    // the lock is released.
    MutexLock lock(mu_);
    if (error && !error_) error_ = error;
    if (--remaining_ == 0) cv_.notify_all();
  }

  void wait() {
    MutexLock lock(mu_);
    while (remaining_ != 0) cv_.wait(mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::size_t remaining_ SCORIS_GUARDED_BY(mu_);
  std::exception_ptr error_ SCORIS_GUARDED_BY(mu_);
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // The gauge rises before the task becomes poppable: a worker that
  // pops and decrements immediately must never observe a count this
  // submit has not yet added (the gauge would transiently read
  // negative — the lock-discipline audit in PR 10 caught the old
  // push-then-add order doing exactly that).
  PoolMetrics::get().queue_depth.add(1);
  {
    MutexLock lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mu_);
  while (!tasks_.empty() || in_flight_ != 0) cv_idle_.wait(mu_);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) cv_task_.wait(mu_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    PoolMetrics::get().queue_depth.sub(1);
    PoolMetrics::get().tasks.inc();
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void run_tasks(std::size_t count, std::size_t threads, Schedule schedule,
               const std::function<void(std::size_t)>& fn) {
  const std::size_t n = std::min(threads, count);
  if (n <= 1) {
    for (std::size_t t = 0; t < count; ++t) fn(t);
    return;
  }
  ThreadPool pool(n);
  run_tasks(pool, count, schedule, fn);
}

void run_tasks(ThreadPool& pool, std::size_t count, Schedule schedule,
               const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t n = std::min(pool.thread_count(), count);
  if (n <= 1) {
    for (std::size_t t = 0; t < count; ++t) fn(t);
    return;
  }

  // kStatic: worker w runs tasks w, w + n, ...  kStealing: every worker
  // claims the next index from one cursor until the tasks run out.
  std::atomic<std::size_t> next{0};
  TaskBatch batch(n);
  for (std::size_t w = 0; w < n; ++w) {
    pool.submit([&fn, &batch, &next, schedule, w, n, count] {
      batch.run([&fn, &next, schedule, w, n, count] {
        if (schedule == Schedule::kStatic) {
          for (std::size_t t = w; t < count; t += n) fn(t);
          return;
        }
        for (std::size_t t = next++; t < count; t = next++) fn(t);
      });
    });
  }
  batch.wait();
}

}  // namespace scoris::util
