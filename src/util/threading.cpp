#include "util/threading.hpp"

#include <algorithm>
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
  obs::Counter& steals;
  obs::Gauge& queue_depth;

  static PoolMetrics& get() {
    static PoolMetrics* m = [] {
      obs::Registry& r = obs::Registry::global();
      return new PoolMetrics{
          r.counter("scoris_pool_tasks_total",
                    "Tasks executed by thread pools"),
          r.counter("scoris_exec_steals_total",
                    "Tasks that migrated between workers (kStealing)"),
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

void parallel_chunks(std::size_t begin, std::size_t end, std::size_t threads,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t chunks_per_thread) {
  if (end <= begin) return;
  const std::size_t span = end - begin;
  if (threads <= 1 || span == 1) {
    fn(begin, end);
    return;
  }
  ThreadPool pool(threads);
  parallel_chunks(pool, begin, end, fn, chunks_per_thread);
}

void parallel_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t chunks_per_thread) {
  if (end <= begin) return;
  const std::size_t span = end - begin;
  const std::size_t threads = pool.thread_count();
  if (threads <= 1 || span == 1) {
    fn(begin, end);
    return;
  }
  const std::size_t chunks =
      std::min(span, std::max<std::size_t>(1, threads * chunks_per_thread));
  const std::size_t step = (span + chunks - 1) / chunks;
  TaskBatch batch((span + step - 1) / step);
  for (std::size_t lo = begin; lo < end; lo += step) {
    const std::size_t hi = std::min(end, lo + step);
    pool.submit([&fn, &batch, lo, hi] {
      batch.run([&fn, lo, hi] { fn(lo, hi); });
    });
  }
  batch.wait();
}

WorkStealingQueue::WorkStealingQueue(std::size_t count, std::size_t workers)
    : deques_(std::max<std::size_t>(1, workers)) {
  const std::size_t n = deques_.size();
  for (std::size_t w = 0; w < n; ++w) {
    const std::size_t lo = count * w / n;
    const std::size_t hi = count * (w + 1) / n;
    for (std::size_t t = lo; t < hi; ++t) deques_[w].tasks.push_back(t);
  }
}

bool WorkStealingQueue::pop(std::size_t worker, std::size_t& task) {
  const std::size_t n = deques_.size();
  worker %= n;
  {
    PerWorker& own = deques_[worker];
    MutexLock lock(own.mu);
    if (!own.tasks.empty()) {
      task = own.tasks.front();
      own.tasks.pop_front();
      return true;
    }
  }
  for (std::size_t k = 1; k < n; ++k) {
    PerWorker& victim = deques_[(worker + k) % n];
    MutexLock lock(victim.mu);
    if (!victim.tasks.empty()) {
      task = victim.tasks.back();
      victim.tasks.pop_back();
      stolen_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
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

  TaskBatch batch(n);
  if (schedule == Schedule::kStatic) {
    for (std::size_t w = 0; w < n; ++w) {
      pool.submit([&fn, &batch, w, n, count] {
        batch.run([&fn, w, n, count] {
          for (std::size_t t = w; t < count; t += n) fn(t);
        });
      });
    }
    batch.wait();
    return;
  }
  WorkStealingQueue queue(count, n);
  for (std::size_t w = 0; w < n; ++w) {
    pool.submit([&fn, &batch, &queue, w] {
      batch.run([&fn, &queue, w] {
        std::size_t task = 0;
        while (queue.pop(w, task)) fn(task);
      });
    });
  }
  batch.wait();
  PoolMetrics::get().steals.inc(queue.stolen());
}

}  // namespace scoris::util
