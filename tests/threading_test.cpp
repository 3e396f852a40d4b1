// Dedicated ThreadPool stress coverage: submit/wait_idle under contention,
// concurrent producers, pool reuse across waves, and the zero-thread clamp.
// (util_test.cpp keeps the smoke-level assertions.)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/threading.hpp"

namespace {

using scoris::util::ThreadPool;

TEST(ThreadPoolStress, ManyTasksFromManyProducers) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};

  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 500;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.submit([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolStress, WaitIdleObservesSlowTasks) {
  ThreadPool pool(8);
  std::atomic<int> done{0};
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // wait_idle must not return while any task is queued or in flight.
  pool.wait_idle();
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolStress, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 1; wave <= 5; ++wave) {
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), wave * 100);
  }
}

TEST(ThreadPoolStress, TasksSubmittingTasksUnderContention) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kRoots = 32;
  constexpr int kChildren = 8;
  for (int i = 0; i < kRoots; ++i) {
    pool.submit([&pool, &counter] {
      for (int c = 0; c < kChildren; ++c) {
        pool.submit([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
      }
      counter.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), kRoots * (kChildren + 1));
}

TEST(ThreadPoolStress, ZeroThreadsClampedToOneAndStillRuns) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolStress, DestructorJoinsQuietlyAfterWaitIdle) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.wait_idle();
  }  // destructor must join without deadlock
  EXPECT_EQ(counter.load(), 50);
}

using scoris::util::run_tasks;
using scoris::util::Schedule;

class RunTasksSchedules
    : public ::testing::TestWithParam<Schedule> {};

TEST_P(RunTasksSchedules, RunsEveryTaskExactlyOnce) {
  for (const std::size_t count : {0u, 1u, 7u, 64u}) {
    for (const std::size_t threads : {0u, 1u, 3u, 8u, 100u}) {
      std::vector<std::atomic<int>> hits(count);
      run_tasks(count, threads, GetParam(),
                [&hits](std::size_t t) {
                  hits[t].fetch_add(1, std::memory_order_relaxed);
                });
      for (std::size_t t = 0; t < count; ++t) {
        ASSERT_EQ(hits[t].load(), 1)
            << "count=" << count << " threads=" << threads << " task=" << t;
      }
    }
  }
}

TEST_P(RunTasksSchedules, SingleThreadRunsInAscendingOrder) {
  std::vector<std::size_t> order;
  run_tasks(6, 1, GetParam(),
            [&order](std::size_t t) { order.push_back(t); });
  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

/// The pool-reusing overload (a Session's persistent workers) runs every
/// task exactly once, repeatedly, on the same pool.
TEST_P(RunTasksSchedules, PoolOverloadRunsEveryTaskExactlyOnceAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t count : {0u, 1u, 7u, 64u}) {
      std::vector<std::atomic<int>> hits(count);
      run_tasks(pool, count, GetParam(),
                [&hits](std::size_t t) {
                  hits[t].fetch_add(1, std::memory_order_relaxed);
                });
      for (std::size_t t = 0; t < count; ++t) {
        ASSERT_EQ(hits[t].load(), 1)
            << "round=" << round << " count=" << count << " task=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, RunTasksSchedules,
                         ::testing::Values(Schedule::kStatic,
                                           Schedule::kStealing),
                         [](const auto& info) {
                           return info.param == Schedule::kStatic
                                      ? "Static"
                                      : "Stealing";
                         });

/// kStealing hands each worker the next unclaimed task, so a worker held
/// up by a long task leaves the rest to its peer: task 0 waits (bounded)
/// until tasks 1-7 have run, which only the other worker can do.  A
/// fixed assignment (kStatic) would leave tasks 2, 4 and 6 behind it.
TEST(RunTasksStealing, IdleWorkerClaimsEveryTaskBehindABusyOne) {
  ThreadPool pool(2);
  constexpr std::size_t kTasks = 8;
  std::atomic<std::size_t> others_done{0};
  bool others_ran_first = false;
  run_tasks(pool, kTasks, Schedule::kStealing, [&](std::size_t t) {
    if (t != 0) {
      ++others_done;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others_done < kTasks - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    others_ran_first = others_done == kTasks - 1;
  });
  EXPECT_TRUE(others_ran_first);
}

// --- exception propagation ---------------------------------------------------
// A task that throws must surface at the run_tasks call site (not
// std::terminate the pool worker): the daemon relies on this to unwind
// an aborted query — RAII spill cleanup runs, the pool survives — when
// a sink fails mid-search.

TEST(RunTasksExceptions, SpawningOverloadRethrowsAtCallSite) {
  for (const Schedule schedule : {Schedule::kStatic, Schedule::kStealing}) {
    EXPECT_THROW(
        scoris::util::run_tasks(16, 4, schedule,
                                [](std::size_t t) {
                                  if (t == 7) {
                                    throw std::runtime_error("task 7");
                                  }
                                }),
        std::runtime_error);
  }
}

TEST(RunTasksExceptions, PoolOverloadRethrowsAndPoolSurvives) {
  ThreadPool pool(4);
  for (const Schedule schedule : {Schedule::kStatic, Schedule::kStealing}) {
    EXPECT_THROW(scoris::util::run_tasks(pool, 16, schedule,
                                         [](std::size_t t) {
                                           if (t == 3) {
                                             throw std::runtime_error("boom");
                                           }
                                         }),
                 std::runtime_error);
    // The pool must remain fully usable after a throwing batch.
    std::atomic<int> ran{0};
    scoris::util::run_tasks(pool, 8, schedule, [&ran](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 8);
  }
}

// --- concurrent callers on one pool ------------------------------------------
// Several threads driving run_tasks batches through one shared pool must
// each see exactly their own batch complete (and their own exceptions) —
// this is the Session-sharing daemon's exact usage pattern.

TEST(ConcurrentPoolCallers, EachCallerSeesItsOwnBatchComplete) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr std::size_t kTasks = 200;
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &failures, c] {
      const Schedule schedule =
          c % 2 == 0 ? Schedule::kStatic : Schedule::kStealing;
      for (int round = 0; round < 5; ++round) {
        std::vector<std::atomic<int>> hits(kTasks);
        scoris::util::run_tasks(pool, kTasks, schedule,
                                [&hits](std::size_t t) {
                                  hits[t].fetch_add(
                                      1, std::memory_order_relaxed);
                                });
        // run_tasks returned, so *this* batch must be fully done even
        // while other callers' tasks are still in flight.
        for (std::size_t t = 0; t < kTasks; ++t) {
          if (hits[t].load() != 1) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentPoolCallers, ExceptionsRouteToTheThrowingCallerOnly) {
  ThreadPool pool(4);
  std::atomic<int> throwing_caught{0};
  std::atomic<int> clean_ok{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    const bool throws = c % 2 == 0;
    callers.emplace_back([&pool, &throwing_caught, &clean_ok, throws] {
      for (int round = 0; round < 10; ++round) {
        try {
          scoris::util::run_tasks(pool, 32, Schedule::kStealing,
                                  [throws](std::size_t t) {
                                    if (throws && t == 11) {
                                      throw std::runtime_error("mine");
                                    }
                                  });
          if (!throws) clean_ok.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::runtime_error&) {
          if (throws) {
            throwing_caught.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(throwing_caught.load(), 20);
  EXPECT_EQ(clean_ok.load(), 20);
}

// Regression for the queue-depth gauge ordering bug (PR 10): submit()
// must raise scoris_pool_queue_depth *before* the task becomes
// poppable, or a fast worker pops-and-decrements first and a sampler
// observes a transiently negative depth.  This hammers submit/pop with
// instant tasks while a sampler thread asserts the gauge never dips
// below its pre-test floor (other live pools can only add).
TEST(ThreadPoolStress, QueueDepthGaugeNeverUndershoots) {
  auto& gauge = scoris::obs::Registry::global().gauge(
      "scoris_pool_queue_depth");
  const std::int64_t floor = gauge.value();
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> min_seen{std::numeric_limits<std::int64_t>::max()};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::int64_t v = gauge.value();
      std::int64_t cur = min_seen.load(std::memory_order_relaxed);
      while (v < cur &&
             !min_seen.compare_exchange_weak(cur, v,
                                             std::memory_order_relaxed)) {
      }
    }
  });
  {
    scoris::util::ThreadPool pool(4);
    std::vector<std::thread> submitters;
    submitters.reserve(4);
    for (int s = 0; s < 4; ++s) {
      submitters.emplace_back([&pool] {
        for (int i = 0; i < 2000; ++i) pool.submit([] {});
      });
    }
    for (auto& t : submitters) t.join();
    pool.wait_idle();
  }
  stop.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_GE(min_seen.load(), floor)
      << "queue-depth gauge undershot its floor: submit() must add "
         "before push";
}

}  // namespace
