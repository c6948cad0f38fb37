// Tests: util::ThreadPool -- task execution, future results, exception
// propagation, drain-on-destruction, the shared pool's sizing rule and the
// post/wake-up counters.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/thread_pool.h"

namespace sentinel::util {
namespace {

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The worker survives the throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, PostRunsAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.post([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains the queue before joining
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, RunsConcurrently) {
  ThreadPool pool(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(pool.submit([&] {
      const int now = in_flight.fetch_add(1) + 1;
      int prev = max_in_flight.load();
      while (now > prev && !max_in_flight.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      in_flight.fetch_sub(1);
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_GE(max_in_flight.load(), 2);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_THROW(pool.post(nullptr), std::invalid_argument);
}

// --- Single-worker inline mode ----------------------------------------------

TEST(ThreadPoolInline, SizeOneSpawnsNoThreadAndRunsOnThePoster) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);  // logical size, even without a real worker
  const auto poster = std::this_thread::get_id();
  std::thread::id ran_on;
  bool done = false;
  pool.post([&] {
    ran_on = std::this_thread::get_id();
    done = true;
  });
  // post() returned => the task already ran, on this very thread.
  EXPECT_TRUE(done);
  EXPECT_EQ(ran_on, poster);
}

TEST(ThreadPoolInline, SubmitFuturesAndOrderMatchQueueSemantics) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(pool.submit([i, &order] {
      order.push_back(i);
      return i * i;
    }));
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
  std::vector<int> want(16);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);  // post order, exactly like a one-worker queue
}

TEST(ThreadPoolInline, SubmitPropagatesExceptionsAndPoolSurvives) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolInline, NestedPostRunsImmediately) {
  // Documented inline-mode semantics: a task posted from inside a task runs
  // before the outer post() returns (the recursive mutex admits it).
  ThreadPool pool(1);
  std::vector<int> order;
  pool.post([&] {
    order.push_back(1);
    pool.post([&] { order.push_back(2); });
    order.push_back(3);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadPoolInline, ConcurrentPostersStaySerialized) {
  ThreadPool pool(1);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<int> ran{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        pool.post([&] {
          const int now = in_flight.fetch_add(1) + 1;
          int prev = max_in_flight.load();
          while (now > prev && !max_in_flight.compare_exchange_weak(prev, now)) {
          }
          in_flight.fetch_sub(1);
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& p : posters) p.join();
  EXPECT_EQ(ran.load(), 200);
  EXPECT_EQ(max_in_flight.load(), 1);  // never two tasks at once
}

TEST(ThreadPool, SharedPoolIsUsable) {
  auto& pool = ThreadPool::shared();
  EXPECT_GE(pool.size(), 1u);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(pool.submit([i] { return i; }));
  int sum = 0;
  for (auto& f : futs) sum += f.get();
  EXPECT_EQ(sum, 28);
}

TEST(ThreadPool, SharedPoolLeavesTheFeedingThreadACore) {
  EXPECT_EQ(shared_pool_workers(1), 0u);  // a 1-CPU quota runs tasks inline
  EXPECT_EQ(shared_pool_workers(2), 1u);  // one real worker, not inline
  EXPECT_EQ(shared_pool_workers(4), 3u);
  EXPECT_EQ(shared_pool_workers(64), 63u);
  auto& pool = ThreadPool::shared();
  const std::size_t workers = shared_pool_workers(default_concurrency());
  EXPECT_EQ(pool.runs_inline(), workers == 0);
  EXPECT_EQ(pool.size(), std::max<std::size_t>(1, workers));
}

TEST(ThreadPool, CountsPostsAndWakeups) {
  Counter& posted = metrics().counter("threadpool.tasks_posted");
  Counter& wakeups = metrics().counter("threadpool.worker_wakeups");
  {
    ThreadPool inline_pool(1);
    const std::uint64_t p0 = posted.total(), w0 = wakeups.total();
    for (int i = 0; i < 5; ++i) inline_pool.post([] {});
    EXPECT_EQ(posted.total() - p0, 5u);
    EXPECT_EQ(wakeups.total() - w0, 0u);  // no worker to wake
  }
  ThreadPool pool(2);
  const std::uint64_t p0 = posted.total(), w0 = wakeups.total();
  // A worker parks once its task is done and the queue is empty, so some
  // later post finds it parked and wakes it.
  int posts = 0;
  while (wakeups.total() == w0 && posts < 2000) {
    pool.submit([] {}).get();
    ++posts;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(posted.total() - p0, static_cast<std::uint64_t>(posts));
  EXPECT_GT(wakeups.total() - w0, 0u);
  EXPECT_LE(wakeups.total() - w0, posted.total() - p0);
}

TEST(ThreadPool, ForkedChildRunsPostInline) {
  // A child forked after the shared pool started its workers has none of
  // them: post() must run the task on the poster, or it would never run.
  auto& pool = ThreadPool::shared();
  pool.submit([] {}).get();
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    bool ran = false;
    pool.post([&ran] { ran = true; });
    std::_Exit(ran ? 0 : 1);
  }
  int status = 0;
  pid_t done = 0;
  for (int i = 0; i < 6000 && (done = waitpid(pid, &status, WNOHANG)) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    FAIL() << "post() in the forked child hung";
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "post() in the forked child did not run the task";
}

TEST(ThreadPoolQuota, CpuMaxUnlimited) {
  EXPECT_EQ(quota_from_cpu_max("max 100000"), 0u);
  EXPECT_EQ(quota_from_cpu_max("max 100000\n"), 0u);
}

TEST(ThreadPoolQuota, CpuMaxQuotaDivides) {
  EXPECT_EQ(quota_from_cpu_max("200000 100000"), 2u);
  EXPECT_EQ(quota_from_cpu_max("200000 100000\n"), 2u);
  EXPECT_EQ(quota_from_cpu_max("400000 100000"), 4u);
}

TEST(ThreadPoolQuota, CpuMaxFractionalQuotaFloorsWithMinimumOne) {
  EXPECT_EQ(quota_from_cpu_max("50000 100000"), 1u);   // half a CPU -> 1
  EXPECT_EQ(quota_from_cpu_max("250000 100000"), 2u);  // 2.5 CPUs -> 2
}

TEST(ThreadPoolQuota, CpuMaxGarbageIsUnlimited) {
  EXPECT_EQ(quota_from_cpu_max(""), 0u);
  EXPECT_EQ(quota_from_cpu_max("banana"), 0u);
  EXPECT_EQ(quota_from_cpu_max("100000 0"), 0u);       // zero period
  EXPECT_EQ(quota_from_cpu_max("-1 100000"), 0u);      // negative quota
}

TEST(ThreadPoolQuota, CpuMaxMissingPeriodUsesKernelDefault) {
  EXPECT_EQ(quota_from_cpu_max("100000"), 1u);   // period defaults to 100000
  EXPECT_EQ(quota_from_cpu_max("300000"), 3u);
}

TEST(ThreadPoolQuota, CfsValues) {
  EXPECT_EQ(quota_from_cfs(-1, 100000), 0u);       // -1 means unlimited
  EXPECT_EQ(quota_from_cfs(0, 100000), 0u);        // degenerate quota
  EXPECT_EQ(quota_from_cfs(100000, 0), 0u);        // degenerate period
  EXPECT_EQ(quota_from_cfs(200000, 100000), 2u);
  EXPECT_EQ(quota_from_cfs(250000, 100000), 2u);   // 2.5 CPUs -> 2
  EXPECT_EQ(quota_from_cfs(50000, 100000), 1u);    // half a CPU -> 1
}

TEST(ThreadPoolQuota, DefaultConcurrencyAtLeastOne) {
  EXPECT_GE(default_concurrency(), 1u);
}

}  // namespace
}  // namespace sentinel::util
