// Fixed-size worker pool shared by the fleet tier and the simulation
// harness. Deliberately minimal: a bounded set of workers draining one FIFO
// task queue. submit() returns a std::future so exceptions thrown inside a
// task propagate to whoever joins it (std::future::get rethrows); post() is
// the fire-and-forget variant for tasks that report through their own
// channel (the fleet's shard queues capture exceptions explicitly).
//
// One pool per process: shared() runs the CSV reader's decode-ahead and
// every threads != 1 fleet's drain, finish and diagnose jobs on one FIFO, so
// a worker that finishes one kind of task finds the other queued instead of
// parking. It has one worker fewer than default_concurrency(), because the
// thread that feeds it (a fleet's producer, a CLI pump) takes the remaining
// core (shared_pool_workers).
//
// Destruction drains: queued tasks still run before the workers join, so a
// pool can be torn down without orphaning submitted work. Tasks must not
// block on other tasks of the same pool (no nested submit-and-wait), or a
// pool smaller than the wait chain deadlocks. For shared() that rules out
// driving a threads != 1 fleet from inside a shared-pool task.
//
// A pool with no worker thread runs each task inline on the posting thread
// under a (recursive) mutex -- same one-at-a-time ordering, none of the
// enqueue/wake/context-switch handoff. ThreadPool(1) is such a pool (a single
// worker serializes every task anyway), and so is shared() on a 1-CPU quota.
// Two visible differences, both documented behavior: a task posted from
// inside a task runs immediately (nested post) instead of after the outer
// task, and a throwing post()ed task propagates to the poster instead of
// terminating a worker -- post() tasks must not throw either way.
//
// Fork: a child process inherits a pool's memory but none of its workers,
// and possibly a lock some parent thread held at the fork. In a child
// forked after a pool was constructed, post() therefore runs the task
// inline on the poster and touches neither the queue's lock nor the
// workers. (shared() is never destroyed, so a child's exit never joins
// workers it does not have.)
//
// Metrics: every post() adds one to threadpool.tasks_posted, and one that
// finds a parked worker, which it wakes, to threadpool.worker_wakeups.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace sentinel::util {

/// Usable parallelism for sizing pools: std::thread::hardware_concurrency()
/// capped by the container's cgroup CPU quota (v2 cpu.max, v1
/// cpu.cfs_quota_us / cpu.cfs_period_us). hardware_concurrency() reports the
/// host's cores even inside a quota-limited container, and a pool sized to
/// the host oversubscribes the quota and stalls on throttling. Quotas floor-
/// divide (2.5 CPUs -> 2 workers) with a minimum of 1; always at least 1.
std::size_t default_concurrency();

/// Parse a cgroup v2 cpu.max payload ("<quota> <period>" or "max <period>").
/// Returns 0 when unlimited or unparseable, else max(1, quota / period).
std::size_t quota_from_cpu_max(const std::string& text);

/// Derive the CPU cap from cgroup v1 cfs values (quota_us == -1 means
/// unlimited). Returns 0 when unlimited or invalid, else max(1, quota/period).
std::size_t quota_from_cfs(long long quota_us, long long period_us);

/// Worker threads ThreadPool::shared() starts on `usable_cpus` CPUs: one
/// fewer, leaving a core to the thread that feeds the pool. 0 means no
/// thread (a 1-CPU quota): tasks run inline on the poster.
std::size_t shared_pool_workers(std::size_t usable_cpus);

class Counter;

class ThreadPool {
 public:
  /// threads == 0 picks default_concurrency() -- hardware threads capped by
  /// the cgroup CPU quota (at least 1). A pool sized to 1 starts no thread.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a fire-and-forget task. The task must not throw; wrap throwing
  /// work with submit() (future-propagated) or catch inside the task.
  void post(std::function<void()> task);

  /// Enqueue a task and get a future for its result. Exceptions thrown by
  /// the task are captured and rethrown from future::get().
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    post([task]() { (*task)(); });
    return fut;
  }

  /// Logical worker count -- what the pool was sized to, whether the
  /// workers are real threads or the inline single-worker mode.
  std::size_t size() const { return logical_size_; }

  /// True when the pool has no worker thread and post() runs each task on
  /// the poster.
  bool runs_inline() const { return inline_mode_; }

  /// The process-wide pool, for callers that share workers instead of
  /// owning a pool: threads != 1 fleets, the CSV reader's decode-ahead,
  /// bench trace generation. shared_pool_workers(default_concurrency())
  /// workers. Created on first use and never destroyed.
  static ThreadPool& shared();

 private:
  /// `count` worker threads; 0 starts none and runs tasks inline.
  struct Workers {
    std::size_t count;
  };
  explicit ThreadPool(Workers workers);

  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::size_t parked_ = 0;             // workers waiting on cv_ for a task
  std::vector<std::thread> workers_;
  std::size_t logical_size_ = 0;
  bool inline_mode_ = false;           // no worker: run tasks on the poster
  std::recursive_mutex inline_mu_;     // serializes inline execution
  unsigned fork_generation_ = 0;       // forks seen when constructed
  Counter* posted_ = nullptr;          // threadpool.tasks_posted
  Counter* wakeups_ = nullptr;         // threadpool.worker_wakeups
};

}  // namespace sentinel::util
