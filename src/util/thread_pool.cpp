#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#endif

namespace sentinel::util {

std::size_t quota_from_cfs(long long quota_us, long long period_us) {
  if (quota_us <= 0 || period_us <= 0) return 0;  // -1 (or absent) = no quota
  return std::max<long long>(1, quota_us / period_us);
}

std::size_t quota_from_cpu_max(const std::string& text) {
  std::istringstream is(text);
  std::string quota;
  long long period = 0;
  if (!(is >> quota)) return 0;
  if (quota == "max") return 0;
  long long q = 0;
  try {
    q = std::stoll(quota);
  } catch (...) {
    return 0;
  }
  if (!(is >> period)) period = 100000;  // kernel default when omitted
  return quota_from_cfs(q, period);
}

namespace {

std::size_t cgroup_cpu_quota() {
  // cgroup v2 unified hierarchy.
  if (std::ifstream f("/sys/fs/cgroup/cpu.max"); f) {
    std::string line;
    std::getline(f, line);
    if (const std::size_t q = quota_from_cpu_max(line)) return q;
  }
  // cgroup v1 cpu controller.
  long long quota = -1;
  long long period = 0;
  if (std::ifstream f("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"); f) f >> quota;
  if (std::ifstream f("/sys/fs/cgroup/cpu/cpu.cfs_period_us"); f) f >> period;
  return quota_from_cfs(quota, period);
}

// Forks this process descends through, counted in each child as it starts.
// A pool constructed at an older count lives in a child of the process that
// started its workers.
std::atomic<unsigned> g_fork_generation{0};

unsigned fork_generation() {
#if defined(__unix__) || defined(__APPLE__)
  static const int registered = ::pthread_atfork(
      nullptr, nullptr, [] { g_fork_generation.fetch_add(1, std::memory_order_relaxed); });
  (void)registered;
#endif
  return g_fork_generation.load(std::memory_order_relaxed);
}

}  // namespace

std::size_t default_concurrency() {
  std::size_t n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (const std::size_t q = cgroup_cpu_quota()) n = std::min(n, q);
  return n;
}

std::size_t shared_pool_workers(std::size_t usable_cpus) {
  return usable_cpus > 1 ? usable_cpus - 1 : 0;
}

namespace {

/// Worker threads of a ThreadPool(threads). A single worker serializes every
/// task anyway, so that pool skips the thread and the queue handoff and runs
/// tasks inline at post().
std::size_t worker_threads(std::size_t threads) {
  const std::size_t n = threads == 0 ? default_concurrency() : threads;
  return n == 1 ? 0 : n;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : ThreadPool(Workers{worker_threads(threads)}) {}

ThreadPool::ThreadPool(Workers workers)
    : logical_size_(std::max<std::size_t>(1, workers.count)),
      inline_mode_(workers.count == 0),
      fork_generation_(fork_generation()),
      posted_(&metrics().counter("threadpool.tasks_posted")),
      wakeups_(&metrics().counter("threadpool.worker_wakeups")) {
  workers_.reserve(workers.count);
  for (std::size_t i = 0; i < workers.count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  if (!task) throw std::invalid_argument("ThreadPool::post: null task");
  posted_->inc();
  if (g_fork_generation.load(std::memory_order_relaxed) != fork_generation_) {
    task();  // a forked child: no workers here, and the locks may be stale
    return;
  }
  if (inline_mode_) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool::post on stopping pool");
    }
    // Recursive: a task posting nested work runs it immediately rather than
    // deadlocking on its own lock.
    std::lock_guard<std::recursive_mutex> run(inline_mu_);
    task();
    return;
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) throw std::runtime_error("ThreadPool::post on stopping pool");
    tasks_.push_back(std::move(task));
    // A worker that is not parked checks the queue under mu_ before it
    // parks, so only a parked one needs waking.
    wake = parked_ > 0;
  }
  if (wake) {
    wakeups_->inc();
    cv_.notify_one();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stopping_ && tasks_.empty()) {
        ++parked_;
        cv_.wait(lock);
        --parked_;
      }
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::shared() {
  // Leaked on purpose: destroying it at exit would join workers that a
  // forked child does not have.
  static ThreadPool* const pool =
      new ThreadPool(Workers{shared_pool_workers(default_concurrency())});
  return *pool;
}

}  // namespace sentinel::util
