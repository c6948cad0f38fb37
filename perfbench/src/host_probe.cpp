#include "host_probe.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "bench.h"

namespace perfbench {

namespace {

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

HostProbe::~HostProbe() { stop(); }

void HostProbe::start() {
  stop();
  samples_.clear();
  stop_ = false;
  thread_ = std::thread([this] { loop(); });
}

double HostProbe::stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  return samples_.empty() ? 1.0 : median(samples_) / kReferenceS;
}

double HostProbe::busy_s() const {
  double sum = 0.0;
  for (const double s : samples_) sum += s;
  return sum;
}

void HostProbe::loop() {
  static volatile std::uint64_t sink;
  constexpr std::size_t kSortN = 8192;
  std::vector<std::uint32_t> unsorted(kSortN), work(kSortN);
  std::uint64_t x = 0x5e7711e1;
  for (auto& v : unsorted) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<std::uint32_t>(x >> 33);
  }
  while (!stop_) {
    const double t0 = thread_cpu_s();
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint32_t i = 0; i < 400000; ++i) h = (h ^ i) * 1099511628211ull;
    std::copy(unsorted.begin(), unsorted.end(), work.begin());
    std::sort(work.begin(), work.end());
    sink = h + work[kSortN / 2];
    samples_.push_back(thread_cpu_s() - t0);
    std::this_thread::sleep_for(std::chrono::milliseconds(kIntervalMs));
  }
}

}  // namespace perfbench
