// How fast the shared host lets this process run right now.
//
// On a shared host the CPU time a fixed job takes moves by a quarter and
// more with what the host's other tenants do, within one run and between
// runs. While a measurement runs, a HostProbe thread times one fixed job in
// its own CPU time every kIntervalMs: a chain of dependent multiplies, then
// a sort of 8192 fixed pseudo-random integers (~1.1 ms together). The
// probe's median over the measurement, divided by kReferenceS, is the
// host's slowness factor; a time divided by it (a rate multiplied by it)
// reads as on the reference host. The two halves err on opposite sides:
// over fleet-csv-t4 passes, CPU per record rose with the multiply chain's
// time to the power 1.0-1.3, with the sort's to 0.6-0.7, and with their
// sum to 0.9-1.0 (log-log slopes). The serve-open daemon's user CPU grows
// faster than the sum; see kCpuFactorExponent in serve_workload.cpp.

#pragma once

#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// Probe time of the host whose factor is 1.0: a round figure near the
  /// fastest median seen on a 4-core x86-64 VM.
  static constexpr double kReferenceS = 1.0e-3;
  static constexpr int kIntervalMs = 30;

  HostProbe() = default;
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Start sampling in the background, dropping earlier samples.
  void start();
  /// Stop sampling; returns the median probe time since start() divided by
  /// kReferenceS (1.0 if no sample was taken).
  double stop();
  /// CPU seconds the probe itself spent timing its job since start(), for
  /// a caller that measures its own process's CPU to take out again.
  double busy_s() const;

 private:
  void loop();

  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::vector<double> samples_;
};

}  // namespace perfbench
