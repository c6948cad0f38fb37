// fleet-csv-t4 / fleet-bin-t1: the same 16-region month of records, pumped
// from files into a FleetMonitor the way independent cluster heads upload:
// round-robin over regions, one read_batch then one add_records each, then
// drain, finish and diagnose. A closed loop: each pass starts when the
// previous one has produced its FleetReport.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/fleet.h"
#include "host_probe.h"
#include "inputs.h"
#include "ledger.h"
#include "trace/trace_reader.h"
#include "util/metrics.h"

namespace perfbench {

namespace {

using namespace sentinel;

constexpr std::size_t kBatch = 1024;
/// Set-ups timed per pass (the pass keeps the last one); setup_s is the
/// median over all of them. Timed between passes rather than back to back
/// before them, the samples see the same host and heap as the passes do:
/// a burst of set-ups up front ran ~2x faster and, mixed in, made the median
/// jump between the two populations from run to run.
constexpr int kSetupsPerPass = 5;
constexpr const char* kStages[] = {"screen", "spawn", "identify", "alarms", "hmm", "centroid"};

struct Fleet {
  std::unique_ptr<core::FleetMonitor> monitor;
  std::vector<std::unique_ptr<TraceReader>> readers;
};

/// The timed set-up: monitor construction, one add_region per trace, and
/// one reader per file.
Fleet set_up(const TraceSet& in, const core::PipelineConfig& cfg, std::size_t threads,
             const char* ext) {
  Fleet f;
  core::FleetConfig fc;
  fc.threads = threads;
  f.monitor = std::make_unique<core::FleetMonitor>(fc);
  for (std::size_t i = 0; i < in.entries.size(); ++i) {
    f.monitor->add_region(in.entries[i].name, cfg);
    f.readers.push_back(open_trace_reader(in.path(i, ext), 2));
  }
  return f;
}

struct Pass {
  std::vector<double> setup_s;  // divided by host_factor
  double ingest_s = 0.0;  // first read_batch to drain() returning
  double wall_s = 0.0;    // first read_batch to diagnose() returning
  double cpu_s = 0.0;     // process CPU but the probe's, first read_batch to diagnose() returning
  double host_factor = 1.0;  // HostProbe over the set-ups and the pass
  std::size_t records = 0;
  std::size_t failed = 0;  // dropped records + verdict mismatches
  std::uint64_t digest = 0;
  // Traced passes only.
  std::uint64_t allocs = 0;
  std::size_t malformed = 0;
  std::uint64_t backpressure_waits = 0;
  double backpressure_block_s = 0.0;
  core::PipelineCounters counters;
  util::MetricsSnapshot registry;
};

Pass run_pass(const TraceSet& in, core::PipelineConfig cfg, std::size_t threads, const char* ext,
              HostProbe& probe, Outcome& out, Ledger* ledger) {
  cfg.stage_timers = ledger != nullptr;
  if (ledger != nullptr) util::metrics().reset();
  Pass p;
  Fleet f;
  probe.start();
  for (int i = 0; i < kSetupsPerPass; ++i) {
    f = Fleet{};  // tear the previous set-up down before timing the next
    const double t = now_s();
    f = set_up(in, cfg, threads, ext);
    p.setup_s.push_back(now_s() - t);
  }

  std::vector<SensorRecord> batch;
  std::vector<bool> done(in.entries.size(), false);
  std::size_t live = in.entries.size();
  core::FleetReport report;
  const std::uint64_t allocs0 = allocations();
  const double cpu0 = self_usage().cpu_s;
  const double t0 = now_s();
  {
    Scope pass(ledger, "pass");
    while (live > 0) {
      for (std::size_t r = 0; r < in.entries.size(); ++r) {
        if (done[r]) continue;
        std::size_t n = 0;
        {
          Scope s(ledger, "trace.read", static_cast<std::uint32_t>(r));
          n = f.readers[r]->read_batch(batch, kBatch);
        }
        if (n == 0) {
          done[r] = true;
          --live;
          out.check(f.readers[r]->status().is_ok(), "reader of " + in.entries[r].name + ": " +
                                                         f.readers[r]->status().to_string());
          continue;
        }
        {
          Scope s(ledger, "fleet.add_records", static_cast<std::uint32_t>(r));
          f.monitor->add_records(in.entries[r].name, batch);
        }
        p.records += n;
      }
    }
    {
      Scope s(ledger, "fleet.drain");
      f.monitor->drain();
    }
    p.ingest_s = now_s() - t0;
    {
      Scope s(ledger, "fleet.finish");
      f.monitor->finish();
    }
    Scope s(ledger, "fleet.diagnose");
    report = f.monitor->diagnose();
  }
  p.wall_s = now_s() - t0;
  const double cpu1 = self_usage().cpu_s;
  p.host_factor = probe.stop();
  p.cpu_s = cpu1 - cpu0 - probe.busy_s();
  for (double& s : p.setup_s) s /= p.host_factor;
  p.allocs = allocations() - allocs0;
  p.digest = fnv1a(core::to_string(report));

  for (std::size_t r = 0; r < in.entries.size(); ++r) {
    const auto& e = in.entries[r];
    const auto it = report.regions.find(e.name);
    const bool ok = it != report.regions.end() && verdict_matches(it->second, e.injection);
    out.check(ok, "region " + e.name + " (" + to_string(e.injection) + ") diagnosed as " +
                      (it == report.regions.end() ? std::string("quarantined")
                                                  : core::to_string(it->second.network.verdict)));
    p.failed += ok ? 0 : 1;
    p.malformed += f.readers[r]->malformed_lines();
  }
  for (const auto& [name, st] : f.monitor->health()) {
    p.failed += st.records_dropped;
    p.backpressure_waits += st.backpressure_waits;
    p.backpressure_block_s += static_cast<double>(st.backpressure_block_ns) * 1e-9;
  }
  out.check(p.records == in.total_records(),
            "read " + std::to_string(p.records) + " records, generated " +
                std::to_string(in.total_records()));
  out.attempted += p.records + in.entries.size();
  out.failed += p.failed;

  if (ledger != nullptr) {
    for (const auto& e : in.entries) {
      const auto c = f.monitor->region(e.name).counters();
      p.counters.windows_processed += c.windows_processed;
      p.counters.state_spawns += c.state_spawns;
      p.counters.track_opens += c.track_opens;
    }
    p.registry = util::metrics().snapshot();
  }
  return p;
}

double hist_sum_s(const util::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : static_cast<double>(it->second.sum) * 1e-9;
}

double counter(const util::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

}  // namespace

Outcome run_fleet_workload(const Options& opt, bool csv) {
  const TraceSet in = fleet_inputs(opt.work_dir, opt.seed);
  const std::string workload = csv ? "fleet-csv-t4" : "fleet-bin-t1";
  const std::size_t threads = csv ? 4 : 1;
  const char* ext = csv ? "csv" : "sntrb1";
  core::PipelineConfig cfg;
  cfg.initial_states = in.initial_states;

  Outcome out;
  std::vector<double> setups;
  // Warm-up: page cache, allocator arenas, lazy registry entries.
  Outcome warm;
  HostProbe probe;
  const std::uint64_t digest = run_pass(in, cfg, threads, ext, probe, warm, nullptr).digest;

  std::vector<Pass> untraced, traced;
  Ledger ledger;
  const double t0 = now_s();
  for (std::size_t i = 0;
       untraced.empty() || (opt.trace && traced.empty()) || now_s() - t0 < opt.seconds; ++i) {
    // A traced run alternates traced and untraced passes, so the tracing
    // overhead is measured on the same process state.
    const bool traced_pass = opt.trace && i % 2 == 1;
    if (traced_pass) ledger.clear();
    Pass p = run_pass(in, cfg, threads, ext, probe, out, traced_pass ? &ledger : nullptr);
    out.check(p.digest == digest, "report digest changed between passes");
    setups.insert(setups.end(), p.setup_s.begin(), p.setup_s.end());
    (traced_pass ? traced : untraced).push_back(std::move(p));
  }
  // Every time is divided by its pass's host factor, so it reads as on the
  // reference host (see host_probe.h), and each metric is the median pass's.
  // Once the host factor takes out the slowdowns other tenants of a shared
  // host cause, the median pass's rate repeated across runs about twice as
  // closely as the best pass's (interquartile range 3% against 5% of the
  // median over ten fleet-csv-t4 runs). Ack latency is serve-open's alone:
  // these workloads leave ack_p50_ms and ack_p99_ms at 0.
  std::vector<double> raw_rates, rates, served, cpu, raw_cpu, factors;
  for (const Pass& p : untraced) {
    const auto n = static_cast<double>(p.records);
    raw_rates.push_back(n / p.wall_s);
    rates.push_back(raw_rates.back() * p.host_factor);
    served.push_back(n / p.ingest_s * p.host_factor);
    raw_cpu.push_back(p.cpu_s / (n * 1e-6));
    factors.push_back(p.host_factor);
    cpu.push_back(raw_cpu.back() / p.host_factor);
  }
  std::printf("# %s digest %016llx; %zu untraced passes at %.4g / %.4g / %.4g rec/s, "
              "%.4g / %.4g / %.4g s/Mrec as measured, host factor %.4g / %.4g / %.4g "
              "(min / median / max)\n",
              workload.c_str(), static_cast<unsigned long long>(digest), untraced.size(),
              quantile(raw_rates, 0.0), median(raw_rates), quantile(raw_rates, 1.0),
              quantile(raw_cpu, 0.0), median(raw_cpu), quantile(raw_cpu, 1.0), quantile(factors, 0.0),
              median(factors), quantile(factors, 1.0));
  check_digest(in, opt.build, workload, digest, out);
  out.set("setup_s", median(setups));
  out.set("records_per_s", median(rates));
  out.set("served_records_per_s", median(served));
  out.set("cpu_s_per_mrec", median(cpu));
  out.set("peak_rss_mb", self_usage().peak_rss_mb);
  if (!opt.trace) return out;

  // Per-layer ledger of the last traced pass (the ledger holds its spans).
  std::ofstream spans(std::filesystem::path(opt.work_dir) / ("spans-" + workload + ".csv"));
  ledger.dump(spans);
  const auto self = ledger.self_seconds();
  const auto calls = ledger.counts();
  const auto at = [](const auto& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::uintmax_t bytes = 0;
  for (std::size_t i = 0; i < in.entries.size(); ++i) {
    bytes += std::filesystem::file_size(in.path(i, ext));
  }
  const Pass& last = traced.back();
  double stage_s = 0.0;
  for (const char* stage : kStages) {
    const double s = hist_sum_s(last.registry, std::string("pipeline.stage.") + stage + "_ns");
    out.set(std::string("pipeline.stage.") + stage + "_s", s);
    stage_s += s;
  }
  out.set("trace.read.records", static_cast<double>(last.records));
  out.set("trace.read.busy_s", at(self, "trace.read"));
  out.set("trace.read.mb", static_cast<double>(bytes) / 1e6);
  out.set("trace.read.malformed", static_cast<double>(last.malformed));
  out.set("fleet.add_records.calls", at(calls, "fleet.add_records"));
  out.set("fleet.add_records.busy_s", at(self, "fleet.add_records"));
  out.set("fleet.drain.wait_s", at(self, "fleet.drain"));
  out.set("fleet.backpressure.waits", static_cast<double>(last.backpressure_waits));
  out.set("fleet.backpressure.block_s", last.backpressure_block_s);
  out.set("fleet.allocs_per_record",
          static_cast<double>(last.allocs) / static_cast<double>(last.records));
  out.set("fleet.worker_util", stage_s / (static_cast<double>(threads) * last.wall_s));
  out.set("fleet.finish.busy_s", at(self, "fleet.finish"));
  out.set("fleet.diagnose.busy_s", at(self, "fleet.diagnose"));
  out.set("pipeline.windows", static_cast<double>(last.counters.windows_processed));
  out.set("pipeline.state_spawns", static_cast<double>(last.counters.state_spawns));
  out.set("pipeline.track_opens", static_cast<double>(last.counters.track_opens));
  if (threads == 1) {
    // Serial: the windower and the glue between stages run inside
    // add_records/finish, around the timed stages.
    out.set("pipeline.other_s",
            std::max(0.0, at(self, "fleet.add_records") + at(self, "fleet.finish") - stage_s));
  }
  out.set("checkpoint.commits", counter(last.registry, "fleet.checkpoint_commits"));
  out.set("checkpoint.bytes", counter(last.registry, "fleet.checkpoint_bytes"));
  out.set("checkpoint.failures", counter(last.registry, "fleet.checkpoint_failures"));
  out.set("ledger.wall_s", last.wall_s);
  out.set("ledger.unaccounted_s", at(self, "pass"));
  // Best traced pass against best untraced pass, as for the end-to-end rates.
  const auto best_wall = [](const std::vector<Pass>& ps) {
    double w = ps.front().wall_s;
    for (const Pass& p : ps) w = std::min(w, p.wall_s);
    return w;
  };
  out.set("ledger.tracing_overhead", best_wall(traced) / best_wall(untraced) - 1.0);
  return out;
}

}  // namespace perfbench
