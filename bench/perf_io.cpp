// P2 -- google-benchmark: trace I/O data plane throughput. The collector
// tier re-reads traces constantly (replay, re-training, every repro bench
// starts by loading a file), so parse speed is a real budget item. This
// bench measures MB/s and records/s for four read paths over the same
// on-disk trace:
//
//   getline_baseline  the seed's parser, copied verbatim below: getline +
//                     csv::split into std::string fields + strtod through a
//                     heap-copied buffer. Every line costs ~a dozen
//                     allocations. Kept as the yardstick the zero-copy
//                     paths are measured against.
//   csv_read_trace    today's read_trace (istream + getline, shared
//                     zero-allocation line grammar).
//   csv_zero_copy     CsvTraceReader: records parsed straight off the
//                     mapping, decode-ahead on the shared pool, batch
//                     reuse.
//   binary            BinaryTraceReader over the SNTRB1 fixed-width format:
//                     no parsing at all, just offset decoding.
//
// plus end-to-end file -> FleetReport runs (streaming ingest) for the CSV
// and binary formats, where parse cost is diluted by detection work, and a
// sized row: 16 synthetic CSV files of 262144 records each read round-robin
// in 1024-record batches, the way fleet ingest pumps many regions' traces
// from one producer thread. The sized row also reports cpu_ns_per_record
// (the process CPU of every thread, decode workers included, over the timed
// loop) and allocs_per_record, since its real time cannot show a CPU cut
// while the pool has idle cores.
//
// Results are recorded in BENCH_io.json (see docs/PERFORMANCE.md).

#include <benchmark/benchmark.h>

#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "faults/fault_models.h"
#include "metrics_main.h"
#include "faults/injection_plan.h"
#include "sim/simulator.h"
#include "trace/binary_trace.h"
#include "trace/trace_io.h"
#include "trace/trace_reader.h"
#include "util/csv.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

// Count every heap allocation in the process (the same minimal override as
// perf_fleet), for the sized row's allocs_per_record.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sentinel;

/// CPU time of the whole process: every thread, the shared pool's included.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- the seed's parser, verbatim (allocation-heavy baseline) ---------------

namespace baseline {

std::optional<double> parse_double(std::string_view field) {
  if (field.empty()) return std::nullopt;
  // strtod needs a NUL-terminated buffer.
  std::string buf(field);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

TraceReadResult read_trace(std::istream& in, std::size_t expected_dims) {
  TraceReadResult result;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.front() == '#') {
      ++result.comment_lines;
      continue;
    }
    const auto fields = csv::split(line);  // vector<string>: one copy per field
    if (fields.size() < 3) {
      ++result.malformed_lines;
      continue;
    }
    const std::size_t dims = fields.size() - 2;
    if (expected_dims == 0) {
      expected_dims = dims;
    }
    if (dims != expected_dims) {
      ++result.malformed_lines;
      continue;
    }
    const auto id = parse_double(fields[0]);
    const auto t = parse_double(fields[1]);
    if (!id || !t || *id < 0.0 || *id != static_cast<double>(static_cast<SensorId>(*id))) {
      ++result.malformed_lines;
      continue;
    }
    SensorRecord rec;
    rec.sensor = static_cast<SensorId>(*id);
    rec.time = *t;
    rec.attrs.reserve(dims);
    bool ok = true;
    for (std::size_t i = 2; i < fields.size(); ++i) {
      const auto v = parse_double(fields[i]);
      if (!v) {
        ok = false;
        break;
      }
      rec.attrs.push_back(*v);
    }
    if (!ok) {
      ++result.malformed_lines;
      continue;
    }
    result.records.push_back(std::move(rec));
  }
  return result;
}

}  // namespace baseline

// --- fixture: one trace, written once in both formats ----------------------

/// The directory this process writes its input traces into, <temp>/perf_io.<pid>
/// (~136 MB once every row has run). The process that made it removes it when
/// it exits; a forked child that runs exit handlers leaves it alone.
const std::filesystem::path& work_dir() {
  struct Dir {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() / ("perf_io." + std::to_string(::getpid()));
    pid_t owner = ::getpid();
    Dir() { std::filesystem::create_directories(path); }
    Dir(const Dir&) = delete;
    Dir& operator=(const Dir&) = delete;
    ~Dir() {
      std::error_code ec;
      if (::getpid() == owner) std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

struct TraceFiles {
  std::string csv_path;
  std::string bin_path;
  std::size_t records = 0;
  std::size_t csv_bytes = 0;
  std::size_t bin_bytes = 0;
};

/// 10 GDI sensors over 7 days with a stuck-at fault from day 2 (same shape
/// as the golden scenario, so the end-to-end runs exercise real detection).
const TraceFiles& trace_files() {
  static const TraceFiles files = [] {
    sim::GdiEnvironmentConfig ec;
    ec.duration_seconds = 7.0 * kSecondsPerDay;
    ec.seed = 20260806;
    const sim::GdiEnvironment env(ec);
    sim::GdiDeploymentConfig dc;
    dc.num_sensors = 10;
    dc.seed = 20260806;
    auto simulator = sim::make_gdi_deployment(env, dc);
    auto plan = std::make_shared<faults::InjectionPlan>();
    plan->add(6, std::make_unique<faults::StuckAtFault>(AttrVec{15.0, 1.0}),
              2.0 * kSecondsPerDay);
    simulator.set_transform(faults::make_transform(plan));
    const auto trace = simulator.run(ec.duration_seconds).trace;

    TraceFiles f;
    f.csv_path = work_dir() / "trace.csv";
    f.bin_path = work_dir() / "trace.snt";
    write_trace_file(f.csv_path, trace);
    // Binary holds the *parsed* CSV records so every path reads identical
    // doubles (CSV rounding happens exactly once).
    const auto parsed = read_trace_file(f.csv_path);
    write_trace_binary_file(f.bin_path, parsed.records);
    f.records = parsed.records.size();
    f.csv_bytes = std::filesystem::file_size(f.csv_path);
    f.bin_bytes = std::filesystem::file_size(f.bin_path);
    return f;
  }();
  return files;
}

void set_counters(benchmark::State& state, std::size_t records, std::size_t bytes) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * records));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
  state.counters["records"] = static_cast<double>(records);
}

// --- read-path benches -----------------------------------------------------

void BM_ReadCsvGetlineBaseline(benchmark::State& state) {
  const auto& f = trace_files();
  std::size_t records = 0;
  for (auto _ : state) {
    std::ifstream in(f.csv_path);
    auto result = baseline::read_trace(in, 0);
    records = result.records.size();
    benchmark::DoNotOptimize(result);
  }
  set_counters(state, records, f.csv_bytes);
}

void BM_ReadCsvGetline(benchmark::State& state) {
  const auto& f = trace_files();
  std::size_t records = 0;
  for (auto _ : state) {
    std::ifstream in(f.csv_path);
    auto result = read_trace(in);
    records = result.records.size();
    benchmark::DoNotOptimize(result);
  }
  set_counters(state, records, f.csv_bytes);
}

void BM_ReadCsvZeroCopy(benchmark::State& state) {
  const auto& f = trace_files();
  std::size_t records = 0;
  std::vector<SensorRecord> batch;
  for (auto _ : state) {
    CsvTraceReader reader(f.csv_path);
    records = 0;
    while (reader.read_batch(batch, TraceReader::kDefaultBatch) > 0) {
      records += batch.size();
      benchmark::DoNotOptimize(batch.data());
    }
  }
  set_counters(state, records, f.csv_bytes);
}

void BM_ReadBinary(benchmark::State& state) {
  const auto& f = trace_files();
  std::size_t records = 0;
  std::vector<SensorRecord> batch;
  for (auto _ : state) {
    BinaryTraceReader reader(f.bin_path);
    records = 0;
    while (reader.read_batch(batch, TraceReader::kDefaultBatch) > 0) {
      records += batch.size();
      benchmark::DoNotOptimize(batch.data());
    }
  }
  set_counters(state, records, f.bin_bytes);
}

// --- end-to-end: file -> FleetReport ---------------------------------------

void run_end_to_end(benchmark::State& state, const std::string& path, std::size_t bytes) {
  const auto& f = trace_files();
  core::PipelineConfig cfg;
  sim::GdiEnvironmentConfig ec;
  const sim::GdiEnvironment env(ec);
  for (double t = 0.0; t < 2.0 * kSecondsPerDay; t += 2.0 * kSecondsPerHour) {
    cfg.initial_states.push_back(env.truth(t));
  }
  cfg.initial_states.resize(6);

  for (auto _ : state) {
    core::FleetMonitor fleet(6.0);
    fleet.add_region("r", cfg);
    const auto reader = open_trace_reader(path);
    fleet.ingest("r", *reader);
    fleet.finish();
    benchmark::DoNotOptimize(fleet.diagnose());
  }
  set_counters(state, f.records, bytes);
}

void BM_EndToEndFleetCsv(benchmark::State& state) {
  const auto& f = trace_files();
  run_end_to_end(state, f.csv_path, f.csv_bytes);
}

void BM_EndToEndFleetBinary(benchmark::State& state) {
  const auto& f = trace_files();
  run_end_to_end(state, f.bin_path, f.bin_bytes);
}

// --- sized: many files, round-robin ----------------------------------------

constexpr std::size_t kSizedFiles = 16;
constexpr std::size_t kSizedRecords = 262144;  // per file

struct SizedFiles {
  std::vector<std::string> paths;
  std::size_t bytes = 0;
};

/// kSizedFiles synthetic traces of 64 sensors sampled every 5 minutes (~14
/// days each), two attributes on a daily cycle, written as write_trace
/// writes them. Every file differs, so no two readers share page-cache
/// lines by accident.
const SizedFiles& sized_files() {
  static const SizedFiles files = [] {
    SizedFiles f;
    std::vector<SensorRecord> recs(kSizedRecords);
    for (std::size_t i = 0; i < kSizedFiles; ++i) {
      std::uint64_t noise = 0x9E3779B97F4A7C15ull * (i + 1);
      for (std::size_t r = 0; r < kSizedRecords; ++r) {
        noise = noise * 6364136223846793005ull + 1442695040888963407ull;
        const double jitter = static_cast<double>(noise >> 40) / static_cast<double>(1 << 24);
        SensorRecord& rec = recs[r];
        rec.sensor = static_cast<SensorId>(r % 64);
        rec.time = 300.0 * static_cast<double>(r / 64) + 0.125 * static_cast<double>(i);
        const double day = std::sin(rec.time / kSecondsPerDay * 6.283185307179586);
        rec.attrs = {20.0 + 5.0 * day + jitter, 60.0 - 10.0 * day - jitter};
      }
      f.paths.push_back(work_dir() / ("sized_" + std::to_string(i) + ".csv"));
      write_trace_file(f.paths.back(), recs);
      f.bytes += std::filesystem::file_size(f.paths.back());
    }
    return f;
  }();
  return files;
}

void BM_ReadCsvRoundRobinSized(benchmark::State& state) {
  const auto& f = sized_files();
  std::vector<SensorRecord> batch;
  std::size_t records = 0;
  std::size_t all_records = 0;  // over every iteration
  const std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const double cpu0 = process_cpu_s();
  for (auto _ : state) {
    std::vector<std::unique_ptr<TraceReader>> readers;
    for (const auto& path : f.paths) readers.push_back(std::make_unique<CsvTraceReader>(path));
    records = 0;
    for (std::size_t live = readers.size(); live > 0;) {
      live = 0;
      for (auto& reader : readers) {
        if (!reader) continue;
        const std::size_t n = reader->read_batch(batch, 1024);
        if (n == 0) {
          reader.reset();
          continue;
        }
        ++live;
        records += n;
        benchmark::DoNotOptimize(batch.data());
      }
    }
    all_records += records;
  }
  const double cpu_s = process_cpu_s() - cpu0;
  const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  set_counters(state, records, f.bytes);
  state.counters["files"] = static_cast<double>(kSizedFiles);
  const auto n = static_cast<double>(all_records);
  state.counters["cpu_ns_per_record"] = cpu_s * 1e9 / n;
  state.counters["allocs_per_record"] = static_cast<double>(allocs) / n;
}

}  // namespace

// The CsvTraceReader rows take real time: the reader decodes on the shared
// pool's workers, whose CPU time the benchmark thread's does not include.
BENCHMARK(BM_ReadCsvGetlineBaseline);
BENCHMARK(BM_ReadCsvGetline);
BENCHMARK(BM_ReadCsvZeroCopy)->UseRealTime();
BENCHMARK(BM_ReadBinary);
BENCHMARK(BM_EndToEndFleetCsv)->UseRealTime();
BENCHMARK(BM_EndToEndFleetBinary);
BENCHMARK(BM_ReadCsvRoundRobinSized)->Unit(benchmark::kMillisecond)->UseRealTime();

// metrics_main stamps the machine.* context fields (CPU budget, kernel
// level) and the library build type into the JSON, which is what lets
// tools/bench_compare.py gate BENCH_io.json in CI.
int main(int argc, char** argv) { return sentinel::bench_main::run(argc, argv); }
