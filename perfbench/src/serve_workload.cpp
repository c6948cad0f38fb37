// serve-open: a resident `sentinel_cli serve` daemon (screen tier on, a
// checkpoint store, one fleet thread) under tenant churn. Two generator
// threads, one connection each, open short-lived tenants back to back:
// HELLO under a fresh region name, a 7-day x 64-sensor trace from the
// pre-generated pool as 1024-record frames each acked by flush(), then
// REPORT(finalize) and disconnect. Frames follow a fixed open-loop schedule
// (kOfferedRecordsPerS over both threads): a late generator sends at once,
// and every ack is timed from the frame's scheduled send time, so a stall
// shows up in the latency of every frame queued behind it.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "host_probe.h"
#include "inputs.h"
#include "ledger.h"
#include "service/client.h"
#include "trace/trace_io.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace sentinel;

/// Offered load over both generator threads: about half the loopback
/// capacity of this churn pattern measured on a 4-core x86-64 host.
constexpr double kOfferedRecordsPerS = 1.3e6;
constexpr std::size_t kFrameRecords = 1024;
constexpr int kGenThreads = 2;
/// Daemon launches per phase; setup_s is the median over all of them, and
/// the last launch of a phase serves it.
constexpr int kLaunches = 5;
/// Length of one daemon lifetime (see run_serve_workload): ~57 tenants. At
/// ~115 tenants the REPORT cost already pushes ack latency toward the knee.
constexpr double kPhaseSeconds = 5.0;
/// The daemon's user CPU per record grows faster than the host factor:
/// with its 1.3rd to 2nd power (log-log slopes across the lifetimes of a
/// set of 45 s runs, and between two sets, on a 4-core x86-64 VM). It is
/// divided by the factor to this power, the middle of that range.
constexpr double kCpuFactorExponent = 1.5;
/// Commit each tenant's checkpoint once mid-stream: a 7-day tenant holds
/// ~113k records, under FleetConfig's 262144-record default cadence.
constexpr const char* kCheckpointEvery = "65536";

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

class Daemon {
 public:
  /// Launch `sentinel_cli serve` and wait for its port file; `setup_s` is
  /// the time from fork to the port being published.
  Daemon(const Options& opt, const std::string& bootstrap, bool timers, double& setup_s) {
    const fs::path dir = fs::path(opt.work_dir) / "serve";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string port_file = (dir / "port").string();
    const std::string log = (dir / "daemon.log").string();
    std::vector<std::string> args = {opt.cli,          "serve",
                                     "--port",         "0",
                                     "--port-file",    port_file,
                                     "--bootstrap",    bootstrap,
                                     "--screen-mode",  "screen",
                                     "--threads",      "1",
                                     "--checkpoint-dir", (dir / "ckpt").string(),
                                     "--checkpoint-every", kCheckpointEvery};
    if (timers) args.emplace_back("--timers");
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    std::fflush(nullptr);
    const double t0 = now_s();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed for the serve daemon");
    if (pid_ == 0) {
      // The daemon must not outlive a benchmark that dies unexpectedly.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    for (;;) {
      std::ifstream in(port_file);
      std::string line;
      if (std::getline(in, line) && in.good() && !line.empty()) {
        port_ = static_cast<std::uint16_t>(std::stoul(line));
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("serve daemon exited during start-up; see " + log);
      }
      if (now_s() - t0 > 60.0) {
        stop();
        throw std::runtime_error("serve daemon did not publish its port within 60 s");
      }
      ::usleep(200);
    }
    setup_s = now_s() - t0;
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// User and system CPU seconds the daemon has used so far (from /proc).
  CpuTimes cpu() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string f;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> f; ++i) {
      if (i == 14) utime = std::stoull(f);
      if (i == 15) stime = std::stoull(f);
    }
    const auto hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
    return {static_cast<double>(utime) / hz, static_cast<double>(stime) / hz};
  }

  /// The daemon's peak resident set (VmHWM), in MB. Its wait4 ru_maxrss
  /// would also count the benchmark's own pages, which the forked child
  /// held until it called exec.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
  }

  /// Kill the daemon and reap it; returns its rusage (zeroed if it was
  /// already gone).
  rusage stop() {
    rusage ru{};
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    return ru;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

struct GenStats {
  std::vector<double> ack_s;  // flush return - scheduled send time
  std::vector<double> lag_s;  // actual send - scheduled send time
  std::uint64_t records_acked = 0;
  std::uint64_t records_reported = 0;  // of tenants whose final report came back
  std::uint64_t frames = 0;
  std::uint64_t rejected = 0;
  std::uint64_t ops = 0;     // hello + frames + reports + verdicts
  std::uint64_t failed = 0;  // non-ok hello/send/flush/report, verdict mismatches
  double last_ack = 0.0;
  double last_report = 0.0;
  Ledger ledger;
  std::vector<std::string> errors;
  /// Report digest per pool slot: every tenant streaming one trace must get
  /// the same report bytes, however many tenants came before it.
  std::map<std::size_t, std::uint64_t> digests;
};

std::optional<core::Verdict> parse_verdict(const std::string& word) {
  using core::Verdict;
  for (const Verdict v : {Verdict::kNormal, Verdict::kError, Verdict::kAttack}) {
    if (word == core::to_string(v)) return v;
  }
  return std::nullopt;
}

/// The verdicts of a rendered region report (core::to_string(DiagnosisReport)),
/// or nothing when it has no network line or a verdict word is unknown, so a
/// truncated or garbled report cannot pass for a clean one.
std::optional<core::DiagnosisReport> parse_report(const std::string& text) {
  core::DiagnosisReport r;
  bool network = false;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(": ");
    if (colon == std::string::npos) continue;
    const auto verdict = parse_verdict(line.substr(colon + 2, line.find('/', colon) - colon - 2));
    if (line.rfind("network: ", 0) == 0) {
      if (!verdict) return std::nullopt;
      r.network.verdict = *verdict;
      network = true;
    } else if (line.rfind("sensor ", 0) == 0) {
      SensorId id = 0;
      const char* const id_end = line.data() + colon;
      const auto [end, ec] = std::from_chars(line.data() + 7, id_end, id);
      if (!verdict || ec != std::errc() || end != id_end) return std::nullopt;
      r.sensors[id].verdict = *verdict;
    }
  }
  if (!network) return std::nullopt;
  return r;
}

/// Sleep to just before `t`, then spin, so timer slack does not show up as
/// generator lag.
void wait_until(double t) {
  const double d = t - now_s() - 200e-6;
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
  while (now_s() < t) {
  }
}

/// One generator thread: tenants back to back until the schedule (or, for a
/// generator that fell behind it, the clock) passes `seconds`. Every tenant
/// is the same number of frames, and thread t runs t/kGenThreads of a
/// tenant (plus of a frame interval) behind thread 0, so neither the
/// threads' frames nor their REPORTs coincide by accident of trace length.
void generate(int thread, const TraceSet& pool, const std::vector<std::vector<SensorRecord>>& traces,
              std::uint16_t port, double t_start, double seconds, bool traced, GenStats& st) {
  Ledger* ledger = traced ? &st.ledger : nullptr;
  const double interval =
      static_cast<double>(kFrameRecords) * kGenThreads / kOfferedRecordsPerS;
  const double phase =
      t_start + (static_cast<double>(traces.front().size() / kFrameRecords) + 1.0) * interval *
                    thread / kGenThreads;
  const auto due_at = [&](std::uint64_t k) { return phase + static_cast<double>(k) * interval; };
  std::uint64_t k = 0;
  Scope gen(ledger, "gen", static_cast<std::uint32_t>(thread));
  for (std::uint64_t j = 0;
       static_cast<double>(k) * interval < seconds && now_s() < t_start + seconds; ++j) {
    const std::size_t slot = (j * kGenThreads + static_cast<std::uint64_t>(thread)) % traces.size();
    const auto& trace = traces[slot];
    const auto tenant_id = static_cast<std::uint32_t>(j * kGenThreads + thread);
    const std::string region = "tenant-" + std::to_string(thread) + "-" + std::to_string(j);
    const std::uint64_t k0 = k;
    const std::uint64_t frames = trace.size() / kFrameRecords;
    Scope tenant(ledger, "tenant", tenant_id);
    {
      Scope idle(ledger, "gen.idle", tenant_id);
      wait_until(due_at(k));
    }
    std::unique_ptr<service::Client> client;
    bool ok = true;
    {
      Scope s(ledger, "service.hello", tenant_id);
      service::ClientConfig cc;
      cc.port = port;
      cc.frame_records = kFrameRecords;
      try {
        client = std::make_unique<service::Client>(cc);
        ok = client->hello(region, 2).is_ok();
      } catch (const std::exception& e) {
        st.errors.push_back(e.what());
        ok = false;
      }
    }
    ++st.ops;
    if (!ok) {
      ++st.failed;
      st.errors.push_back("hello failed for " + region);
      k = k0 + frames;
      continue;
    }
    for (std::size_t off = 0; off < trace.size() && ok; off += kFrameRecords, ++k) {
      const double due = due_at(k);
      {
        Scope idle(ledger, "gen.idle", tenant_id);
        wait_until(due);
      }
      st.lag_s.push_back(now_s() - due);
      const std::size_t len = std::min(kFrameRecords, trace.size() - off);
      {
        Scope s(ledger, "service.send", tenant_id);
        ok = client->send({trace.data() + off, len}).is_ok();
      }
      if (ok) {
        Scope s(ledger, "service.flush", tenant_id);
        ok = client->flush().is_ok();
      }
      const double acked = now_s();
      ++st.ops;
      ++st.frames;
      if (!ok) {
        ++st.failed;
        st.errors.push_back("send/flush failed for " + region);
        break;
      }
      st.ack_s.push_back(acked - due);
      st.records_acked += len;
      st.last_ack = acked;
    }
    if (!ok) {
      k = k0 + frames;
      continue;
    }
    util::Result<std::string> report = std::string();
    {
      Scope s(ledger, "service.report", tenant_id);
      report = client->report(/*finalize=*/true, /*fleet_scope=*/false);
    }
    st.rejected += client->rejected_frames();
    st.ops += 2;
    if (!report.is_ok()) {
      ++st.failed;
      st.errors.push_back("report failed for " + region + ": " + report.status().to_string());
      continue;
    }
    st.last_report = now_s();
    st.records_reported += trace.size();
    const auto [seen, fresh] = st.digests.emplace(slot, fnv1a(*report));
    if (!fresh && seen->second != fnv1a(*report)) {
      ++st.failed;
      st.errors.push_back("tenant " + region + " report differs from an earlier tenant's");
    }
    const auto parsed = parse_report(*report);
    if (!parsed || !verdict_matches(*parsed, pool.entries[slot].injection)) {
      ++st.failed;
      st.errors.push_back("tenant " + region + " (" + to_string(pool.entries[slot].injection) +
                          ") diagnosed as:\n" + *report);
    }
  }
}

struct Phase {
  std::vector<double> setups;  // one per daemon launch, divided by host_factor
  double records_per_s = 0.0;
  double served_records_per_s = 0.0;
  CpuTimes cpu;  // the daemon's, over the schedule
  double peak_rss_mb = 0.0;
  std::uint64_t records = 0;
  std::vector<GenStats> gens;
  std::string metrics_json;
  std::string fleet_report;
  std::map<std::size_t, std::uint64_t> digests;
  double host_factor = 1.0;  // HostProbe over the launches and the schedule
};

/// One digest over every pool slot's report, once each slot has served.
void check_phase_digest(const Phase& ph, const TraceSet& pool, const std::string& build,
                        Outcome& out) {
  if (ph.digests.size() < pool.entries.size()) return;
  std::string all;
  for (const auto& [slot, d] : ph.digests) all += std::to_string(slot) + "=" + std::to_string(d) + ";";
  std::printf("# serve-open report digest %016llx\n",
              static_cast<unsigned long long>(fnv1a(all)));
  check_digest(pool, build, "serve-open", fnv1a(all), out);
}

/// One daemon lifetime: launch it (kLaunches times for set-up samples), run
/// the schedule for `seconds`, optionally collect the daemon-side ledger,
/// and kill it.
Phase run_phase(const Options& opt, const TraceSet& pool,
                const std::vector<std::vector<SensorRecord>>& traces, double seconds, bool traced,
                HostProbe& probe, Outcome& out) {
  Phase ph;
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  probe.start();
  for (int i = 0; i < kLaunches; ++i) {
    double s = 0.0;
    daemon.reset();  // the previous launch is killed and reaped first
    daemon = std::make_unique<Daemon>(opt, pool.path(0, "sntrb1"), traced, s);
    setups.push_back(s);
  }
  const CpuTimes cpu0 = daemon->cpu();
  ph.gens.resize(kGenThreads);
  const double t_start = now_s() + 0.05;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kGenThreads; ++t) {
      threads.emplace_back(generate, t, std::cref(pool), std::cref(traces), daemon->port(),
                           t_start, seconds, traced, std::ref(ph.gens[static_cast<std::size_t>(t)]));
    }
    for (auto& th : threads) th.join();
  }
  double last_ack = t_start, last_report = t_start;
  std::uint64_t acked = 0, reported = 0;
  for (const GenStats& g : ph.gens) {
    last_ack = std::max(last_ack, g.last_ack);
    last_report = std::max(last_report, g.last_report);
    acked += g.records_acked;
    reported += g.records_reported;
    out.attempted += g.ops;
    out.failed += g.failed;
    for (const auto& e : g.errors) out.check(false, e);
    ph.digests.insert(g.digests.begin(), g.digests.end());
  }
  ph.records = acked;
  ph.served_records_per_s = static_cast<double>(acked) / (last_ack - t_start);
  ph.records_per_s = static_cast<double>(reported) / (last_report - t_start);
  const CpuTimes cpu1 = daemon->cpu();
  ph.host_factor = probe.stop();
  for (double s : setups) ph.setups.push_back(s / ph.host_factor);

  if (traced) {
    try {
      service::ClientConfig cc;
      cc.port = daemon->port();
      service::Client control(cc);
      const auto metrics = control.metrics_json();
      const auto report = control.report(/*finalize=*/false, /*fleet_scope=*/true);
      out.check(metrics.is_ok() && report.is_ok(), "METRICS/REPORT on the control connection");
      if (metrics.is_ok()) ph.metrics_json = *metrics;
      if (report.is_ok()) ph.fleet_report = *report;
    } catch (const std::exception& e) {
      out.check(false, std::string("control connection: ") + e.what());
    }
  }
  ph.peak_rss_mb = daemon->peak_rss_mb();
  const rusage ru = daemon->stop();
  // A traced lifetime's end count would include the control connection.
  const CpuTimes end = traced ? cpu1 : CpuTimes{timeval_s(ru.ru_utime), timeval_s(ru.ru_stime)};
  ph.cpu = {end.user_s - cpu0.user_s, end.sys_s - cpu0.sys_s};
  return ph;
}

/// Value of `"name":<number>` in the daemon's METRICS JSON (0 if absent).
double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  return pos == std::string::npos ? 0.0 : std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// A histogram's `sum` (ns) or `count` field in the METRICS JSON.
double json_histogram(const std::string& json, const std::string& name, const char* field) {
  const auto pos = json.find("\"" + name + "\":{");
  if (pos == std::string::npos) return 0.0;
  const auto end = json.find('}', pos);
  return json_number(json.substr(pos, end - pos + 1), field);
}

}  // namespace

Outcome run_serve_workload(const Options& opt) {
  if (opt.cli.empty() || !fs::exists(opt.cli)) {
    throw std::runtime_error("serve-open needs --cli <sentinel_cli>");
  }
  const TraceSet pool = tenant_pool(opt.work_dir, opt.seed);
  // Every tenant streams the same whole number of frames: each pool trace
  // is cut to the shortest one, rounded down to a frame (under an hour of
  // the 7-day trace).
  std::vector<std::vector<SensorRecord>> traces;
  std::size_t tenant_records = SIZE_MAX;
  for (std::size_t i = 0; i < pool.entries.size(); ++i) {
    traces.push_back(read_trace_file(pool.path(i, "sntrb1"), 2).records);
    tenant_records =
        std::min(tenant_records, traces.back().size() / kFrameRecords * kFrameRecords);
  }
  for (auto& t : traces) t.resize(tenant_records);

  Outcome out;
  // The run is cut into daemon lifetimes of ~kPhaseSeconds: a daemon that
  // never forgets a tenant gets costlier per REPORT as tenants pile up, so a
  // fixed lifetime keeps each phase the same workload at any --seconds. A
  // traced run makes every second lifetime a traced one (stage timers on,
  // spans around every client call).
  const auto phases = static_cast<int>(
      std::max(opt.trace ? 2.0 : 1.0, std::round(opt.seconds / kPhaseSeconds)));
  std::vector<double> setups, rates, served, rss, p50, p99, cpu, raw_cpu, sys, factors;
  double user_s = 0.0;
  std::uint64_t records = 0;
  std::size_t samples = 0;
  Phase ph;  // the last traced phase
  HostProbe probe;
  for (int i = 0; i < phases; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    Phase p = run_phase(opt, pool, traces, opt.seconds / phases, traced, probe, out);
    check_phase_digest(p, pool, opt.build, out);
    if (traced) {
      ph = std::move(p);
      continue;
    }
    setups.insert(setups.end(), p.setups.begin(), p.setups.end());
    rates.push_back(p.records_per_s);
    served.push_back(p.served_records_per_s);
    rss.push_back(p.peak_rss_mb);
    user_s += p.cpu.user_s;
    records += p.records;
    const double mrec = static_cast<double>(p.records) * 1e-6;
    raw_cpu.push_back(p.cpu.user_s / mrec);
    sys.push_back(p.cpu.sys_s / mrec);
    factors.push_back(p.host_factor);
    cpu.push_back(raw_cpu.back() / std::pow(p.host_factor, kCpuFactorExponent));
    std::vector<double> acks;
    for (const GenStats& g : p.gens) acks.insert(acks.end(), g.ack_s.begin(), g.ack_s.end());
    samples += acks.size();
    p50.push_back(quantile(acks, 0.50) * 1e3);
    p99.push_back(quantile(acks, 0.99) * 1e3);
  }
  std::printf("# serve-open: %d daemon lifetimes, %zu untraced acks, %llu records, "
              "%.0f rec/s offered; daemon user CPU %.4g / %.4g / %.4g s/Mrec as measured, host factor "
              "%.4g / %.4g / %.4g, %.4g / %.4g / %.4g MB (min / median / max over lifetimes)\n",
              phases, samples, static_cast<unsigned long long>(records), kOfferedRecordsPerS,
              quantile(raw_cpu, 0.0), median(raw_cpu), quantile(raw_cpu, 1.0),
              quantile(factors, 0.0), median(factors), quantile(factors, 1.0), quantile(rss, 0.0),
              median(rss), quantile(rss, 1.0));
  // Latency of the best lifetime, which the host factor does not scale:
  // slowdowns from other tenants of a shared host come in bursts. CPU
  // per record is the median lifetime's, which repeated twice as closely
  // across seeds as the best one's; it and set-up are divided by their
  // lifetime's host factor (see host_probe.h and kCpuFactorExponent). It is
  // user CPU: the daemon's system CPU (~18% of its total) is mostly loopback
  // TCP, whose softirq work the kernel charges to whichever task it
  // interrupts. Over 72 lifetimes it spread 43% between run medians and did
  // not follow the probe, so it is reported apart, in the traced run. The
  // delivered rates are set by the schedule and barely move, so they are
  // taken as measured.
  out.set("setup_s", median(setups));
  out.set("records_per_s", median(rates));
  out.set("served_records_per_s", median(served));
  out.set("ack_p50_ms", quantile(p50, 0.0));
  out.set("ack_p99_ms", quantile(p99, 0.0));
  out.set("cpu_s_per_mrec", median(cpu));
  out.set("peak_rss_mb", median(rss));
  out.set("service.daemon_sys_s_per_mrec", median(sys));
  if (!opt.trace) return out;

  // The tracing overhead is the daemon user CPU per record the tracing adds:
  // in an open loop the wall time is set by the schedule, not by the system.
  std::map<std::string, double> self;
  std::vector<double> lags;
  std::uint64_t frames = 0, rejected = 0;
  double thread_wall = 0.0;
  std::ofstream spans(fs::path(opt.work_dir) / "spans-serve-open.csv");
  for (const GenStats& g : ph.gens) {
    for (const auto& [name, s] : g.ledger.self_seconds()) self[name] += s;
    g.ledger.dump(spans);
    lags.insert(lags.end(), g.lag_s.begin(), g.lag_s.end());
    frames += g.frames;
    rejected += g.rejected;
  }
  for (const auto& [name, s] : self) thread_wall += s;
  const auto at = [&](const char* k) {
    const auto it = self.find(k);
    return it == self.end() ? 0.0 : it->second;
  };
  const std::string& js = ph.metrics_json;
  for (const char* stage : {"screen", "spawn", "identify", "alarms", "hmm", "centroid"}) {
    out.set(std::string("pipeline.stage.") + stage + "_s",
            json_histogram(js, std::string("pipeline.stage.") + stage + "_ns", "sum") * 1e-9);
  }
  out.set("pipeline.windows", json_histogram(js, "pipeline.stage.identify_ns", "count"));
  out.set("checkpoint.commits", json_number(js, "fleet.checkpoint_commits"));
  out.set("checkpoint.bytes", json_number(js, "fleet.checkpoint_bytes"));
  out.set("checkpoint.failures", json_number(js, "fleet.checkpoint_failures"));
  double regions = 0.0;
  for (std::size_t pos = js.find(".health\":"); pos != std::string::npos;
       pos = js.find(".health\":", pos + 1)) {
    regions += 1.0;
  }
  out.set("service.regions_live", regions);

  // Screen tier totals from the fleet report's "screen tier:" lines.
  double screened = 0.0, escalated = 0.0, chi2 = 0.0;
  std::istringstream rep(ph.fleet_report);
  for (std::string line; std::getline(rep, line);) {
    unsigned long long s = 0, e = 0, c = 0;
    const auto pos = line.find("sensor-windows screened ");
    if (pos != std::string::npos &&
        std::sscanf(line.c_str() + pos, "sensor-windows screened %llu escalated %llu, trips chi2 %llu",
                    &s, &e, &c) == 3) {
      screened += static_cast<double>(s);
      escalated += static_cast<double>(e);
      chi2 += static_cast<double>(c);
    }
  }
  out.set("screen.escalated_ratio", screened + escalated > 0 ? escalated / (screened + escalated) : 0.0);
  out.set("screen.chi2_trips", chi2);

  out.set("service.send.busy_s", at("service.send"));
  out.set("service.flush.wait_s", at("service.flush"));
  out.set("service.hello_s", at("service.hello"));
  out.set("service.report_s", at("service.report"));
  out.set("gen.idle_s", at("gen.idle"));
  out.set("service.frames", static_cast<double>(frames));
  out.set("service.frames_rejected", static_cast<double>(rejected));
  out.set("service.reject_ratio", frames > 0 ? static_cast<double>(rejected) / frames : 0.0);
  out.set("gen_lag_p99_ms", quantile(lags, 0.99) * 1e3);
  out.set("ledger.wall_s", thread_wall);
  out.set("ledger.unaccounted_s", at("gen") + at("tenant"));
  out.set("ledger.tracing_overhead",
          (ph.cpu.user_s / static_cast<double>(ph.records)) /
                  (user_s / static_cast<double>(records)) -
              1.0);
  return out;
}

}  // namespace perfbench
