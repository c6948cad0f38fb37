// `sentinel_cli serve` / `sentinel_cli stream`: the resident fleet service
// and its streaming client (docs/SERVICE.md).
//
//   serve  -- keep one FleetMonitor alive behind a localhost TCP listener.
//             Tenants bind regions over SNTRS1 connections; reports, metrics
//             and health are served live; checkpoints commit on a timer and
//             a final one commits at shutdown so `serve --resume` continues
//             bit-identically after a crash or restart.
//   stream -- feed trace files (if any) to a running server, one
//             connection (and region) per file, then optionally fetch the
//             fleet report and shut the server down. `stream` + `serve`
//             over the same traces print the same report bytes as `fleet`
//             (test-enforced), because all three share the bootstrap,
//             region naming, and the SNTRB1 record codec.

#include <csignal>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cli/common.h"
#include "service/client.h"
#include "service/server.h"
#include "trace/trace_reader.h"

namespace sentinel::cli {

namespace {

service::Server* g_server = nullptr;

void handle_signal(int) {
  // Async-signal-safe: request_stop is an atomic store + pipe write.
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int cmd_serve(const Args& args) {
  service::ServerConfig sc;
  sc.port = opt_unsigned<std::uint16_t>(args, "--port", 0);
  sc.fleet.threads = opt_unsigned<std::size_t>(args, "--threads", 1);
  const std::string resume_dir = opt_str(args, "--resume", "");
  sc.fleet.checkpoint_dir = opt_str(args, "--checkpoint-dir", resume_dir);
  sc.resume = !resume_dir.empty();
  sc.fleet.checkpoint_every_records =
      opt_unsigned(args, "--checkpoint-every", core::FleetConfig{}.checkpoint_every_records);
  sc.checkpoint_interval_seconds = opt_double(args, "--checkpoint-interval", 0.0);
  if (!(sc.checkpoint_interval_seconds >= 0.0 &&
        sc.checkpoint_interval_seconds <= service::kMaxCheckpointIntervalSeconds)) {
    throw UsageError("--checkpoint-interval wants seconds in [0, 1e9], got '" +
                     args.options.at("--checkpoint-interval") + "'");
  }

  sc.region.window_seconds = opt_double(args, "--window", sc.region.window_seconds);
  sc.region.stage_timers = args.options.count("--timers") > 0;
  if (!apply_screen_mode(args, sc.region)) return 2;
  const auto k = opt_unsigned<std::size_t>(args, "--states", 6);

  // The resident fleet serves every tenant from one region config, so the
  // initial model states must come from a bootstrap trace named up front --
  // the same kmeans bootstrap `fleet` runs on its first parseable trace,
  // which is what keeps served reports comparable with batch runs.
  const std::string bootstrap = opt_str(args, "--bootstrap", "");
  if (bootstrap.empty()) {
    std::fprintf(stderr, "serve requires --bootstrap <trace> for the initial model states\n");
    return 2;
  }
  if (!bootstrap_initial_states({bootstrap}, sc.region, k)) {
    std::fprintf(stderr, "no trace long enough to bootstrap %zu initial states\n", k);
    return 1;
  }

  std::unique_ptr<service::Server> server;
  try {
    server = std::make_unique<service::Server>(sc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // Publish the bound port (ephemeral when --port 0) where scripts and the
  // chaos harness can read it before connecting.
  const std::string port_file = opt_str(args, "--port-file", "");
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>(server->port()));
    std::fclose(f);
  }
  std::fprintf(stderr, "listening on 127.0.0.1:%u\n", static_cast<unsigned>(server->port()));

  g_server = server.get();
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  server->run();
  g_server = nullptr;
  std::fprintf(stderr, "server drained and stopped\n");
  return 0;
}

int cmd_stream(const Args& args) {
  const auto port = opt_unsigned<std::uint16_t>(args, "--port", 0);
  if (port == 0) {
    std::fprintf(stderr, "stream requires --port <server port>\n");
    return 2;
  }
  service::ClientConfig cc;
  cc.port = port;
  cc.frame_records = opt_unsigned<std::size_t>(args, "--frame-records", 4096);

  // One connection (and region) per trace, named exactly as `fleet` names
  // its regions from the same paths.
  const auto feeds = region_feeds(args.paths);
  std::uint64_t rejected = 0;
  for (const auto& [name, path] : feeds) {
    std::unique_ptr<TraceReader> reader;
    try {
      reader = open_trace_reader(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[region %s] cannot open %s: %s\n", name.c_str(), path.c_str(),
                   e.what());
      return 1;
    }
    // CSV traces do not declare their dimensionality up front: read one
    // batch to learn it, then replay that batch over the connection.
    std::vector<SensorRecord> first;
    std::size_t dims = reader->dims();
    if (dims == 0) {
      if (reader->read_batch(first, TraceReader::kDefaultBatch) == 0) {
        std::fprintf(stderr, "[region %s] no parseable records in %s\n", name.c_str(),
                     path.c_str());
        return 1;
      }
      dims = first.front().attrs.size();
    }
    try {
      service::Client client(cc);
      const auto offset = client.hello(name, dims);
      if (!offset.is_ok()) {
        std::fprintf(stderr, "[region %s] hello failed: %s\n", name.c_str(),
                     offset.status().to_string().c_str());
        return 1;
      }
      std::uint64_t sent_total = 0;
      std::size_t skip = static_cast<std::size_t>(*offset);
      if (skip < first.size()) {
        const std::span<const SensorRecord> tail(first.data() + skip, first.size() - skip);
        if (const auto st = client.send(tail); !st.is_ok()) {
          std::fprintf(stderr, "[region %s] stream failed: %s\n", name.c_str(),
                       st.to_string().c_str());
          return 1;
        }
        sent_total += tail.size();
        skip = 0;
      } else {
        skip -= first.size();
      }
      const auto sent = client.stream_reader(*reader, skip);
      if (!sent.is_ok()) {
        std::fprintf(stderr, "[region %s] stream failed: %s\n", name.c_str(),
                     sent.status().to_string().c_str());
        return 1;
      }
      sent_total += *sent;
      rejected += client.rejected_frames();
      std::fprintf(stderr, "[region %s] streamed %llu records from %s (skipped %llu covered)\n",
                   name.c_str(), static_cast<unsigned long long>(sent_total), path.c_str(),
                   static_cast<unsigned long long>(*offset));
      for (const auto& ev : client.health_events()) {
        std::fprintf(stderr, "[region %s] health: %s\n", name.c_str(),
                     util::Status(ev.code, ev.message).to_string().c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[region %s] %s\n", name.c_str(), e.what());
      return 1;
    }
  }
  if (rejected > 0) {
    std::fprintf(stderr, "admission control rejected %llu frames (resent)\n",
                 static_cast<unsigned long long>(rejected));
  }

  // Control-plane tail on a fresh connection: report, metrics, shutdown.
  try {
    service::Client client(cc);
    if (args.options.count("--report")) {
      const bool finalize = args.options.count("--final") > 0;
      const auto report = client.report(finalize, /*fleet_scope=*/true);
      if (!report.is_ok()) {
        std::fprintf(stderr, "report failed: %s\n", report.status().to_string().c_str());
        return 1;
      }
      std::printf("%s", report->c_str());
    }
    if (args.options.count("--metrics-json")) {
      const auto metrics = client.metrics_json();
      if (!metrics.is_ok()) {
        std::fprintf(stderr, "metrics failed: %s\n", metrics.status().to_string().c_str());
        return 1;
      }
      const std::string path = opt_str(args, "--metrics-json", "");
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write metrics json %s\n", path.c_str());
        return 1;
      }
      std::fprintf(f, "%s\n", metrics->c_str());
      std::fclose(f);
      std::fprintf(stderr, "metrics written to %s\n", path.c_str());
    }
    if (args.options.count("--shutdown")) {
      if (const auto st = client.shutdown_server(); !st.is_ok()) {
        std::fprintf(stderr, "shutdown failed: %s\n", st.to_string().c_str());
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace sentinel::cli
