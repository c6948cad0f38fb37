// Resident fleet service (src/service): wire framing, the determinism
// contract (a trace streamed over N concurrent connections yields the same
// per-region report bytes as ingest_file), admission-control stream
// control, and checkpointed shutdown/resume.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "service/client.h"
#include "service/frame.h"
#include "service/frame_reader.h"
#include "service/server.h"
#include "sim/simulator.h"
#include "trace/binary_trace.h"
#include "trace/trace_io.h"
#include "trace/trace_reader.h"
#include "util/metrics.h"

namespace sentinel {
namespace {

/// The golden 7-day scenario from golden_report_test.cpp: 10 GDI sensors,
/// a stuck-at fault on sensor 6 from day 2, an additive offset on sensor 3
/// from day 4. Generated once per process.
const std::vector<SensorRecord>& golden_trace() {
  static const std::vector<SensorRecord> trace = [] {
    sim::GdiEnvironmentConfig ec;
    ec.duration_seconds = 7.0 * kSecondsPerDay;
    ec.seed = 20260806;
    const sim::GdiEnvironment env(ec);
    sim::GdiDeploymentConfig dc;
    dc.num_sensors = 10;
    dc.seed = 20260806;
    return sim::make_gdi_deployment(env, dc).run(ec.duration_seconds).trace;
  }();
  return trace;
}

core::PipelineConfig golden_config() {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 7.0 * kSecondsPerDay;
  ec.seed = 20260806;
  const sim::GdiEnvironment env(ec);
  core::PipelineConfig cfg;
  for (double t = 0.0; t < 2.0 * kSecondsPerDay; t += 2.0 * kSecondsPerHour) {
    cfg.initial_states.push_back(env.truth(t));
  }
  cfg.initial_states.resize(6);
  return cfg;
}

/// Path of the golden trace as an SNTRB1 file (written once per process).
/// The pid keeps concurrent test processes (ctest -j) from rewriting the
/// file under each other's readers.
const std::string& golden_trace_path() {
  static const std::string path = [] {
    const std::string p = testing::TempDir() + "service_golden." +
                          std::to_string(::getpid()) + ".snt";
    write_trace_binary_file(p, golden_trace());
    return p;
  }();
  return path;
}

/// Batch baseline: `regions` regions all ingesting the golden trace from
/// disk, collective finish, rendered fleet report.
std::string batch_report(std::size_t regions, std::size_t threads) {
  core::FleetConfig fc;
  fc.threads = threads;
  core::FleetMonitor fleet(fc);
  for (std::size_t i = 0; i < regions; ++i) {
    fleet.add_region("tenant" + std::to_string(i), golden_config());
  }
  for (std::size_t i = 0; i < regions; ++i) {
    const auto sum = fleet.ingest_file("tenant" + std::to_string(i), golden_trace_path());
    EXPECT_TRUE(sum.status.is_ok());
  }
  fleet.finish();
  return core::to_string(fleet.diagnose());
}

/// Served run: `conns` concurrent connections, one per tenant region, all
/// streaming the golden trace at once; then a final fleet-scope report.
std::string served_report(std::size_t conns, std::size_t threads,
                          std::size_t frame_records = 4096) {
  service::ServerConfig sc;
  sc.fleet.threads = threads;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  std::vector<std::thread> tenants;
  std::vector<std::string> errors(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    tenants.emplace_back([&, i] {
      try {
        service::ClientConfig cc;
        cc.port = server.port();
        cc.frame_records = frame_records;
        service::Client client(cc);
        const auto offset = client.hello("tenant" + std::to_string(i), 2);
        if (!offset.is_ok()) {
          errors[i] = offset.status().to_string();
          return;
        }
        const auto reader = open_trace_reader(golden_trace_path());
        const auto sent = client.stream_reader(*reader);
        if (!sent.is_ok()) errors[i] = sent.status().to_string();
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  for (auto& t : tenants) t.join();
  for (const auto& e : errors) EXPECT_TRUE(e.empty()) << e;

  service::ClientConfig cc;
  cc.port = server.port();
  service::Client control(cc);
  const auto report = control.report(/*finalize=*/true, /*fleet_scope=*/true);
  EXPECT_TRUE(report.is_ok()) << report.status().to_string();
  server.stop();
  return report.is_ok() ? *report : std::string();
}

/// A raw loopback connection for driving the protocol by hand (-1 on
/// failure).
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// HELLO `region` (2 dims) on a raw connection; true once the ok ack is read.
bool raw_hello(int fd, const std::string& region) {
  std::vector<unsigned char> hello(4 + region.size());
  service::put_u32le(hello.data(), 2);
  std::memcpy(hello.data() + 4, region.data(), region.size());
  service::Frame f;
  service::AckBody body;
  return service::write_frame(fd, service::FrameType::kHello, hello.data(), hello.size())
             .is_ok() &&
         service::read_frame(fd, f).is_ok() && f.type == service::FrameType::kAck &&
         service::parse_ack(f.payload, body).is_ok() && body.code == util::StatusCode::kOk;
}

/// SO_SNDTIMEO / SO_RCVTIMEO on `fd`.
void set_timeout(int fd, int option, int ms) {
  const timeval tv{ms / 1000, (ms % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
}

/// Entries in /proc/self/fd: this process's open file descriptors.
std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(ServiceFraming, RecordCodecRoundTripsThroughFrameReader) {
  std::vector<SensorRecord> records;
  for (std::uint32_t i = 0; i < 100; ++i) {
    records.push_back(SensorRecord{i, 17.5 * i, AttrVec{1.0 + i, -2.0 * i, 0.25}});
  }
  const std::size_t rb = binary_trace_record_bytes(3);
  std::vector<unsigned char> wire(records.size() * rb);
  for (std::size_t i = 0; i < records.size(); ++i) {
    encode_binary_record(wire.data() + i * rb, records[i]);
  }

  service::FrameReader reader(3);
  reader.reset(wire.data(), records.size());
  std::vector<SensorRecord> out;
  std::vector<SensorRecord> all;
  while (reader.read_batch(out, 17) > 0) all.insert(all.end(), out.begin(), out.end());
  ASSERT_EQ(all.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(all[i], records[i]) << "record " << i;
  }
}

TEST(ServiceDeterminism, SingleConnectionMatchesIngestFile) {
  const std::string want = batch_report(1, 1);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(served_report(1, 1), want);
}

TEST(ServiceDeterminism, FourConcurrentConnectionsMatchIngestFileAtAnyThreads) {
  const std::string want = batch_report(4, 1);
  ASSERT_FALSE(want.empty());
  // Fleet threading is byte-invisible, so the serial batch baseline is the
  // reference for both a serial and a sharded resident fleet -- whatever
  // order the four tenants' frames interleave in.
  EXPECT_EQ(served_report(4, 1), want);
  EXPECT_EQ(served_report(4, 4), want);
}

TEST(ServiceDeterminism, TinyFramesDoNotChangeTheReport) {
  // 64-record frames force thousands of ingest calls and many flush
  // barriers; the report must not care how the stream was framed.
  const std::string want = batch_report(1, 1);
  EXPECT_EQ(served_report(1, 1, /*frame_records=*/64), want);
}

TEST(ServiceControlPlane, SnapshotReportMetricsAndHealthAnswerMidStream) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  service::ClientConfig cc;
  cc.port = server.port();
  service::Client client(cc);
  ASSERT_TRUE(client.hello("north", 2).is_ok());
  const auto& trace = golden_trace();
  ASSERT_TRUE(client.send({trace.data(), trace.size() / 2}).is_ok());

  // Live snapshot: does not finalize, stream continues afterwards.
  const auto snapshot = client.report(/*finalize=*/false, /*fleet_scope=*/false);
  ASSERT_TRUE(snapshot.is_ok()) << snapshot.status().to_string();
  EXPECT_NE(snapshot->find("network:"), std::string::npos);

  const auto health = client.health_text();
  ASSERT_TRUE(health.is_ok());
  EXPECT_NE(health->find("region north healthy"), std::string::npos) << *health;

  const auto metrics = client.metrics_json();
  ASSERT_TRUE(metrics.is_ok());
  EXPECT_NE(metrics->find("fleet.region.north.records_ingested"), std::string::npos);
  EXPECT_NE(metrics->find("fleet.report_snapshots"), std::string::npos);

  // The rest of the stream still lands and finalizes normally.
  ASSERT_TRUE(client.send({trace.data() + trace.size() / 2, trace.size() - trace.size() / 2})
                  .is_ok());
  const auto final_report = client.report(/*finalize=*/true, /*fleet_scope=*/false);
  ASSERT_TRUE(final_report.is_ok());
  EXPECT_NE(final_report->find("network:"), std::string::npos);
  server.stop();
}

TEST(ServiceControlPlane, RegionScopeFinalReportsMatchBatchDiagnosisPerTenant) {
  // Three tenants with different feeds: the full golden trace, its first
  // 60%, and the trace without sensors 8 and 9.
  const auto& trace = golden_trace();
  std::map<std::string, std::vector<SensorRecord>> feeds;
  feeds["alpha"] = trace;
  feeds["beta"].assign(trace.begin(), trace.begin() + trace.size() * 3 / 5);
  for (const auto& rec : trace) {
    if (rec.sensor < 8) feeds["gamma"].push_back(rec);
  }

  core::FleetMonitor batch(6.0);
  for (const auto& [name, recs] : feeds) {
    const std::string path = testing::TempDir() + "service_" + name + "." +
                             std::to_string(::getpid()) + ".snt";
    write_trace_binary_file(path, recs);
    batch.add_region(name, golden_config());
    ASSERT_TRUE(batch.ingest_file(name, path).status.is_ok());
    std::remove(path.c_str());
  }
  batch.finish();
  const core::FleetReport want = batch.diagnose();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    service::ServerConfig sc;
    sc.fleet.threads = threads;
    sc.region = golden_config();
    service::Server server(std::move(sc));
    server.start();
    service::ClientConfig cc;
    cc.port = server.port();

    // Every tenant streams before any asks for its report, so each final
    // REPORT finishes one region while the others stay resident.
    std::vector<std::unique_ptr<service::Client>> clients;
    for (const auto& [name, recs] : feeds) {
      clients.push_back(std::make_unique<service::Client>(cc));
      ASSERT_TRUE(clients.back()->hello(name, 2).is_ok());
      ASSERT_TRUE(clients.back()->send(recs).is_ok());
    }
    // A fourth tenant sends 3-attribute records into 2-attribute models:
    // its pipeline fails and the region is quarantined.
    service::Client poisoned(cc);
    ASSERT_TRUE(poisoned.hello("delta", 3).is_ok());
    std::vector<SensorRecord> bad(trace.begin(), trace.begin() + 2000);
    for (auto& rec : bad) rec.attrs.push_back(0.0);
    ASSERT_TRUE(poisoned.send(bad).is_ok());

    std::size_t i = 0;
    for (const auto& [name, recs] : feeds) {
      const auto report = clients[i++]->report(/*finalize=*/true, /*fleet_scope=*/false);
      ASSERT_TRUE(report.is_ok()) << name << ": " << report.status().to_string();
      EXPECT_EQ(*report, core::to_string(want.regions.at(name))) << name;
    }
    // The quarantined tenant gets its region's status instead of a report.
    const auto report = poisoned.report(/*finalize=*/true, /*fleet_scope=*/false);
    ASSERT_FALSE(report.is_ok());
    EXPECT_EQ(report.status().code(), util::StatusCode::kInternal);
    EXPECT_NE(report.status().message().find("region delta: pipeline failed"),
              std::string::npos)
        << report.status().to_string();
    server.stop();
  }
}

TEST(ServiceAdmission, OutOfOrderFrameIsBouncedWithExpectedSeq) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  // Raw socket: drive the protocol by hand to provoke the reject.
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_hello(fd, "manual"));
  service::Frame f;

  // Frame with seq 7 while the server expects 0.
  const std::size_t rb = binary_trace_record_bytes(2);
  std::vector<unsigned char> payload(service::kRecordsHeaderBytes + rb);
  service::put_u64le(payload.data(), 7);
  service::put_u32le(payload.data() + 8, 1);
  encode_binary_record(payload.data() + service::kRecordsHeaderBytes,
                       SensorRecord{1, 1.0, AttrVec{20.0, 50.0}});
  ASSERT_TRUE(
      service::write_frame(fd, service::FrameType::kRecords, payload.data(), payload.size())
          .is_ok());

  ASSERT_TRUE(service::read_frame(fd, f).is_ok());
  ASSERT_EQ(f.type, service::FrameType::kEvent);
  service::AckBody body;
  ASSERT_TRUE(service::parse_ack(f.payload, body).is_ok());
  EXPECT_EQ(body.code, util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(body.value, 0u);  // "resend from sequence 0"

  // Resending with the expected seq is accepted (no event, flush acks 1).
  service::put_u64le(payload.data(), 0);
  ASSERT_TRUE(
      service::write_frame(fd, service::FrameType::kRecords, payload.data(), payload.size())
          .is_ok());
  ASSERT_TRUE(service::write_frame(fd, service::FrameType::kFlush, nullptr, 0).is_ok());
  ASSERT_TRUE(service::read_frame(fd, f).is_ok());
  ASSERT_EQ(f.type, service::FrameType::kAck);
  ASSERT_TRUE(service::parse_ack(f.payload, body).is_ok());
  EXPECT_EQ(body.code, util::StatusCode::kOk);
  EXPECT_EQ(body.value, 1u);  // records_ingested

  ::close(fd);
  server.stop();
}

TEST(ServiceAdmission, RecordsBeforeHelloIsRejected) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  unsigned char payload[service::kRecordsHeaderBytes] = {};
  ASSERT_TRUE(
      service::write_frame(fd, service::FrameType::kRecords, payload, sizeof payload).is_ok());
  service::Frame f;
  ASSERT_TRUE(service::read_frame(fd, f).is_ok());
  ASSERT_EQ(f.type, service::FrameType::kAck);
  service::AckBody body;
  ASSERT_TRUE(service::parse_ack(f.payload, body).is_ok());
  EXPECT_EQ(body.code, util::StatusCode::kFailedPrecondition);
  ::close(fd);
  server.stop();
}

TEST(ServiceAdmission, ShardFullRejectionsAreRetriedToTheSameReport) {
  // A sharded fleet with a tiny queue bound: frames race the drain worker,
  // so some get bounced with kResourceExhausted and retried by the client.
  // Whether or not any given run provokes a bounce, the report must equal
  // the batch baseline -- the rejection path is byte-invisible.
  const std::string want = batch_report(1, 1);
  service::ServerConfig sc;
  sc.fleet.threads = 2;
  sc.fleet.max_queue_records = 512;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  service::ClientConfig cc;
  cc.port = server.port();
  cc.frame_records = 256;
  service::Client client(cc);
  ASSERT_TRUE(client.hello("tenant0", 2).is_ok());
  const auto reader = open_trace_reader(golden_trace_path());
  const auto sent = client.stream_reader(*reader);
  ASSERT_TRUE(sent.is_ok()) << sent.status().to_string();
  EXPECT_EQ(*sent, golden_trace().size());

  const auto report = client.report(/*finalize=*/true, /*fleet_scope=*/true);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(*report, want);
  RecordProperty("rejected_frames", static_cast<int>(client.rejected_frames()));
  server.stop();
}

TEST(ServiceResume, ShutdownCheckpointThenResumeIsByteIdentical) {
  const std::string want = batch_report(1, 1);
  const std::string dir = testing::TempDir() + "service_resume_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto& trace = golden_trace();
  const std::size_t cut = trace.size() / 2;

  // First server life: stream half the trace, then a clean shutdown commits
  // the final (mid-window) checkpoint.
  {
    service::ServerConfig sc;
    sc.fleet.checkpoint_dir = dir;
    sc.fleet.checkpoint_every_records = 0;  // only the shutdown checkpoint
    sc.region = golden_config();
    service::Server server(std::move(sc));
    server.start();
    service::ClientConfig cc;
    cc.port = server.port();
    service::Client client(cc);
    ASSERT_TRUE(client.hello("tenant0", 2).is_ok());
    ASSERT_TRUE(client.send({trace.data(), cut}).is_ok());
    ASSERT_TRUE(client.flush().is_ok());
    ASSERT_TRUE(client.shutdown_server().is_ok());
    server.stop();
    ASSERT_TRUE(server.stopped());
  }

  // Second life: --resume restores the region; HELLO names the covered
  // offset and the tenant streams the full trace from it. The final report
  // must match a never-interrupted batch run byte for byte.
  {
    service::ServerConfig sc;
    sc.fleet.checkpoint_dir = dir;
    sc.resume = true;
    sc.region = golden_config();
    service::Server server(std::move(sc));
    server.start();
    service::ClientConfig cc;
    cc.port = server.port();
    service::Client client(cc);
    const auto offset = client.hello("tenant0", 2);
    ASSERT_TRUE(offset.is_ok());
    EXPECT_EQ(*offset, cut);
    ASSERT_TRUE(
        client.send({trace.data() + *offset, trace.size() - *offset}).is_ok());
    const auto report = client.report(/*finalize=*/true, /*fleet_scope=*/true);
    ASSERT_TRUE(report.is_ok());
    EXPECT_EQ(*report, want);
    server.stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(ServiceLifecycle, ReconnectingTenantResumesFromLiveOffset) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  const auto& trace = golden_trace();
  const std::size_t cut = trace.size() / 3;
  service::ClientConfig cc;
  cc.port = server.port();
  {
    service::Client first(cc);
    ASSERT_TRUE(first.hello("tenant0", 2).is_ok());
    ASSERT_TRUE(first.send({trace.data(), cut}).is_ok());
    ASSERT_TRUE(first.flush().is_ok());
  }  // connection drops; the region stays resident

  service::Client second(cc);
  const auto offset = second.hello("tenant0", 2);
  ASSERT_TRUE(offset.is_ok());
  EXPECT_EQ(*offset, cut);  // "stream from here"
  ASSERT_TRUE(second.send({trace.data() + cut, trace.size() - cut}).is_ok());
  const auto report = second.report(/*finalize=*/true, /*fleet_scope=*/true);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(*report, batch_report(1, 1));
  server.stop();
}

TEST(ServiceLifecycle, EndedConnectionsReleaseTheirSockets) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();
  service::ClientConfig cc;
  cc.port = server.port();

  const std::size_t before = open_fds();
  for (int i = 0; i < 64; ++i) {
    service::Client client(cc);
    ASSERT_TRUE(client.hello("tenant0", 2).is_ok());
  }  // each tenant hangs up after its HELLO ack
  // The server closes a socket once it sees the hang-up; give it ~2 s.
  std::size_t after = open_fds();
  for (int i = 0; i < 200 && after != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = open_fds();
  }
  EXPECT_EQ(after, before) << "open fds after the cycles vs before";
  server.stop();
}

TEST(ServiceLoop, NonReadingPeerIsDroppedWithoutStallingOtherTenants) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  // The flooder binds a region, then sends FLUSH frames and never reads
  // their acks. Its own short send timeout ends the flood once the server
  // stops taking its bytes (or the send fails once the server drops it).
  int flooder = connect_raw(server.port());
  ASSERT_GE(flooder, 0);
  ASSERT_TRUE(raw_hello(flooder, "flooder"));
  set_timeout(flooder, SO_SNDTIMEO, 200);
  std::vector<unsigned char> flushes(5 * 4096);
  for (std::size_t i = 0; i < flushes.size(); i += 5) {
    service::put_u32le(flushes.data() + i, 1);
    flushes[i + 4] = static_cast<unsigned char>(service::FrameType::kFlush);
  }
  std::size_t flooded = 0;
  while (flooded < (256u << 20)) {
    const ssize_t n = ::send(flooder, flushes.data(), flushes.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    flooded += static_cast<std::size_t>(n);
  }

  // A second tenant streams the whole trace and gets its region report
  // within the deadline, whatever the flooder's replies cost the server.
  const auto& trace = golden_trace();
  auto tenant = std::async(std::launch::async, [&] {
    service::ClientConfig cc;
    cc.port = server.port();
    service::Client client(cc);
    if (!client.hello("tenant0", 2).is_ok() || !client.send(trace).is_ok()) return std::string();
    const auto report = client.report(/*finalize=*/true, /*fleet_scope=*/false);
    return report.is_ok() ? *report : std::string();
  });
  const auto deadline = std::chrono::seconds(5 * service::kReplyTimeoutSeconds);
  if (tenant.wait_for(deadline) != std::future_status::ready) {
    ADD_FAILURE() << "second tenant stalled behind a non-reading peer (" << flooded
                  << " flood bytes sent)";
    ::close(flooder);  // the reset unblocks a server stuck writing to it
    flooder = -1;
  }
  EXPECT_NE(tenant.get().find("network:"), std::string::npos);
  server.stop();

  // The flooder's connection ends: draining its acks reaches EOF or a reset
  // instead of a receive timeout.
  if (flooder >= 0) {
    set_timeout(flooder, SO_RCVTIMEO, 5000);
    std::vector<unsigned char> sink(1u << 16);
    ssize_t n = 0;
    while ((n = ::recv(flooder, sink.data(), sink.size(), 0)) > 0) {
    }
    EXPECT_TRUE(n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) << std::strerror(errno);
    ::close(flooder);
  }
}

TEST(ServiceLoop, SilentPartialFramesDoNotDelayOtherTenants) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  // One peer sends half a length prefix, another a 1 MiB frame header and
  // 10 payload bytes; both then go silent with their connections open.
  const int half = connect_raw(server.port());
  const int stalled = connect_raw(server.port());
  ASSERT_GE(half, 0);
  ASSERT_GE(stalled, 0);
  const unsigned char prefix[2] = {0x10, 0x00};
  EXPECT_EQ(::send(half, prefix, sizeof prefix, MSG_NOSIGNAL), 2);
  std::vector<unsigned char> partial(5 + 10, 0);
  service::put_u32le(partial.data(), 1u << 20);
  partial[4] = static_cast<unsigned char>(service::FrameType::kRecords);
  EXPECT_EQ(::send(stalled, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // let both land first

  // A third tenant's HELLO is still acked at once (the receive timeout
  // turns a stall into a failed read instead of a hung test).
  const int tenant = connect_raw(server.port());
  ASSERT_GE(tenant, 0);
  set_timeout(tenant, SO_RCVTIMEO, 2000 * service::kReplyTimeoutSeconds);
  EXPECT_TRUE(raw_hello(tenant, "tenant0"));

  ::close(tenant);
  ::close(half);
  ::close(stalled);
  server.stop();
}

TEST(ServiceLoop, CheckpointIntervalCommitsWhileTheLoopIsIdle) {
  const std::string dir =
      testing::TempDir() + "service_timed_ckpt." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  service::ServerConfig sc;
  sc.fleet.checkpoint_dir = dir;
  sc.fleet.checkpoint_every_records = 0;  // only the timed commits
  sc.checkpoint_interval_seconds = 0.05;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();
  service::ClientConfig cc;
  cc.port = server.port();
  service::Client client(cc);
  ASSERT_TRUE(client.hello("tenant0", 2).is_ok());
  const auto& trace = golden_trace();
  ASSERT_TRUE(client.send({trace.data(), trace.size() / 2}).is_ok());
  ASSERT_TRUE(client.flush().is_ok());

  // No frame arrives for half a second: only the loop's poll deadline can
  // commit the region, about ten times over.
  const util::Counter& commits = util::metrics().counter("fleet.checkpoint_commits");
  const std::uint64_t before = commits.total();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_GE(commits.total() - before, 2u);
  server.stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sentinel
