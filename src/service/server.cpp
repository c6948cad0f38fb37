#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/report.h"
#include "service/frame_reader.h"
#include "util/metrics.h"

namespace sentinel::service {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Per-region fleet state folded into the metrics document, mirroring what
/// the batch CLI injects for --metrics-json so an operator reads the same
/// names either way.
void inject_region_state(util::MetricsSnapshot& snap, const std::string& name,
                         const core::RegionState& st) {
  const std::string prefix = "fleet.region." + name + ".";
  snap.add_counter(prefix + "records_ingested", st.records_ingested);
  snap.add_counter(prefix + "records_dropped", st.records_dropped);
  snap.add_counter(prefix + "malformed_lines", st.malformed.total());
  snap.add_counter(prefix + "backpressure_waits", st.backpressure_waits);
  snap.add_counter(prefix + "backpressure_block_ns", st.backpressure_block_ns);
  snap.add_counter(prefix + "health",
                   static_cast<std::uint64_t>(st.health));
}

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)), fleet_(cfg_.fleet) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    throw std::runtime_error("service: pipe() failed: " + std::string(std::strerror(errno)));
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("service: socket() failed: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(listen_fd_);
    close_fd(wake_r_);
    close_fd(wake_w_);
    throw std::runtime_error("service: cannot listen on 127.0.0.1:" +
                             std::to_string(cfg_.port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
}

Server::~Server() {
  stop();
  close_fd(listen_fd_);
  close_fd(wake_r_);
  close_fd(wake_w_);
}

void Server::request_stop() {
  // Async-signal-safe: an atomic store and one write(2) on the wake pipe.
  stop_requested_.store(true);
  const unsigned char b = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_w_, &b, 1);
}

void Server::start() {
  run_thread_ = std::thread([this] { run(); });
}

void Server::stop() {
  request_stop();
  if (run_thread_.joinable()) run_thread_.join();
}

void Server::run() {
  if (cfg_.checkpoint_interval_seconds > 0 && !cfg_.fleet.checkpoint_dir.empty()) {
    timer_thread_ = std::thread([this] {
      const auto interval = std::chrono::duration<double>(cfg_.checkpoint_interval_seconds);
      std::unique_lock<std::mutex> lock(timer_mu_);
      while (!timer_cv_.wait_for(lock, interval, [this] { return stop_requested_.load(); })) {
        lock.unlock();
        {
          std::lock_guard<std::mutex> ingest(ingest_mu_);
          fleet_.checkpoint_now();
        }
        lock.lock();
      }
    });
  }

  while (!stop_requested_.load()) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_r_, POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stop_requested_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    std::lock_guard<std::mutex> lock(conns_mu_);
    // Reap connections whose handlers already exited, so a long-lived
    // daemon does not accumulate one joinable thread per past client.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load()) {
        (*it)->thread.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    conn->thread = std::thread([this, raw] {
      serve_connection(raw->fd);
      raw->done.store(true);
    });
    conns_.push_back(std::move(conn));
  }

  // Teardown: no new connections, unblock every handler's recv, join, then
  // quiesce the fleet and commit the final checkpoint.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& c : conns_) ::shutdown(c->fd, SHUT_RDWR);
  }
  for (;;) {
    std::unique_ptr<Conn> victim;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      victim = std::move(conns_.back());
      conns_.pop_back();
    }
    if (victim->thread.joinable()) victim->thread.join();
    close_fd(victim->fd);
  }
  if (timer_thread_.joinable()) {
    timer_cv_.notify_all();
    timer_thread_.join();
  }
  shutdown_fleet();
  stopped_.store(true);
}

void Server::shutdown_fleet() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  fleet_.drain();
  // checkpoint_now(), not finish(): the final checkpoint captures mid-window
  // state so a `serve --resume` restart continues the stream bit-identically
  // instead of restarting from a flushed boundary.
  fleet_.checkpoint_now();
}

void Server::serve_connection(int fd) {
  Frame f;
  std::string region;       // bound by HELLO; empty until then
  std::size_t dims = 0;     // fixed at HELLO
  std::uint64_t expected_seq = 0;
  bool health_reported = false;

  while (!stop_requested_.load()) {
    const util::Status st = read_frame(fd, f);
    if (!st.is_ok()) break;  // EOF, truncation, or oversized frame: drop peer

    switch (f.type) {
      case FrameType::kHello:
        handle_hello(fd, f, region, dims, expected_seq);
        break;
      case FrameType::kRecords:
        if (region.empty()) {
          write_ack(fd, util::StatusCode::kFailedPrecondition, 0,
                    "RECORDS before HELLO");
          ::shutdown(fd, SHUT_RDWR);
        } else {
          handle_records(fd, f, region, dims, expected_seq, health_reported);
        }
        break;
      case FrameType::kFlush: {
        if (region.empty()) {
          write_ack(fd, util::StatusCode::kFailedPrecondition, 0, "FLUSH before HELLO");
          break;
        }
        std::uint64_t ingested = 0;
        {
          std::lock_guard<std::mutex> lock(ingest_mu_);
          ingested = fleet_.region_health(region).records_ingested;
        }
        write_ack(fd, util::StatusCode::kOk, ingested);
        break;
      }
      case FrameType::kReport:
        handle_report(fd, f, region);
        break;
      case FrameType::kMetrics:
        handle_metrics(fd);
        break;
      case FrameType::kHealth:
        handle_health(fd);
        break;
      case FrameType::kCheckpoint: {
        {
          std::lock_guard<std::mutex> lock(ingest_mu_);
          fleet_.checkpoint_now();
        }
        write_ack(fd, util::StatusCode::kOk, 0);
        break;
      }
      case FrameType::kShutdown:
        write_ack(fd, util::StatusCode::kOk, 0);
        request_stop();
        return;
      default:
        write_ack(fd, util::StatusCode::kInvalidArgument, 0,
                  "unknown frame type " + std::to_string(static_cast<unsigned>(f.type)));
        break;
    }
  }
}

void Server::handle_hello(int fd, const Frame& f, std::string& region, std::size_t& dims,
                          std::uint64_t& expected_seq) {
  if (!region.empty()) {
    write_ack(fd, util::StatusCode::kFailedPrecondition, 0, "connection already bound");
    return;
  }
  if (f.payload.size() < 5) {
    write_ack(fd, util::StatusCode::kInvalidArgument, 0, "short HELLO payload");
    return;
  }
  const std::uint32_t hello_dims = get_u32le(f.payload.data());
  std::string name(reinterpret_cast<const char*>(f.payload.data()) + 4, f.payload.size() - 4);
  if (hello_dims == 0 || name.empty()) {
    write_ack(fd, util::StatusCode::kInvalidArgument, 0, "HELLO needs dims > 0 and a region name");
    return;
  }

  std::uint64_t offset = 0;  // "stream your trace from this record"
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    bool exists = false;
    for (const auto& existing : fleet_.region_names()) {
      if (existing == name) {
        exists = true;
        break;
      }
    }
    if (exists) {
      // Rebinding a live region (a reconnecting tenant): resume from the
      // records the resident pipeline has already accepted.
      offset = fleet_.region_health(name).records_ingested;
    } else if (cfg_.resume) {
      const auto restored = fleet_.add_region_resumed(name, cfg_.region);
      if (!restored.is_ok()) {
        write_ack(fd, restored.status().code(), 0, restored.status().message());
        return;
      }
      offset = *restored;
    } else {
      fleet_.add_region(name, cfg_.region);
    }
  }

  region = std::move(name);
  dims = hello_dims;
  expected_seq = 0;
  write_ack(fd, util::StatusCode::kOk, offset);
}

void Server::handle_records(int fd, const Frame& f, const std::string& region, std::size_t dims,
                            std::uint64_t& expected_seq, bool& health_reported) {
  if (f.payload.size() < kRecordsHeaderBytes) {
    write_ack(fd, util::StatusCode::kInvalidArgument, 0, "short RECORDS payload");
    ::shutdown(fd, SHUT_RDWR);
    return;
  }
  const std::uint64_t seq = get_u64le(f.payload.data());
  const std::uint32_t count = get_u32le(f.payload.data() + 8);
  const std::size_t record_bytes = binary_trace_record_bytes(dims);
  if (count == 0 || count > cfg_.max_frame_records ||
      f.payload.size() != kRecordsHeaderBytes + count * record_bytes) {
    write_ack(fd, util::StatusCode::kInvalidArgument, 0,
              "RECORDS count/size mismatch (count " + std::to_string(count) + ", payload " +
                  std::to_string(f.payload.size()) + " bytes)");
    ::shutdown(fd, SHUT_RDWR);
    return;
  }

  // Admission control, part 1: per-connection ordering. A frame past the
  // expected sequence number (a client that kept streaming after a reject)
  // is bounced with the sequence to rewind to; a duplicate below it is
  // acknowledged as already-applied so retries are idempotent.
  if (seq != expected_seq) {
    if (seq < expected_seq) return;  // duplicate of an accepted frame
    write_event(fd, util::StatusCode::kFailedPrecondition, expected_seq,
                "out-of-order RECORDS frame");
    return;
  }

  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    // Admission control, part 2: reject-with-status instead of blocking the
    // handler (and with it every other tenant waiting on ingest_mu_) when
    // this region's shard is already at its queue bound.
    if (fleet_.queue_depth(region) >= fleet_.config().max_queue_records) {
      write_event(fd, util::StatusCode::kResourceExhausted, seq, "region queue full");
      return;
    }
    FrameReader reader(dims);
    reader.reset(f.payload.data() + kRecordsHeaderBytes, count);
    const auto sum = fleet_.ingest(region, reader);
    expected_seq = seq + 1;
    if (!sum.status.is_ok() && !health_reported) {
      // One unsolicited health event per connection: the tenant's feed
      // degraded or quarantined its region.
      health_reported = true;
      write_event(fd, sum.status.code(), 0, sum.status.message());
    }
  }
}

void Server::handle_report(int fd, const Frame& f, const std::string& region) {
  if (f.payload.size() < 2) {
    write_ack(fd, util::StatusCode::kInvalidArgument, 0, "short REPORT payload");
    return;
  }
  const bool final = f.payload[0] != 0;
  const bool fleet_scope = f.payload[1] != 0;
  if (!fleet_scope && region.empty()) {
    write_ack(fd, util::StatusCode::kFailedPrecondition, 0, "region REPORT before HELLO");
    return;
  }

  std::string text;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    if (fleet_scope) {
      if (final) fleet_.finish();
      text = core::to_string(final ? fleet_.diagnose() : fleet_.report_snapshot().report);
    } else {
      // Diagnose this region alone: its entry in a fleet diagnosis is the
      // same bytes, without every other tenant's diagnosis and the
      // O(regions^2) structural vote.
      if (final) {
        fleet_.finish_region(region);
      } else {
        fleet_.drain();
      }
      const core::RegionState& st = fleet_.region_health(region);
      if (st.health == core::RegionHealth::kQuarantined) {
        // Quarantined regions carry no diagnosis; surface the health status
        // instead of an empty report.
        write_ack(fd, st.status.code(), 0, st.status.message());
        return;
      }
      text = core::to_string(fleet_.region(region).diagnose());
    }
  }
  write_frame(fd, FrameType::kText, text);
}

void Server::handle_metrics(int fd) {
  util::MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    fleet_.drain();
    snap = util::metrics().snapshot();
    for (const auto& [name, st] : fleet_.health()) inject_region_state(snap, name, st);
  }
  write_frame(fd, FrameType::kText, snap.to_json());
}

void Server::handle_health(int fd) {
  std::string text;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    for (const auto& [name, st] : fleet_.health()) {
      text += "region ";
      text += name;
      text += ' ';
      text += core::to_string(st.health);
      text += " records=";
      text += std::to_string(st.records_ingested);
      if (!st.status.is_ok()) {
        text += ' ';
        text += st.status.message();
      }
      text += '\n';
    }
  }
  if (text.empty()) text = "no regions\n";
  write_frame(fd, FrameType::kText, text);
}

}  // namespace sentinel::service
