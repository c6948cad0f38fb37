#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/report.h"
#include "trace/binary_trace.h"
#include "trace/trace_reader.h"
#include "util/metrics.h"

namespace sentinel::service {

namespace {

/// Bytes one recv may read: one recv per ready connection per loop pass
/// serves tenants round-robin.
constexpr std::size_t kRecvChunk = 256u << 10;

/// How long the listener stays out of the poll set after accept(2) ran out
/// of descriptors, unless a connection ends first.
constexpr std::chrono::milliseconds kAcceptPause{100};

/// run() converts the checkpoint interval to a steady_clock duration and
/// adds it to now(), which is undefined for NaN, an infinity or a value near
/// 2^63 ns.
ServerConfig checked(ServerConfig cfg) {
  const double s = cfg.checkpoint_interval_seconds;
  if (!(s >= 0.0 && s <= kMaxCheckpointIntervalSeconds)) {
    throw std::invalid_argument("service: checkpoint_interval_seconds must be in [0, 1e9]");
  }
  return cfg;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(checked(std::move(cfg))), fleet_(cfg_.fleet), rx_(kRecvChunk) {
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
  using Clock = std::chrono::steady_clock;
  const bool timed = cfg_.checkpoint_interval_seconds > 0 && !cfg_.fleet.checkpoint_dir.empty();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg_.checkpoint_interval_seconds));
  auto next_checkpoint = Clock::now() + interval;
  // A connection accept(2) found no descriptor for stays pending, so the
  // listener stays readable: poll without it until a connection ends or
  // kAcceptPause passes, rather than spin on the failing accept.
  auto accept_paused_until = Clock::time_point::min();

  std::vector<pollfd> fds;
  while (!stop_requested_.load()) {
    const auto now = Clock::now();
    const bool paused = now < accept_paused_until;
    fds.assign({{paused ? -1 : listen_fd_, POLLIN, 0}, {wake_r_, POLLIN, 0}});
    for (const Conn& c : conns_) fds.push_back({c.fd, POLLIN, 0});
    auto deadline = paused ? accept_paused_until : Clock::time_point::max();
    if (timed) deadline = std::min(deadline, next_checkpoint);
    int timeout_ms = -1;
    if (deadline != Clock::time_point::max()) {
      timeout_ms = static_cast<int>(std::max<std::int64_t>(
          std::chrono::ceil<std::chrono::milliseconds>(deadline - now).count(), 0));
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) break;
    if (timed && Clock::now() >= next_checkpoint) {
      fleet_.checkpoint_now();
      next_checkpoint = Clock::now() + interval;
    }

    // A connection ends when its socket is shut down (peer reset, or this
    // side after a failed reply or a protocol error), on EOF or a read
    // error, or on a malformed frame.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const short ev = fds[i + 2].revents;
      if ((ev & (POLLHUP | POLLERR | POLLNVAL)) != 0 ||
          ((ev & POLLIN) != 0 && !read_conn(conns_[i]))) {
        close_fd(conns_[i].fd);
      }
    }
    if (std::erase_if(conns_, [](const Conn& c) { return c.fd < 0; }) > 0) {
      accept_paused_until = Clock::time_point::min();
    }

    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        const int one = 1;
        const timeval reply_timeout{kReplyTimeoutSeconds, 0};
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &reply_timeout, sizeof reply_timeout);
        conns_.emplace_back().fd = fd;
      } else if (errno == EMFILE || errno == ENFILE) {
        accept_paused_until = Clock::now() + kAcceptPause;
      }
    }
  }

  // Teardown: with no producer left, drain every shard and commit the final
  // checkpoint -- checkpoint_now(), not finish(), so it captures mid-window
  // state and a `serve --resume` restart continues the stream bit-identically
  // instead of restarting from a flushed boundary.
  for (Conn& c : conns_) close_fd(c.fd);
  conns_.clear();
  fleet_.drain();
  fleet_.checkpoint_now();
  stopped_.store(true);
}

bool Server::read_conn(Conn& c) {
  // MSG_DONTWAIT: reads never block the loop. Replies stay blocking sends,
  // bounded by the socket's send timeout.
  const ssize_t n = ::recv(c.fd, rx_.data(), rx_.size(), MSG_DONTWAIT);
  if (n == 0) return false;
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  c.in.insert(c.in.end(), rx_.data(), rx_.data() + n);
  std::size_t used = 0;
  while (!stop_requested_.load()) {
    util::Status st;
    const std::size_t size = decode_frame(c.in.data() + used, c.in.size() - used, frame_, st);
    if (!st.is_ok()) return false;
    if (size == 0) break;
    used += size;
    serve_frame(c, frame_);
  }
  c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(used));
  return true;
}

void Server::serve_frame(Conn& c, const Frame& f) {
  switch (f.type) {
    case FrameType::kHello:
      handle_hello(c, f);
      break;
    case FrameType::kRecords:
      if (c.region.empty()) {
        write_ack(c.fd, util::StatusCode::kFailedPrecondition, 0, "RECORDS before HELLO");
        ::shutdown(c.fd, SHUT_RDWR);
      } else {
        handle_records(c, f);
      }
      break;
    case FrameType::kFlush:
      if (c.region.empty()) {
        write_ack(c.fd, util::StatusCode::kFailedPrecondition, 0, "FLUSH before HELLO");
      } else {
        write_ack(c.fd, util::StatusCode::kOk, fleet_.region_health(c.region).records_ingested);
      }
      break;
    case FrameType::kReport:
      handle_report(c, f);
      break;
    case FrameType::kMetrics:
      handle_metrics(c.fd);
      break;
    case FrameType::kHealth:
      handle_health(c.fd);
      break;
    case FrameType::kCheckpoint:
      fleet_.checkpoint_now();
      write_ack(c.fd, util::StatusCode::kOk, 0);
      break;
    case FrameType::kShutdown:
      write_ack(c.fd, util::StatusCode::kOk, 0);
      request_stop();
      break;
    default:
      write_ack(c.fd, util::StatusCode::kInvalidArgument, 0,
                "unknown frame type " + std::to_string(static_cast<unsigned>(f.type)));
      break;
  }
}

void Server::handle_hello(Conn& c, const Frame& f) {
  if (!c.region.empty()) {
    write_ack(c.fd, util::StatusCode::kFailedPrecondition, 0, "connection already bound");
    return;
  }
  if (f.payload.size() < 5) {
    write_ack(c.fd, util::StatusCode::kInvalidArgument, 0, "short HELLO payload");
    return;
  }
  const std::uint32_t dims = get_u32le(f.payload.data());
  std::string name(reinterpret_cast<const char*>(f.payload.data()) + 4, f.payload.size() - 4);
  if (dims == 0 || name.empty()) {
    write_ack(c.fd, util::StatusCode::kInvalidArgument, 0,
              "HELLO needs dims > 0 and a region name");
    return;
  }

  std::uint64_t offset = 0;  // "stream your trace from this record"
  if (fleet_.health().contains(name)) {
    // Rebinding a live region (a reconnecting tenant): resume from the
    // records the resident pipeline has already accepted.
    offset = fleet_.region_health(name).records_ingested;
  } else if (cfg_.resume) {
    const auto restored = fleet_.add_region_resumed(name, cfg_.region);
    if (!restored.is_ok()) {
      write_ack(c.fd, restored.status().code(), 0, restored.status().message());
      return;
    }
    offset = *restored;
  } else {
    fleet_.add_region(name, cfg_.region);
  }
  c.region = std::move(name);
  c.dims = dims;
  c.expected_seq = 0;
  write_ack(c.fd, util::StatusCode::kOk, offset);
}

void Server::handle_records(Conn& c, const Frame& f) {
  if (f.payload.size() < kRecordsHeaderBytes) {
    write_ack(c.fd, util::StatusCode::kInvalidArgument, 0, "short RECORDS payload");
    ::shutdown(c.fd, SHUT_RDWR);
    return;
  }
  const std::uint64_t seq = get_u64le(f.payload.data());
  const std::uint32_t count = get_u32le(f.payload.data() + 8);
  if (count == 0 || count > cfg_.max_frame_records ||
      f.payload.size() != kRecordsHeaderBytes + count * binary_trace_record_bytes(c.dims)) {
    write_ack(c.fd, util::StatusCode::kInvalidArgument, 0,
              "RECORDS count/size mismatch (count " + std::to_string(count) + ", payload " +
                  std::to_string(f.payload.size()) + " bytes)");
    ::shutdown(c.fd, SHUT_RDWR);
    return;
  }

  // Admission control, part 1: per-connection ordering. A frame past the
  // expected sequence number (a client that kept streaming after a reject)
  // is bounced with the sequence to rewind to; a duplicate below it is
  // acknowledged as already-applied so retries are idempotent.
  if (seq != c.expected_seq) {
    if (seq < c.expected_seq) return;  // duplicate of an accepted frame
    write_event(c.fd, util::StatusCode::kFailedPrecondition, c.expected_seq,
                "out-of-order RECORDS frame");
    return;
  }
  // Admission control, part 2: reject-with-status instead of blocking the
  // loop (and with it every other tenant) when this region's shard is
  // already at its queue bound.
  if (fleet_.queue_depth(c.region) >= fleet_.config().max_queue_records) {
    write_event(c.fd, util::StatusCode::kResourceExhausted, seq, "region queue full");
    return;
  }
  // The batch path: slices of at most kDefaultBatch records go to
  // add_records, as a file's batches do, so a record offered to a
  // quarantined region is counted as dropped like any other.
  const auto recs = decode_records(f.payload.data() + kRecordsHeaderBytes, count, c.dims, records_);
  for (std::size_t off = 0; off < recs.size(); off += TraceReader::kDefaultBatch) {
    fleet_.add_records(c.region,
                       recs.subspan(off, std::min(TraceReader::kDefaultBatch, recs.size() - off)));
  }
  c.expected_seq = seq + 1;
  const util::Status& status = fleet_.region_health(c.region).status;
  if (!status.is_ok() && !c.health_reported) {
    // One unsolicited health event per connection: the tenant's feed
    // degraded or quarantined its region. A pipeline failure shows here
    // once the fleet quiesced the region: a checkpoint, a REPORT, METRICS
    // or HEALTH request.
    c.health_reported = true;
    write_event(c.fd, status.code(), 0, status.message());
  }
}

void Server::handle_report(Conn& c, const Frame& f) {
  if (f.payload.size() < 2) {
    write_ack(c.fd, util::StatusCode::kInvalidArgument, 0, "short REPORT payload");
    return;
  }
  const bool final = f.payload[0] != 0;
  const bool fleet_scope = f.payload[1] != 0;
  if (!fleet_scope && c.region.empty()) {
    write_ack(c.fd, util::StatusCode::kFailedPrecondition, 0, "region REPORT before HELLO");
    return;
  }

  std::string text;
  if (fleet_scope) {
    if (final) fleet_.finish();
    text = core::to_string(final ? fleet_.diagnose() : fleet_.report_snapshot().report);
  } else {
    // Diagnose this region alone: its entry in a fleet diagnosis is the
    // same bytes, without every other tenant's diagnosis and the
    // O(regions^2) structural vote.
    if (final) {
      fleet_.finish_region(c.region);
    } else {
      fleet_.drain();
    }
    const core::RegionState& st = fleet_.region_health(c.region);
    if (st.health == core::RegionHealth::kQuarantined) {
      // Quarantined regions carry no diagnosis; surface the health status
      // instead of an empty report.
      write_ack(c.fd, st.status.code(), 0, st.status.message());
      return;
    }
    text = core::to_string(fleet_.region(c.region).diagnose());
  }
  write_frame(c.fd, FrameType::kText, text);
}

void Server::handle_metrics(int fd) {
  fleet_.drain();
  util::MetricsSnapshot snap = util::metrics().snapshot();
  core::export_region_metrics(snap, fleet_);
  write_frame(fd, FrameType::kText, snap.to_json());
}

void Server::handle_health(int fd) {
  // Drain first, as METRICS and REPORT do: a parked pipeline failure shows
  // as Quarantined only once the fleet quiesces the region.
  fleet_.drain();
  std::string text;
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
  if (text.empty()) text = "no regions\n";
  write_frame(fd, FrameType::kText, text);
}

}  // namespace sentinel::service
