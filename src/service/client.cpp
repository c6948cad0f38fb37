#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "trace/binary_trace.h"
#include "trace/trace_reader.h"

namespace sentinel::service {

namespace {

util::Status conn_lost(const char* what) {
  return util::Status(util::StatusCode::kUnavailable,
                      std::string("service client: ") + what);
}

}  // namespace

Client::Client(ClientConfig cfg) : cfg_(std::move(cfg)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("service client: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("service client: cannot connect to 127.0.0.1:" +
                             std::to_string(cfg_.port) + ": " + err);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (cfg_.frame_records == 0) cfg_.frame_records = 4096;
  if (cfg_.flush_every_frames == 0) cfg_.flush_every_frames = 32;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::process_event(const AckBody& body) {
  if (body.code == util::StatusCode::kResourceExhausted ||
      body.code == util::StatusCode::kFailedPrecondition) {
    // Stream control: rewind to the sequence number the server names (the
    // earliest one wins when several rejects pile up).
    if (!rewind_requested_ || body.value < rewind_seq_) rewind_seq_ = body.value;
    rewind_requested_ = true;
    return;
  }
  health_events_.push_back(body);
}

util::Status Client::drain_events() {
  for (;;) {
    pollfd p{fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, 0);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0 || (p.revents & POLLIN) == 0) return util::Status::ok();
    // A frame header is readable; only kEvents arrive unsolicited, and on
    // loopback the rest of the frame follows within the same delivery.
    const util::Status st = read_frame(fd_, scratch_);
    if (!st.is_ok()) return conn_lost("connection lost while streaming");
    if (scratch_.type != FrameType::kEvent) {
      return util::Status(util::StatusCode::kInternal,
                          "service client: unexpected frame while streaming");
    }
    AckBody body;
    if (const auto ps = parse_ack(scratch_.payload, body); !ps.is_ok()) return ps;
    process_event(body);
  }
}

util::Status Client::read_until(FrameType type, Frame& f) {
  for (;;) {
    const util::Status st = read_frame(fd_, f);
    if (!st.is_ok()) return conn_lost("connection lost awaiting reply");
    if (f.type == type) return util::Status::ok();
    if (f.type == FrameType::kEvent) {
      AckBody body;
      if (const auto ps = parse_ack(f.payload, body); !ps.is_ok()) return ps;
      process_event(body);
      continue;
    }
    if (f.type == FrameType::kAck) {
      // An error ack in place of the expected reply.
      AckBody body;
      if (const auto ps = parse_ack(f.payload, body); !ps.is_ok()) return ps;
      return util::Status(body.code, body.message);
    }
    return util::Status(util::StatusCode::kInternal, "service client: unexpected reply frame");
  }
}

util::Result<std::uint64_t> Client::hello(const std::string& region, std::size_t dims) {
  std::vector<unsigned char> payload(4 + region.size());
  put_u32le(payload.data(), static_cast<std::uint32_t>(dims));
  std::memcpy(payload.data() + 4, region.data(), region.size());
  if (const auto st = write_frame(fd_, FrameType::kHello, payload.data(), payload.size());
      !st.is_ok()) {
    return st;
  }
  Frame f;
  if (const auto st = read_until(FrameType::kAck, f); !st.is_ok()) return st;
  AckBody body;
  if (const auto st = parse_ack(f.payload, body); !st.is_ok()) return st;
  if (body.code != util::StatusCode::kOk) return util::Status(body.code, body.message);
  dims_ = dims;
  record_bytes_ = binary_trace_record_bytes(dims);
  unacked_base_ = 0;
  return body.value;
}

void Client::seal_current() {
  if (cur_records_ == 0) return;
  put_u64le(cur_.data(), unacked_base_ + unacked_.size());
  put_u32le(cur_.data() + 8, static_cast<std::uint32_t>(cur_records_));
  unacked_.push_back(std::move(cur_));
  cur_.clear();
  cur_records_ = 0;
  ++frames_since_flush_;
}

util::Status Client::transmit(std::size_t index) {
  const auto& frame = unacked_[index];
  return write_frame(fd_, FrameType::kRecords, frame.data(), frame.size());
}

util::Status Client::send(std::span<const SensorRecord> recs) {
  if (dims_ == 0) return util::Status(util::StatusCode::kFailedPrecondition, "send before hello");
  for (const SensorRecord& rec : recs) {
    if (cur_.empty()) cur_.resize(kRecordsHeaderBytes);
    cur_.resize(cur_.size() + record_bytes_);
    encode_binary_record(cur_.data() + cur_.size() - record_bytes_, rec);
    if (++cur_records_ == cfg_.frame_records) {
      seal_current();
      // Transmit eagerly so the server overlaps ingest with our encoding;
      // acceptance is settled at the next barrier.
      if (const auto st = transmit(unacked_.size() - 1); !st.is_ok()) return st;
      ++send_cursor_;
      if (const auto st = drain_events(); !st.is_ok()) return st;
      if (!rewind_requested_ && frames_since_flush_ < cfg_.flush_every_frames) continue;
      if (const auto st = sync(); !st.is_ok()) return st;
    }
  }
  return util::Status::ok();
}

util::Status Client::flush() {
  if (dims_ == 0) return util::Status(util::StatusCode::kFailedPrecondition, "flush before hello");
  return sync();
}

util::Status Client::sync() {
  seal_current();
  double backoff = cfg_.retry_backoff_seconds;
  for (;;) {
    if (rewind_requested_) {
      // The server names the sequence to resend from; everything below it
      // was accepted and can be dropped.
      rewind_requested_ = false;
      ++rejected_frames_;
      while (!unacked_.empty() && unacked_base_ < rewind_seq_) {
        unacked_.pop_front();
        ++unacked_base_;
      }
      send_cursor_ = 0;  // retransmit every still-pending frame
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff = std::min(backoff * 2, 0.05);
      }
    }
    for (; send_cursor_ < unacked_.size(); ++send_cursor_) {
      if (const auto st = transmit(send_cursor_); !st.is_ok()) return st;
      if (const auto st = drain_events(); !st.is_ok()) return st;
      if (rewind_requested_) break;
    }
    if (rewind_requested_) continue;

    // Barrier: the ack arrives after the server classified every earlier
    // frame (TCP preserves our send order), so a clean ack means everything
    // pending was accepted.
    if (const auto st = write_frame(fd_, FrameType::kFlush, nullptr, 0); !st.is_ok()) return st;
    Frame f;
    if (const auto st = read_until(FrameType::kAck, f); !st.is_ok()) return st;
    AckBody body;
    if (const auto st = parse_ack(f.payload, body); !st.is_ok()) return st;
    if (body.code != util::StatusCode::kOk) return util::Status(body.code, body.message);
    if (rewind_requested_) continue;  // a reject raced ahead of the ack

    unacked_base_ += unacked_.size();  // sequence numbers keep counting up
    unacked_.clear();
    send_cursor_ = 0;
    frames_since_flush_ = 0;
    return util::Status::ok();
  }
}

util::Result<std::uint64_t> Client::stream_reader(TraceReader& reader, std::size_t skip_records) {
  if (skip_records > 0) reader.skip_records(skip_records);
  std::vector<SensorRecord> batch;
  std::uint64_t sent = 0;
  for (;;) {
    const std::size_t n = reader.read_batch(batch, TraceReader::kDefaultBatch);
    if (n == 0) break;
    if (const auto st = send(std::span<const SensorRecord>(batch.data(), n)); !st.is_ok()) {
      return st;
    }
    sent += n;
  }
  if (const auto st = reader.status(); !st.is_ok()) return st;
  if (const auto st = flush(); !st.is_ok()) return st;
  return sent;
}

util::Result<std::string> Client::report(bool finalize, bool fleet_scope) {
  if (dims_ != 0) {
    if (const auto st = sync(); !st.is_ok()) return st;
  }
  unsigned char payload[2] = {static_cast<unsigned char>(finalize ? 1 : 0),
                              static_cast<unsigned char>(fleet_scope ? 1 : 0)};
  if (const auto st = write_frame(fd_, FrameType::kReport, payload, sizeof payload);
      !st.is_ok()) {
    return st;
  }
  Frame f;
  if (const auto st = read_until(FrameType::kText, f); !st.is_ok()) return st;
  return std::string(reinterpret_cast<const char*>(f.payload.data()), f.payload.size());
}

util::Result<std::string> Client::metrics_json() {
  if (dims_ != 0) {
    if (const auto st = sync(); !st.is_ok()) return st;
  }
  if (const auto st = write_frame(fd_, FrameType::kMetrics, nullptr, 0); !st.is_ok()) return st;
  Frame f;
  if (const auto st = read_until(FrameType::kText, f); !st.is_ok()) return st;
  return std::string(reinterpret_cast<const char*>(f.payload.data()), f.payload.size());
}

util::Result<std::string> Client::health_text() {
  if (dims_ != 0) {
    if (const auto st = sync(); !st.is_ok()) return st;
  }
  if (const auto st = write_frame(fd_, FrameType::kHealth, nullptr, 0); !st.is_ok()) return st;
  Frame f;
  if (const auto st = read_until(FrameType::kText, f); !st.is_ok()) return st;
  return std::string(reinterpret_cast<const char*>(f.payload.data()), f.payload.size());
}

util::Status Client::checkpoint() {
  if (dims_ != 0) {
    if (const auto st = sync(); !st.is_ok()) return st;
  }
  if (const auto st = write_frame(fd_, FrameType::kCheckpoint, nullptr, 0); !st.is_ok()) {
    return st;
  }
  Frame f;
  if (const auto st = read_until(FrameType::kAck, f); !st.is_ok()) return st;
  AckBody body;
  if (const auto st = parse_ack(f.payload, body); !st.is_ok()) return st;
  if (body.code != util::StatusCode::kOk) return util::Status(body.code, body.message);
  return util::Status::ok();
}

util::Status Client::shutdown_server() {
  if (dims_ != 0) {
    if (const auto st = sync(); !st.is_ok()) return st;
  }
  if (const auto st = write_frame(fd_, FrameType::kShutdown, nullptr, 0); !st.is_ok()) return st;
  Frame f;
  if (const auto st = read_until(FrameType::kAck, f); !st.is_ok()) return st;
  AckBody body;
  if (const auto st = parse_ack(f.payload, body); !st.is_ok()) return st;
  if (body.code != util::StatusCode::kOk) return util::Status(body.code, body.message);
  return util::Status::ok();
}

}  // namespace sentinel::service
