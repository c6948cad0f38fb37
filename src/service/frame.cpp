#include "service/frame.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>

#include "trace/binary_trace.h"

namespace sentinel::service {

namespace {

/// Read exactly `len` bytes; false with `*eof = true` when the connection
/// ended cleanly before the first byte.
bool read_exact(int fd, unsigned char* buf, std::size_t len, bool* eof) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, buf + got, len - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (eof != nullptr) *eof = (n == 0 && got == 0);
    return false;
  }
  return true;
}

bool write_all(int fd, const unsigned char* buf, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a vanished peer is a Status, not a SIGPIPE.
    const ssize_t n = ::send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// The one length-prefix rule: a frame holds at least its type byte and at
/// most `max_bytes`.
util::Status check_length(std::uint32_t len, std::size_t max_bytes) {
  if (len == 0 || len > max_bytes) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        "service: frame length " + std::to_string(len) + " out of bounds");
  }
  return util::Status::ok();
}

}  // namespace

util::Status read_frame(int fd, Frame& f, std::size_t max_bytes) {
  unsigned char len_le[4];
  bool eof = false;
  if (!read_exact(fd, len_le, sizeof len_le, &eof)) {
    if (eof) return util::Status(util::StatusCode::kUnavailable, "");
    return util::Status(util::StatusCode::kDataLoss, "service: short frame header");
  }
  const std::uint32_t len = get_u32le(len_le);
  if (auto st = check_length(len, max_bytes); !st.is_ok()) return st;
  unsigned char type = 0;
  if (!read_exact(fd, &type, 1, nullptr)) {
    return util::Status(util::StatusCode::kDataLoss, "service: truncated frame");
  }
  f.type = static_cast<FrameType>(type);
  f.payload.resize(len - 1);
  if (len > 1 && !read_exact(fd, f.payload.data(), f.payload.size(), nullptr)) {
    return util::Status(util::StatusCode::kDataLoss, "service: truncated frame");
  }
  return util::Status::ok();
}

std::size_t decode_frame(const unsigned char* data, std::size_t len, Frame& f, util::Status& st,
                         std::size_t max_bytes) {
  st = util::Status::ok();
  if (len < 4) return 0;
  const std::uint32_t n = get_u32le(data);
  st = check_length(n, max_bytes);
  if (!st.is_ok() || len - 4 < n) return 0;
  f.type = static_cast<FrameType>(data[4]);
  f.payload.assign(data + 5, data + 4 + n);
  return 4 + std::size_t{n};
}

util::Status write_frame(int fd, FrameType type, const unsigned char* payload, std::size_t len) {
  unsigned char header[5];
  put_u32le(header, static_cast<std::uint32_t>(len + 1));
  header[4] = static_cast<unsigned char>(type);
  if (!write_all(fd, header, sizeof header) || (len > 0 && !write_all(fd, payload, len))) {
    const std::string err = std::strerror(errno);
    ::shutdown(fd, SHUT_RDWR);
    return util::Status(util::StatusCode::kUnavailable, "service: write failed: " + err);
  }
  return util::Status::ok();
}

util::Status write_frame(int fd, FrameType type, const std::string& payload) {
  return write_frame(fd, type, reinterpret_cast<const unsigned char*>(payload.data()),
                     payload.size());
}

namespace {

util::Status write_ack_shaped(int fd, FrameType type, util::StatusCode code,
                              std::uint64_t value, const std::string& message) {
  std::vector<unsigned char> payload(kAckHeaderBytes + message.size());
  payload[0] = static_cast<unsigned char>(code);
  put_u64le(payload.data() + 1, value);
  std::memcpy(payload.data() + kAckHeaderBytes, message.data(), message.size());
  return write_frame(fd, type, payload.data(), payload.size());
}

}  // namespace

util::Status write_ack(int fd, util::StatusCode code, std::uint64_t value,
                       const std::string& message) {
  return write_ack_shaped(fd, FrameType::kAck, code, value, message);
}

util::Status write_event(int fd, util::StatusCode code, std::uint64_t value,
                         const std::string& message) {
  return write_ack_shaped(fd, FrameType::kEvent, code, value, message);
}

util::Status parse_ack(const std::vector<unsigned char>& payload, AckBody& body) {
  if (payload.size() < kAckHeaderBytes) {
    return util::Status(util::StatusCode::kDataLoss, "service: short ack payload");
  }
  body.code = static_cast<util::StatusCode>(payload[0]);
  body.value = get_u64le(payload.data() + 1);
  body.message.assign(reinterpret_cast<const char*>(payload.data()) + kAckHeaderBytes,
                      payload.size() - kAckHeaderBytes);
  return util::Status::ok();
}

std::span<const SensorRecord> decode_records(const unsigned char* records, std::size_t count,
                                             std::size_t dims, std::vector<SensorRecord>& buf) {
  if (buf.size() < count) buf.resize(count);
  const std::size_t record_bytes = binary_trace_record_bytes(dims);
  for (std::size_t i = 0; i < count; ++i) {
    decode_binary_record(records + i * record_bytes, dims, buf[i]);
  }
  return {buf.data(), count};
}

}  // namespace sentinel::service
