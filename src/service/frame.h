// Wire protocol of the resident fleet service ("SNTRS1"; docs/SERVICE.md).
//
// A connection carries a sequence of length-prefixed frames in each
// direction over localhost TCP:
//
//   offset 0  length  u32 LE   bytes that follow (type byte + payload)
//   offset 4  type    u8       FrameType
//   offset 5  payload length-1 bytes
//
// Client -> server:
//   kHello      u32 dims, region name (rest of payload). Binds the
//               connection to a region/tenant; replied with kAck whose
//               value is the number of records the region already covers
//               (0 fresh, the checkpoint offset after serve --resume, the
//               live records_ingested when rebinding an existing region) --
//               i.e. "stream your trace from this offset".
//   kRecords    u64 seq, u32 count, count * binary_trace_record_bytes(dims)
//               bytes of SNTRB1-encoded records (the exact on-disk record
//               payload; see trace/binary_trace.h). Accepted silently when
//               seq is the connection's next expected sequence number and
//               the region's shard has room; otherwise rejected with a
//               kEvent (admission control -- the client rewinds and
//               resends; docs/SERVICE.md#admission-control).
//   kFlush      empty. Sync barrier: replied with kAck (value = region's
//               records_ingested) only after every earlier kRecords frame
//               was accepted or rejected, so a client that saw no kEvent by
//               the time the ack arrives knows everything landed.
//   kReport     u8 final (0 = live snapshot via report_snapshot(), 1 =
//               finalize first), u8 scope (0 = bound region, 1 = whole
//               fleet). Replied with kText holding the report rendering.
//   kMetrics    empty; kText reply with the compact-JSON metrics export.
//   kHealth     empty; kText reply with per-region health lines.
//   kCheckpoint empty; commit a checkpoint for every region now (kAck).
//   kShutdown   empty; kAck, then the server ends its poll loop, drains
//               every shard, and commits a final checkpoint.
//
// Server -> client:
//   kAck        u8 status code, u64 value, message (rest). Reply to hello/
//               flush/checkpoint/shutdown, and the error reply to any
//               request that cannot be served.
//   kEvent      u8 status code, u64 value, message. Unsolicited stream
//               control: kResourceExhausted = shard full, value names the
//               seq to resend from; kFailedPrecondition = out-of-order seq,
//               value names the expected seq; any other code = the region's
//               health changed (value 0, message carries the status).
//   kText       reply payload for report/metrics/health requests.
//
// All integers little-endian. Frames are bounded by kMaxFrameBytes so a
// garbage length prefix cannot request an arbitrary allocation.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace sentinel::service {

enum class FrameType : unsigned char {
  kHello = 'H',
  kRecords = 'R',
  kFlush = 'F',
  kReport = 'P',
  kMetrics = 'M',
  kHealth = 'L',
  kCheckpoint = 'C',
  kShutdown = 'S',
  kAck = 'a',
  kEvent = 'e',
  kText = 'p',
};

/// Frame size cap: generous for record batches (a 64 Ki-record frame of
/// 16-dim records is ~8.5 MiB) while keeping a corrupt length prefix from
/// requesting an absurd allocation.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// kRecords payload header: u64 seq + u32 count, before the record bytes.
inline constexpr std::size_t kRecordsHeaderBytes = 12;
/// kAck / kEvent payload header: u8 code + u64 value, before the message.
inline constexpr std::size_t kAckHeaderBytes = 9;

inline void put_u32le(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
}

inline void put_u64le(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
}

inline std::uint32_t get_u32le(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t get_u64le(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// One decoded frame. The payload buffer is reused across read_frame calls.
struct Frame {
  FrameType type = FrameType::kAck;
  std::vector<unsigned char> payload;
};

/// Read one frame from `fd` (blocking). Non-ok on EOF (kUnavailable with an
/// empty message when the peer closed cleanly between frames), on a short
/// or failed read (kDataLoss), and on a length prefix of 0 or beyond
/// `max_bytes` (kInvalidArgument). `f.payload` is reused.
util::Status read_frame(int fd, Frame& f, std::size_t max_bytes = kMaxFrameBytes);

/// Decode the frame at the front of `data[0, len)` under the same length
/// rule as read_frame. Returns the frame's wire size, or 0 when more bytes
/// are needed or the length prefix is out of bounds (`st` kInvalidArgument;
/// ok otherwise). Never reads past `len`. `f.payload` is reused.
std::size_t decode_frame(const unsigned char* data, std::size_t len, Frame& f, util::Status& st,
                         std::size_t max_bytes = kMaxFrameBytes);

/// Write one frame to `fd` (blocking, SIGPIPE suppressed). Non-ok when the
/// peer is gone or the write fails; a failed or partial write (a send
/// timeout included) also shuts the socket down, since the stream can no
/// longer be framed.
util::Status write_frame(int fd, FrameType type, const unsigned char* payload, std::size_t len);
util::Status write_frame(int fd, FrameType type, const std::string& payload);

/// Encode/write the kAck / kEvent shapes (u8 code + u64 value + message).
util::Status write_ack(int fd, util::StatusCode code, std::uint64_t value,
                       const std::string& message = "");
util::Status write_event(int fd, util::StatusCode code, std::uint64_t value,
                         const std::string& message = "");

/// Decoded kAck / kEvent payload.
struct AckBody {
  util::StatusCode code = util::StatusCode::kOk;
  std::uint64_t value = 0;
  std::string message;
};

/// Parse a kAck / kEvent payload; non-ok on a short payload.
util::Status parse_ack(const std::vector<unsigned char>& payload, AckBody& body);

}  // namespace sentinel::service
