// SNTRS1 frame decoding (service/frame.h): decode_frame, which the server's
// poll loop runs over each connection's receive buffer, against read_frame,
// which the blocking client runs over a socket. Both apply one length rule,
// so they must yield the same frames and fail the same way on any bytes.
// The mutation sweep is a seeded fuzz over valid frame streams; CI runs it
// under ASan, where a read past the decoded buffer fails the test.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "service/frame.h"
#include "trace/binary_trace.h"

namespace sentinel {
namespace {

using service::Frame;
using service::FrameType;
using Bytes = std::vector<unsigned char>;

void append_frame(Bytes& out, FrameType type, const Bytes& payload) {
  unsigned char header[5];
  service::put_u32le(header, static_cast<std::uint32_t>(payload.size() + 1));
  header[4] = static_cast<unsigned char>(type);
  out.insert(out.end(), header, header + sizeof header);
  out.insert(out.end(), payload.begin(), payload.end());
}

Bytes records_payload(std::uint64_t seq, std::uint32_t count) {
  const std::size_t rb = binary_trace_record_bytes(2);
  Bytes p(service::kRecordsHeaderBytes + count * rb);
  service::put_u64le(p.data(), seq);
  service::put_u32le(p.data() + 8, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    encode_binary_record(p.data() + service::kRecordsHeaderBytes + i * rb,
                         SensorRecord{i % 10, 60.0 * i, AttrVec{20.0 + i, 50.0 - i}});
  }
  return p;
}

/// HELLO, RECORDS frames of several sizes, FLUSH, and an unknown type byte
/// with an empty payload, back to back (~2.3 KiB).
Bytes mixed_stream() {
  Bytes hello(4);
  service::put_u32le(hello.data(), 2);
  hello.insert(hello.end(), {'n', 'o', 'r', 't', 'h'});
  Bytes s;
  append_frame(s, FrameType::kHello, hello);
  append_frame(s, FrameType::kRecords, records_payload(0, 1));
  append_frame(s, FrameType::kRecords, records_payload(1, 7));
  append_frame(s, FrameType::kFlush, {});
  append_frame(s, FrameType::kRecords, records_payload(2, 64));
  append_frame(s, static_cast<FrameType>(0x7F), {});
  append_frame(s, FrameType::kRecords, records_payload(3, 3));
  return s;
}

/// What one decoder made of a byte stream: the frames, the status that
/// ended it, and whether bytes were left over (a truncated last frame).
struct Decoded {
  std::vector<Frame> frames;
  util::Status status;
  bool leftover = false;
};

void expect_same(const Decoded& got, const Decoded& want) {
  ASSERT_EQ(got.frames.size(), want.frames.size());
  for (std::size_t i = 0; i < want.frames.size(); ++i) {
    EXPECT_EQ(got.frames[i].type, want.frames[i].type) << "frame " << i;
    EXPECT_EQ(got.frames[i].payload, want.frames[i].payload) << "frame " << i;
  }
  EXPECT_EQ(got.status.code(), want.status.code());
  EXPECT_EQ(got.leftover, want.leftover);
}

/// read_frame over a socketpair carrying `bytes` then EOF. A clean EOF
/// between frames is the ok outcome; EOF inside a frame is leftover bytes.
Decoded read_all(const Bytes& bytes, std::size_t max_bytes) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Every stream here is far below a socketpair's buffer, so one write
  // lands whole before the reader starts.
  EXPECT_EQ(::write(sv[0], bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
  ::shutdown(sv[0], SHUT_WR);
  Decoded out;
  Frame f;
  while ((out.status = service::read_frame(sv[1], f, max_bytes)).is_ok()) out.frames.push_back(f);
  if (out.status.code() == util::StatusCode::kUnavailable) {
    out.status = util::Status::ok();
  } else if (out.status.code() == util::StatusCode::kDataLoss) {
    out.status = util::Status::ok();
    out.leftover = true;
  }
  ::close(sv[0]);
  ::close(sv[1]);
  return out;
}

/// decode_frame over `bytes` arriving in two pieces cut at `split`, buffered
/// as the server buffers a connection: append a piece, decode every
/// complete frame, keep the rest for the next piece.
Decoded decode_split(const Bytes& bytes, std::size_t split, std::size_t max_bytes) {
  Decoded out;
  Bytes buf;
  for (const auto& [from, to] :
       {std::pair{std::size_t{0}, split}, std::pair{split, bytes.size()}}) {
    buf.insert(buf.end(), bytes.begin() + static_cast<std::ptrdiff_t>(from),
               bytes.begin() + static_cast<std::ptrdiff_t>(to));
    std::size_t used = 0;
    Frame f;
    while (const std::size_t n = service::decode_frame(buf.data() + used, buf.size() - used, f,
                                                       out.status, max_bytes)) {
      used += n;
      out.frames.push_back(f);
    }
    if (!out.status.is_ok()) return out;
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(used));
  }
  out.leftover = !buf.empty();
  return out;
}

/// decode_frame over an allocation of exactly `bytes.size()` bytes, so a
/// read past the end is a heap overflow under ASan.
Decoded decode_exact(const Bytes& bytes, std::size_t max_bytes) {
  const std::unique_ptr<unsigned char[]> exact(new unsigned char[bytes.size()]);
  std::copy(bytes.begin(), bytes.end(), exact.get());
  Decoded out;
  std::size_t used = 0;
  Frame f;
  while (const std::size_t n = service::decode_frame(exact.get() + used, bytes.size() - used, f,
                                                     out.status, max_bytes)) {
    EXPECT_EQ(n, 5 + f.payload.size());
    EXPECT_LE(n, bytes.size() - used);
    used += n;
    out.frames.push_back(f);
  }
  out.leftover = out.status.is_ok() && used < bytes.size();
  return out;
}

TEST(ServiceFraming, DecoderYieldsReadFrameFramesAtEverySplit) {
  const Bytes stream = mixed_stream();
  const Decoded want = read_all(stream, service::kMaxFrameBytes);
  ASSERT_TRUE(want.status.is_ok());
  ASSERT_FALSE(want.leftover);
  ASSERT_EQ(want.frames.size(), 7u);
  EXPECT_EQ(want.frames[5].type, static_cast<FrameType>(0x7F));
  EXPECT_TRUE(want.frames[5].payload.empty());
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    SCOPED_TRACE("split " + std::to_string(split));
    expect_same(decode_split(stream, split, service::kMaxFrameBytes), want);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(ServiceFraming, ZeroAndOverCapLengthPrefixesAreInvalid) {
  for (const std::uint32_t len :
       {std::uint32_t{0}, static_cast<std::uint32_t>(service::kMaxFrameBytes + 1), ~0u}) {
    SCOPED_TRACE("length " + std::to_string(len));
    Bytes bytes(5 + 8, 0);
    service::put_u32le(bytes.data(), len);
    bytes[4] = static_cast<unsigned char>(FrameType::kFlush);
    Frame f;
    util::Status st;
    // The length prefix alone is enough to reject the frame.
    EXPECT_EQ(service::decode_frame(bytes.data(), 4, f, st), 0u);
    EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(service::decode_frame(bytes.data(), bytes.size(), f, st), 0u);
    EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(read_all(bytes, service::kMaxFrameBytes).status.code(),
              util::StatusCode::kInvalidArgument);
  }
  // The cap itself is a legal length: the decoder waits for the payload.
  Bytes header(5, 0);
  service::put_u32le(header.data(), static_cast<std::uint32_t>(service::kMaxFrameBytes));
  Frame f;
  util::Status st;
  EXPECT_EQ(service::decode_frame(header.data(), header.size(), f, st), 0u);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
}

TEST(ServiceFraming, MutationSweepNeverReadsPastTheBuffer) {
  // Byte flips, truncations and extensions of the mixed stream. A small cap
  // makes flipped length prefixes hit the over-cap rule often and keeps
  // read_frame's payload allocations small.
  constexpr std::size_t kCap = 4096;
  const Bytes base = mixed_stream();
  std::mt19937 rng(20261017);
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  for (int i = 0; i < 3000; ++i) {
    Bytes bytes = base;
    switch (i % 3) {
      case 0:  // flip 1-3 bytes
        for (std::size_t k = 0, n = 1 + pick(3); k < n; ++k) {
          bytes[pick(bytes.size())] ^= static_cast<unsigned char>(1 + pick(255));
        }
        break;
      case 1:  // truncate
        bytes.resize(pick(bytes.size()));
        break;
      default:  // extend with random bytes
        for (std::size_t k = 0, n = 1 + pick(16); k < n; ++k) {
          bytes.push_back(static_cast<unsigned char>(pick(256)));
        }
        break;
    }
    SCOPED_TRACE("case " + std::to_string(i));
    const Decoded got = decode_exact(bytes, kCap);
    expect_same(got, read_all(bytes, kCap));
    EXPECT_TRUE(got.status.is_ok() || got.status.code() == util::StatusCode::kInvalidArgument)
        << got.status.to_string();
    if (testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace sentinel
