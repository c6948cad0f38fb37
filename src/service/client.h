// Client side of the resident fleet service (SNTRS1; service/frame.h).
//
// The streaming contract mirrors the server's admission control: records
// are encoded into sequence-numbered kRecords frames that stay buffered
// client-side until a kFlush barrier acknowledges them. The server may
// reject a frame asynchronously (shard full, out-of-order) with a kEvent
// naming the sequence number to resend from; the client rewinds its buffer
// and retransmits, so a tenant's records reach the region's pipeline
// exactly once and in send order no matter how often it was bounced --
// which is what keeps a served report byte-identical to a batch run of the
// same trace (test-enforced).
//
// Single-threaded: one Client per connection, all calls from one thread.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "service/frame.h"
#include "trace/record.h"
#include "util/status.h"

namespace sentinel {
class TraceReader;
}

namespace sentinel::service {

struct ClientConfig {
  /// Server port on 127.0.0.1 (the service never leaves loopback).
  std::uint16_t port = 0;
  /// Records per kRecords frame. Larger frames amortize syscalls and framing
  /// but hold more memory per unacknowledged frame.
  std::size_t frame_records = 4096;
  /// Sync-barrier cadence: after this many sealed frames a flush() runs
  /// automatically, which is what bounds the resend buffer (at most
  /// flush_every_frames * frame_records records are ever buffered).
  std::size_t flush_every_frames = 32;
  /// Initial wait before retransmitting after a shard-full rejection;
  /// doubles per consecutive rejection up to ~50 ms.
  double retry_backoff_seconds = 0.0005;
};

class Client {
 public:
  /// Connects to 127.0.0.1:cfg.port; throws std::runtime_error on failure.
  explicit Client(ClientConfig cfg);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Bind this connection to `region` with `dims`-attribute records. The
  /// returned value is the record offset to stream from (0 for a fresh
  /// region; the covered count when the server resumed it from a checkpoint
  /// or the region is already live).
  util::Result<std::uint64_t> hello(const std::string& region, std::size_t dims);

  /// Append records to the stream. Encodes into frames, transmits, and runs
  /// the automatic flush cadence; a non-ok status means the connection is
  /// unusable (server gone), not that records were rejected -- rejections
  /// are retried internally.
  util::Status send(std::span<const SensorRecord> recs);

  /// Sync barrier: returns ok only once every frame sent so far has been
  /// accepted into the region (resending through rejections as needed).
  util::Status flush();

  /// Pump `reader` dry through send()/flush(). `skip_records` fast-forwards
  /// past records the server already covers (the hello() return). Returns
  /// the number of records streamed.
  util::Result<std::uint64_t> stream_reader(TraceReader& reader, std::size_t skip_records = 0);

  /// REPORT request: the rendered report text. `finalize` closes partial
  /// windows first (end of stream); `fleet_scope` selects the whole-fleet
  /// rendering over the bound region's. Implies flush().
  util::Result<std::string> report(bool finalize, bool fleet_scope);

  /// METRICS / HEALTH requests (flush() first so the numbers cover
  /// everything sent).
  util::Result<std::string> metrics_json();
  util::Result<std::string> health_text();

  /// Ask the server to commit a checkpoint for every region now.
  util::Status checkpoint();

  /// Ask the server to drain, commit a final checkpoint, and exit.
  util::Status shutdown_server();

  /// Unsolicited health events the server pushed (region degraded or
  /// quarantined mid-stream).
  const std::vector<AckBody>& health_events() const { return health_events_; }

  /// Frames the server bounced with shard-full (admission control) that the
  /// client retransmitted. Observability for tests and the bench.
  std::uint64_t rejected_frames() const { return rejected_frames_; }

 private:
  /// Seal the partial frame (if any) into the unacknowledged queue.
  void seal_current();
  /// Transmit unacknowledged frames from the send cursor, then run the kFlush
  /// barrier, rewinding and resending until the stream is clean.
  util::Status sync();
  /// Fold one kEvent into rewind/health state.
  void process_event(const AckBody& body);
  /// Drain any already-arrived frames without blocking (only kEvents can
  /// arrive unsolicited).
  util::Status drain_events();
  /// Read frames (blocking) until one of `type` arrives; events on the way
  /// are processed.
  util::Status read_until(FrameType type, Frame& f);
  util::Status transmit(std::size_t index);

  ClientConfig cfg_;
  int fd_ = -1;
  std::size_t dims_ = 0;
  std::size_t record_bytes_ = 0;

  /// Sealed, not-yet-barrier-acknowledged frames; frame i carries sequence
  /// number unacked_base_ + i.
  std::deque<std::vector<unsigned char>> unacked_;
  std::uint64_t unacked_base_ = 0;
  std::size_t send_cursor_ = 0;  // next unacked_ index to transmit
  std::size_t frames_since_flush_ = 0;

  /// Partial frame under construction (12-byte header + records so far).
  std::vector<unsigned char> cur_;
  std::size_t cur_records_ = 0;

  bool rewind_requested_ = false;
  std::uint64_t rewind_seq_ = 0;
  std::uint64_t rejected_frames_ = 0;
  std::vector<AckBody> health_events_;

  Frame scratch_;
};

}  // namespace sentinel::service
