// FrameReader: adapts one kRecords frame's payload to the batch TraceReader
// interface, which is what lets the fused decode -> window -> screen
// columnar ingest path run unchanged on network input -- the server feeds
// each accepted frame through FleetMonitor::ingest exactly like a file, so
// the per-region report bytes cannot depend on whether records arrived over
// a socket or from an SNTRB1 trace on disk (test-enforced).
//
// The reader borrows the frame buffer (no copy); reset() repoints it at the
// next frame. Records decode through trace/binary_trace.h's shared record
// codec, so a record is bit-identical to its on-disk form.

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "trace/binary_trace.h"
#include "trace/trace_reader.h"

namespace sentinel::service {

class FrameReader final : public TraceReader {
 public:
  /// `dims` is fixed at HELLO time for the connection's lifetime.
  explicit FrameReader(std::size_t dims)
      : dims_(dims), record_bytes_(binary_trace_record_bytes(dims)) {}

  /// Point the reader at `count` encoded records starting at `records`
  /// (count * binary_trace_record_bytes(dims) valid bytes). The buffer must
  /// outlive the pump loop draining this reader.
  void reset(const unsigned char* records, std::size_t count) {
    base_ = records;
    count_ = count;
    next_ = 0;
  }

  std::size_t read_batch(std::vector<SensorRecord>& out, std::size_t max_records) override {
    const std::size_t n = std::min(max_records, count_ - next_);
    // End of frame: leave `out` alone. Shrinking it would free every
    // record's attribute storage, which the next frame decodes into.
    if (n == 0) return 0;
    if (out.size() < n) out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      decode_binary_record(base_ + (next_ + i) * record_bytes_, dims_, out[i]);
    }
    next_ += n;
    out.resize(n);
    return n;
  }

  std::size_t comment_lines() const override { return 0; }
  std::size_t dims() const override { return dims_; }
  std::size_t record_bytes() const { return record_bytes_; }

 private:
  std::size_t dims_;
  std::size_t record_bytes_;
  const unsigned char* base_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;
};

}  // namespace sentinel::service
