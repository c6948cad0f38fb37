// Streaming trace ingestion: readers that yield records in batches so a
// consumer (core/fleet.h's ingest, the CLI, benches) never materializes a
// whole trace -- peak memory is O(batch), which is what lets the collector
// tier keep up with continuous sensor streams (paper section 3.1's
// "on-the-fly" requirement) at file sizes that dwarf RAM.
//
// Implementations:
//  - CsvTraceReader: zero-copy CSV. Memory-maps the file (buffered-istream
//    fallback when mapping is unavailable), slices lines and fields as
//    string_views straight out of the mapping, parses numbers with
//    from_chars. No per-line or per-field allocation; the batch vector's
//    records keep their attr capacity across batches, so the steady-state
//    pump loop does not touch the allocator.
//  - BinaryTraceReader (trace/binary_trace.h): fixed-width records decoded
//    by offset; no parsing at all.
//
// open_trace_reader() auto-detects the format by magic bytes, so callers
// never branch on file extension.

#pragma once

#include <cstddef>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.h"
#include "trace/trace_io.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace sentinel {

class TraceReader {
 public:
  /// Default batch size for pump loops: large enough to amortize virtual
  /// dispatch and queue handoff, small enough to stay cache- and
  /// memory-friendly (~400 KiB of records at 2 attrs).
  static constexpr std::size_t kDefaultBatch = 4096;

  virtual ~TraceReader() = default;

  /// Fill `out` with up to `max_records` records, reusing its storage
  /// (records beyond the previous batch's size are value-constructed; attr
  /// vectors keep their capacity). Returns the number read, and out.size()
  /// equals it when it is > 0. 0 means end of stream -- clean or broken;
  /// check status() to tell which -- and leaves the contents of `out`
  /// unspecified, so callers test the return value, not `out`. Records
  /// arrive in file order.
  virtual std::size_t read_batch(std::vector<SensorRecord>& out, std::size_t max_records) = 0;

  /// Skip the next `n` records -- the resume path: a recovered fleet fast-
  /// forwards each region's trace to the record offset its checkpoint
  /// manifest names, then ingests the tail. Equivalent to reading and
  /// discarding `n` records (malformed/comment lines crossed while skipping
  /// are tallied as usual), so skip + read sees exactly the records a
  /// straight read would. Returns the count actually skipped; < n means the
  /// stream ended first. Binary readers seek in O(1) instead.
  virtual std::size_t skip_records(std::size_t n);

  /// Terminal stream condition. Ok while records are flowing and after a
  /// clean end of stream; non-ok (and sticky) once the source fails
  /// mid-stream -- a truncated binary payload, an I/O error. Data-dependent
  /// failure is a *value*, never an exception, so one rotten feed cannot
  /// abort a fleet sharing the process (constructors still throw on caller
  /// misuse: missing file, structurally invalid header).
  virtual util::Status status() const { return util::Status::ok(); }

  /// Malformed-line tally by cause (all zero for binary traces).
  virtual const MalformedCounts& malformed() const {
    static const MalformedCounts kNone;
    return kNone;
  }
  /// Lines counted as malformed so far (always 0 for binary traces).
  std::size_t malformed_lines() const { return malformed().total(); }
  /// Comment lines seen so far (always 0 for binary traces).
  virtual std::size_t comment_lines() const = 0;
  /// Attribute dimensionality; 0 until the first record has been read when
  /// the format does not declare it up front (CSV without expected_dims).
  virtual std::size_t dims() const = 0;
};

/// Zero-copy CSV reader. `expected_dims` as in read_trace: 0 = fixed by the
/// first record. Throws std::runtime_error if the file cannot be opened.
class CsvTraceReader final : public TraceReader {
 public:
  /// kAuto memory-maps when the platform allows and falls back to a
  /// buffered stream; kForceStream always takes the stream path. The two
  /// paths share parse_trace_line, so record sets and per-cause malformed
  /// counts are identical either way (test-enforced) -- kForceStream exists
  /// so that parity is provable on platforms where mmap succeeds.
  enum class Mode { kAuto, kForceStream };

  explicit CsvTraceReader(const std::string& path, std::size_t expected_dims = 0,
                          Mode mode = Mode::kAuto);

  std::size_t read_batch(std::vector<SensorRecord>& out, std::size_t max_records) override;
  util::Status status() const override { return status_; }
  const MalformedCounts& malformed() const override { return malformed_; }
  std::size_t comment_lines() const override { return comments_; }
  std::size_t dims() const override { return expected_dims_; }

  /// True when the file is memory-mapped (false = buffered-stream fallback).
  bool mapped() const { return map_.has_value(); }

 private:
  /// Next line as a view (without the trailing newline), or nullopt at end
  /// of stream. Stream mode: the view aliases the refill buffer and is valid
  /// until the next call.
  std::optional<std::string_view> next_line();
  bool refill();

  std::optional<util::MappedFile> map_;
  std::string_view rest_;  // unparsed remainder of the mapping

  std::ifstream in_;        // fallback stream
  std::vector<char> buf_;   // refill buffer; grows only for oversized lines
  std::size_t buf_pos_ = 0;
  std::size_t buf_end_ = 0;
  bool stream_eof_ = false;

  std::size_t expected_dims_ = 0;
  MalformedCounts malformed_;
  std::size_t comments_ = 0;
  util::Status status_;
  std::vector<std::string_view> fields_;  // per-line split scratch
};

/// Open a trace file for streaming, auto-detecting CSV vs binary by magic
/// bytes. Throws std::runtime_error if the file cannot be opened (or a
/// binary header is corrupt).
std::unique_ptr<TraceReader> open_trace_reader(const std::string& path,
                                               std::size_t expected_dims = 0);

}  // namespace sentinel
