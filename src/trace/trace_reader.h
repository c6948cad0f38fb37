// Streaming trace ingestion: readers that yield records in batches so a
// consumer (core/fleet.h's ingest, the CLI, benches) never materializes a
// whole trace -- memory stays bounded by the batch plus a fixed read-ahead,
// whatever the file size, which is what lets the collector tier keep up with
// continuous sensor streams (paper section 3.1's "on-the-fly" requirement)
// at file sizes that dwarf RAM.
//
// Both readers read a util::MappedFile, the one byte source for trace
// files, and release the mapped pages they have read
// (util::MappedFile::release_prefix), so a trace does not stay resident
// behind the reader:
//  - CsvTraceReader: decode-ahead CSV. It cuts the mapping into
//    line-aligned chunks and decodes a few chunks ahead on
//    util::ThreadPool::shared() -- and on the caller, rather than wait for
//    a worker -- straight into flat RecordBatch columns; read_batch copies
//    decoded records out. See the class comment for the threads, the
//    memory bound and the tally contract.
//  - BinaryTraceReader (trace/binary_trace.h): fixed-width records decoded
//    by offset; no parsing at all.
//
// open_trace_reader() maps the path once and picks the reader by the
// file's magic bytes, so callers never branch on file extension.

#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
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
  /// stream ended first. Binary readers seek in O(1).
  virtual std::size_t skip_records(std::size_t n) = 0;

  /// Terminal stream condition. Ok while records are flowing and after a
  /// clean end of stream; non-ok (and sticky) once the source fails
  /// mid-stream -- a truncated binary payload. Data-dependent failure is a
  /// *value*, never an exception, so one rotten feed cannot abort a fleet
  /// sharing the process (constructors still throw on caller misuse:
  /// missing file, structurally invalid header). A CSV source cannot fail
  /// mid-stream: a malformed line is tallied, not fatal.
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

/// Decode-ahead CSV reader over a mapped file. `expected_dims` as in
/// read_trace: 0 = fixed by the first line with at least three fields.
///
/// Decode. A chunk is parsed straight off the mapping in one pass:
/// parse_trace_record reads each record of the common shape and steps past
/// its newline, so such a line is read once. Only a line it declines -- a
/// comment, a blank, CRLF, padding, an exponent, more than 15 digits, a
/// malformed field, or any line before the width is known -- is found with
/// memchr and goes to parse_trace_line's general grammar. Records land in
/// the chunk's flat RecordBatch columns.
///
/// Threads. The input is cut, on the caller's thread, into line-aligned
/// chunks of about kChunkBytes (a chunk ends at the first newline at or
/// after kChunkBytes, so a longer line makes a longer chunk), and up to
/// kDepth chunks beyond the one being handed out decode on
/// util::ThreadPool::shared(). Whichever thread starts a chunk claims it
/// atomically; read_batch decodes a chunk no worker has started itself, so
/// it never waits on a queued task and still finishes when every pool
/// worker is busy or the pool has no worker thread (a 1-CPU quota reads
/// serially). When a worker is decoding the chunk it needs next, read_batch
/// decodes later chunks no worker has started before it waits, so the
/// caller works instead of sleeping. While the dimensionality is still
/// unknown, chunks decode serially on the caller. The constructor starts no
/// decode; the destructor claims every queued chunk and waits out running
/// ones before it unmaps.
/// One reader is used by one thread at a time.
///
/// Memory. kDepth + 1 chunks of decoded columns (recycled, so a warm reader
/// allocates nothing), plus the mapped pages from the oldest chunk still in
/// flight onward: the prefix behind it is released in
/// util::MappedFile::kReleaseStep steps.
///
/// Tallies. Each chunk records where among its records its comments and
/// malformed lines fell, and read_batch replays them at those positions, so
/// malformed() and comment_lines() after every call equal those of a serial
/// line-by-line read that stops right after its last record (test-enforced
/// against read_trace).
class CsvTraceReader final : public TraceReader {
 public:
  /// Target bytes per decode chunk.
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;
  /// Chunks decoding ahead of the one read_batch is handing out.
  static constexpr std::size_t kDepth = 3;

  explicit CsvTraceReader(util::MappedFile file, std::size_t expected_dims = 0);
  /// Maps `path` with util::MappedFile::open, which throws when it cannot.
  explicit CsvTraceReader(const std::string& path, std::size_t expected_dims = 0);
  ~CsvTraceReader() override;
  CsvTraceReader(const CsvTraceReader&) = delete;
  CsvTraceReader& operator=(const CsvTraceReader&) = delete;

  std::size_t read_batch(std::vector<SensorRecord>& out, std::size_t max_records) override;
  /// Advances through decoded chunks without copying records out.
  std::size_t skip_records(std::size_t n) override;
  const MalformedCounts& malformed() const override { return malformed_; }
  std::size_t comment_lines() const override { return comments_; }
  std::size_t dims() const override { return dims_; }

 private:
  struct Chunk;

  /// Hand out up to `max` records into `out` (nullptr: skip them).
  std::size_t take(std::vector<SensorRecord>* out, std::size_t max);
  /// The oldest chunk not yet handed out, decoded; nullptr at end of input.
  Chunk* head();
  /// Cut and start chunks until kDepth + 1 are live or the input ends.
  void top_up();
  /// Fill `c` with the next line-aligned bytes; false at end of input.
  bool cut(Chunk& c);

  util::MappedFile map_;
  std::size_t map_pos_ = 0;   // mapping offset of the next cut
  bool input_done_ = false;   // every byte has been cut into a chunk

  std::array<Chunk*, kDepth + 1> ring_{};  // co-owned with queued decode tasks
  std::size_t head_ = 0;                   // ring index of the oldest live chunk
  std::size_t live_ = 0;                   // chunks cut and not yet retired

  std::size_t dims_ = 0;
  MalformedCounts malformed_;
  std::size_t comments_ = 0;
};

/// Open a trace file for streaming: map it once (util::MappedFile::open)
/// and pick CSV or binary by its first bytes. Throws std::runtime_error if
/// the path exists but is not a regular file (a FIFO, a device, a
/// directory), if the file cannot be opened or mapped, or if a binary
/// header is corrupt.
std::unique_ptr<TraceReader> open_trace_reader(const std::string& path,
                                               std::size_t expected_dims = 0);

}  // namespace sentinel
