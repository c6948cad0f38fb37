// Versioned, length-prefixed binary trace format ("SNTRB1").
//
// Layout (all integers little-endian):
//   offset 0   magic       8 bytes   {0xB7,'S','N','T','R','B','1','\n'}
//   offset 8   dims        u32       attribute dimensionality n (>= 1)
//   offset 12  record_bytes u32      4 + 8 + 8*dims -- lets old readers skip
//                                    records of a newer, wider layout
//   offset 16  count       u64       number of records that follow
//   offset 24  records     count * record_bytes
//
// Each record: u32 sensor id, f64 time, f64 x_1..x_n (IEEE-754 bit patterns,
// so NaN/inf/subnormals round-trip exactly -- CSV cannot promise that).
// The writer backpatches `count` on close, so a truncated file is detected
// as corrupt rather than silently short.
//
// Rationale: the collector tier re-reads traces constantly (replay,
// re-training, benchmarking); fixed-width records decode by offset with no
// text parsing, and the reader hands out batches through the same
// TraceReader interface as CSV, so downstream is format-oblivious.

#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/record.h"
#include "trace/trace_reader.h"
#include "util/mmap_file.h"

namespace sentinel {

inline constexpr unsigned char kBinaryTraceMagic[8] = {0xB7, 'S', 'N', 'T', 'R', 'B', '1', '\n'};
inline constexpr std::size_t kBinaryTraceHeaderBytes = 24;

/// Bytes per record for a given dimensionality.
constexpr std::size_t binary_trace_record_bytes(std::size_t dims) {
  return 4 + 8 + 8 * dims;
}

/// Encode one record into `p` (binary_trace_record_bytes(rec.attrs.size())
/// writable bytes) / decode one record of `dims` attributes from `p`. The
/// SNTRB1 record payload is also the service wire format (src/service), so
/// the file writer/reader and the network frame codec share these -- a
/// record streamed over a socket is bit-identical to the same record read
/// from a file.
void encode_binary_record(unsigned char* p, const SensorRecord& rec);
void decode_binary_record(const unsigned char* p, std::size_t dims, SensorRecord& rec);

/// Streaming writer. Records must all share one dimensionality, fixed by the
/// first append (or by passing dims > 0 up front). close() (or the
/// destructor) backpatches the record count into the header; a file that was
/// never closed cleanly fails validation on read.
class BinaryTraceWriter {
 public:
  /// Throws std::runtime_error if the file cannot be created.
  explicit BinaryTraceWriter(const std::string& path, std::size_t dims = 0);
  ~BinaryTraceWriter();

  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  /// Throws std::runtime_error on dimensionality mismatch or write failure.
  void append(const SensorRecord& rec);
  void append(const std::vector<SensorRecord>& records);

  /// Flush, backpatch the header's record count, and close. Idempotent.
  /// Throws std::runtime_error on write failure.
  void close();

  std::size_t written() const { return count_; }

 private:
  void write_header();

  std::string path_;
  std::ofstream out_;
  std::size_t dims_ = 0;
  std::uint64_t count_ = 0;
  bool header_written_ = false;
  bool closed_ = false;
  std::vector<char> scratch_;  // one encoded record
};

/// Convenience: write a whole trace to `path` in one call.
void write_trace_binary_file(const std::string& path, const std::vector<SensorRecord>& records);

/// Batch reader for SNTRB1 files over a mapped file, same interface as
/// CsvTraceReader. Mapped pages behind the records handed out are released
/// as the reader goes (util::MappedFile::release_prefix). Structural header
/// problems (wrong magic, impossible dims/record_bytes, dims mismatch)
/// throw std::runtime_error from the constructor with a message naming the
/// file and the defect -- such a file was never a readable trace. A
/// *truncated* file (header promises more records than the bytes hold: a
/// writer crash, a partial upload) is data loss, not misuse: the reader
/// serves every complete record, then ends the stream with a non-fatal
/// status() so the consumer can count, attribute, and keep its other feeds
/// alive.
class BinaryTraceReader final : public TraceReader {
 public:
  /// `expected_dims` = 0 accepts the file's dimensionality; nonzero must
  /// match or the constructor throws.
  explicit BinaryTraceReader(util::MappedFile file, std::size_t expected_dims = 0);
  /// Maps `path` with util::MappedFile::open, which throws when it cannot.
  explicit BinaryTraceReader(const std::string& path, std::size_t expected_dims = 0);

  std::size_t read_batch(std::vector<SensorRecord>& out, std::size_t max_records) override;
  /// O(1): fixed-width records make the resume offset a seek, not a scan.
  std::size_t skip_records(std::size_t n) override;
  util::Status status() const override { return status_; }
  std::size_t comment_lines() const override { return 0; }
  std::size_t dims() const override { return dims_; }

  /// Records the header promises (>= the count actually readable when the
  /// file is truncated).
  std::size_t total_records() const { return count_; }

 private:
  /// Hand out the next `n` (<= avail_ - next_) records; reaching the torn
  /// edge of a truncated file sets the sticky data-loss status.
  std::size_t advance(std::size_t n);

  util::MappedFile map_;
  std::size_t dims_ = 0;
  std::size_t record_bytes_ = 0;
  std::uint64_t count_ = 0;  // header's promise
  std::uint64_t avail_ = 0;  // records the file actually holds (<= count_)
  std::uint64_t next_ = 0;   // index of the next record to hand out
  util::Status status_;
};

}  // namespace sentinel
