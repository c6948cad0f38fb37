#include "trace/binary_trace.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace sentinel {

namespace {

// Dimensionality sanity bound: wide enough for any real mote payload,
// narrow enough that a corrupt header cannot request a huge allocation.
constexpr std::size_t kMaxDims = 4096;

void put_u32le(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
}

void put_u64le(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32le(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64le(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void put_f64le(unsigned char* p, double v) { put_u64le(p, std::bit_cast<std::uint64_t>(v)); }

double get_f64le(const unsigned char* p) { return std::bit_cast<double>(get_u64le(p)); }

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw std::runtime_error("binary trace: " + path + ": " + what);
}

}  // namespace

void encode_binary_record(unsigned char* p, const SensorRecord& rec) {
  put_u32le(p, rec.sensor);
  put_f64le(p + 4, rec.time);
  for (std::size_t i = 0; i < rec.attrs.size(); ++i) put_f64le(p + 12 + 8 * i, rec.attrs[i]);
}

void decode_binary_record(const unsigned char* p, std::size_t dims, SensorRecord& rec) {
  rec.sensor = get_u32le(p);
  rec.time = get_f64le(p + 4);
  rec.attrs.resize(dims);
  for (std::size_t i = 0; i < dims; ++i) rec.attrs[i] = get_f64le(p + 12 + 8 * i);
}

// ---------------------------------------------------------------------------
// BinaryTraceWriter

BinaryTraceWriter::BinaryTraceWriter(const std::string& path, std::size_t dims)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc), dims_(dims) {
  if (!out_) throw std::runtime_error("binary trace: cannot create " + path);
  if (dims_ > 0) write_header();
}

BinaryTraceWriter::~BinaryTraceWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an unclosed/failed file is detected on
    // read via the count/size consistency check.
  }
}

void BinaryTraceWriter::write_header() {
  if (dims_ == 0 || dims_ > kMaxDims) {
    throw std::runtime_error("binary trace: " + path_ + ": invalid dims " +
                             std::to_string(dims_));
  }
  unsigned char header[kBinaryTraceHeaderBytes] = {};
  std::memcpy(header, kBinaryTraceMagic, sizeof kBinaryTraceMagic);
  put_u32le(header + 8, static_cast<std::uint32_t>(dims_));
  put_u32le(header + 12, static_cast<std::uint32_t>(binary_trace_record_bytes(dims_)));
  put_u64le(header + 16, 0);  // count, backpatched in close()
  out_.write(reinterpret_cast<const char*>(header), sizeof header);
  if (!out_) throw std::runtime_error("binary trace: write failed for " + path_);
  header_written_ = true;
  scratch_.resize(binary_trace_record_bytes(dims_));
}

void BinaryTraceWriter::append(const SensorRecord& rec) {
  if (closed_) throw std::runtime_error("binary trace: append after close: " + path_);
  if (!header_written_) {
    dims_ = rec.attrs.size();
    write_header();
  }
  if (rec.attrs.size() != dims_) {
    throw std::runtime_error("binary trace: " + path_ + ": record has " +
                             std::to_string(rec.attrs.size()) + " attrs, trace has " +
                             std::to_string(dims_));
  }
  auto* p = reinterpret_cast<unsigned char*>(scratch_.data());
  encode_binary_record(p, rec);
  out_.write(scratch_.data(), static_cast<std::streamsize>(scratch_.size()));
  if (!out_) throw std::runtime_error("binary trace: write failed for " + path_);
  ++count_;
}

void BinaryTraceWriter::append(const std::vector<SensorRecord>& records) {
  for (const auto& rec : records) append(rec);
}

void BinaryTraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  if (!header_written_) {
    // Empty trace with unknown dims: header with dims = 1, count = 0, so the
    // file is still a valid (empty) trace rather than zero bytes.
    dims_ = 1;
    write_header();
  }
  unsigned char le[8];
  put_u64le(le, count_);
  out_.seekp(16);
  out_.write(reinterpret_cast<const char*>(le), sizeof le);
  out_.flush();
  if (!out_) throw std::runtime_error("binary trace: write failed for " + path_);
  out_.close();
}

void write_trace_binary_file(const std::string& path, const std::vector<SensorRecord>& records) {
  BinaryTraceWriter w(path);
  w.append(records);
  w.close();
}

// ---------------------------------------------------------------------------
// BinaryTraceReader

BinaryTraceReader::BinaryTraceReader(util::MappedFile file, std::size_t expected_dims)
    : map_(std::move(file)) {
  const std::string& path = map_.path();
  if (map_.size() < kBinaryTraceHeaderBytes) corrupt(path, "truncated header");
  const auto* header = reinterpret_cast<const unsigned char*>(map_.view().data());
  if (std::memcmp(header, kBinaryTraceMagic, sizeof kBinaryTraceMagic) != 0) {
    corrupt(path, "bad magic (not an SNTRB1 trace)");
  }
  dims_ = get_u32le(header + 8);
  record_bytes_ = get_u32le(header + 12);
  count_ = get_u64le(header + 16);
  if (dims_ == 0 || dims_ > kMaxDims) corrupt(path, "invalid dims " + std::to_string(dims_));
  // record_bytes may exceed the v1 layout (a future writer appending fields);
  // it may never be smaller, or records would overlap the fields we decode.
  if (record_bytes_ < binary_trace_record_bytes(dims_)) {
    corrupt(path, "record size " + std::to_string(record_bytes_) + " too small for " +
                      std::to_string(dims_) + " dims");
  }
  if (expected_dims != 0 && dims_ != expected_dims) {
    corrupt(path, "has " + std::to_string(dims_) + " attribute dims, expected " +
                      std::to_string(expected_dims));
  }
  // Truncation is deferred, not thrown: serve the complete records, then
  // surface the shortfall through status(). The consumer (fleet ingest)
  // quarantines the feed; the partial prefix is still usable for forensics.
  avail_ = std::min<std::uint64_t>(count_, (map_.size() - kBinaryTraceHeaderBytes) / record_bytes_);
}

BinaryTraceReader::BinaryTraceReader(const std::string& path, std::size_t expected_dims)
    : BinaryTraceReader(util::MappedFile::open(path), expected_dims) {}

std::size_t BinaryTraceReader::advance(std::size_t n) {
  next_ += n;
  if (next_ == avail_ && avail_ < count_ && status_.is_ok()) {
    status_ = util::Status(
        util::StatusCode::kDataLoss,
        "binary trace: truncated: header promises " + std::to_string(count_) +
            " records, file holds " + std::to_string(avail_));
  }
  return n;
}

std::size_t BinaryTraceReader::skip_records(std::size_t n) {
  // Skipping exactly to the torn edge of a truncated file surfaces the same
  // sticky status a straight read would.
  return advance(static_cast<std::size_t>(std::min<std::uint64_t>(avail_ - next_, n)));
}

std::size_t BinaryTraceReader::read_batch(std::vector<SensorRecord>& out,
                                          std::size_t max_records) {
  const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(avail_ - next_, max_records));
  out.resize(n);
  const std::size_t begin = kBinaryTraceHeaderBytes + next_ * record_bytes_;
  const auto* base = reinterpret_cast<const unsigned char*>(map_.view().data()) + begin;
  for (std::size_t i = 0; i < n; ++i) decode_binary_record(base + i * record_bytes_, dims_, out[i]);
  map_.release_prefix(begin + n * record_bytes_);
  return advance(n);
}

}  // namespace sentinel
