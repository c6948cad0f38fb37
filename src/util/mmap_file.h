// Read-only memory-mapped file: the one byte source of the trace readers.
//
// The trace readers parse straight out of the mapping (zero-copy: no read()
// into a buffer, no per-line copies). open() refuses a path that exists and
// is not a regular file before opening it -- opening a FIFO with no writer
// blocks, and a pipe or a device cannot be mapped -- and throws when the
// file cannot be opened or mapped, so a MappedFile always holds the whole
// file. A zero-size regular file (an empty trace; a /proc file, which
// reports size 0) maps to an empty view.
//
// A reader that walks a mapping front to back releases what it has read
// (release_prefix), so a mapped trace keeps O(kReleaseStep) pages resident
// however large the file is.
//
// The mapping reads the file in place: a file truncated while it is mapped
// raises SIGBUS in the reader that touches a page past the new end. Trace
// files are written whole before they are read.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

namespace sentinel::util {

class MappedFile {
 public:
  /// Map `path` read-only. Throws std::runtime_error naming the path: "not a
  /// regular file" when it exists as anything else, and the strerror text
  /// when it cannot be opened, stat'd or mapped.
  static MappedFile open(const std::string& path);

  MappedFile(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::string_view view() const { return {static_cast<const char*>(data_), size_}; }
  std::size_t size() const { return size_; }
  /// The path open() mapped, for error messages.
  const std::string& path() const { return path_; }

  /// Smallest step release_prefix() takes.
  static constexpr std::size_t kReleaseStep = std::size_t{1} << 20;

  /// Drop from this process the pages wholly before byte `consumed` (the
  /// caller reads nothing before it again), once that is at least
  /// kReleaseStep bytes beyond the last release. The mapping is private and
  /// read-only, so touching a released page again refaults it from the
  /// file: this gives back memory, never data.
  void release_prefix(std::size_t consumed);

 private:
  MappedFile(std::string path, void* data, std::size_t size)
      : path_(std::move(path)), data_(data), size_(size) {}

  std::string path_;
  void* data_ = nullptr;  // nullptr for an empty file
  std::size_t size_ = 0;
  std::size_t released_ = 0;  // page-aligned prefix already dropped
};

}  // namespace sentinel::util
