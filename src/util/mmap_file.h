// Read-only memory-mapped file.
//
// The trace readers parse straight out of the mapping (zero-copy: no read()
// into a buffer, no per-line copies). Platforms or files where mmap is
// unavailable (non-POSIX builds, pipes, /proc files reporting zero size)
// return nullopt from map() and callers fall back to buffered stream reads,
// so mapping is always an optimization, never a requirement.
//
// A reader that walks a mapping front to back releases what it has read
// (release_prefix), so a mapped trace keeps O(kReleaseStep) pages resident
// however large the file is.

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace sentinel::util {

class MappedFile {
 public:
  /// Map `path` read-only. nullopt when the file cannot be opened or mapped;
  /// an empty regular file maps successfully to an empty view.
  static std::optional<MappedFile> map(const std::string& path);

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::string_view view() const { return {static_cast<const char*>(data_), size_}; }
  std::size_t size() const { return size_; }

  /// Smallest step release_prefix() takes.
  static constexpr std::size_t kReleaseStep = std::size_t{1} << 20;

  /// Drop from this process the pages wholly before byte `consumed` (the
  /// caller reads nothing before it again), once that is at least
  /// kReleaseStep bytes beyond the last release. The mapping is private and
  /// read-only, so touching a released page again refaults it from the
  /// file: this gives back memory, never data.
  void release_prefix(std::size_t consumed);

 private:
  MappedFile(void* data, std::size_t size) : data_(data), size_(size) {}

  void* data_ = nullptr;  // nullptr for an empty file
  std::size_t size_ = 0;
  std::size_t released_ = 0;  // page-aligned prefix already dropped
};

}  // namespace sentinel::util
