#include "util/mmap_file.h"

#include <algorithm>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define SENTINEL_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace sentinel::util {

std::optional<MappedFile> MappedFile::map(const std::string& path) {
#if SENTINEL_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::nullopt;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return std::nullopt;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return MappedFile(nullptr, 0);
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (data == MAP_FAILED) return std::nullopt;
  return MappedFile(data, size);
#else
  (void)path;
  return std::nullopt;
#endif
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      released_(std::exchange(other.released_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    released_ = std::exchange(other.released_, 0);
  }
  return *this;
}

void MappedFile::release_prefix(std::size_t consumed) {
#if SENTINEL_HAVE_MMAP
  if (data_ == nullptr || consumed < released_ + kReleaseStep) return;
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t end = std::min(consumed, size_) / page * page;
  // Advisory: on failure the pages simply stay resident.
  (void)::madvise(static_cast<char*>(data_) + released_, end - released_, MADV_DONTNEED);
  released_ = end;
#else
  (void)consumed;
#endif
}

MappedFile::~MappedFile() {
#if SENTINEL_HAVE_MMAP
  if (data_ != nullptr) ::munmap(data_, size_);
#endif
  data_ = nullptr;
  size_ = 0;
  released_ = 0;
}

}  // namespace sentinel::util
