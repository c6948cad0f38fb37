#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace sentinel::util {

namespace {

[[noreturn]] void fail(const char* what, const std::string& path, int err) {
  throw std::runtime_error(std::string(what) + " " + path + ": " + std::strerror(err));
}

}  // namespace

MappedFile MappedFile::open(const std::string& path) {
  // stat before open: opening a FIFO with no writer blocks.
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    throw std::runtime_error("not a regular file: " + path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("cannot open", path, errno);
  const char* failed = nullptr;
  void* data = nullptr;
  if (::fstat(fd, &st) != 0) {
    failed = "cannot stat";
  } else if (st.st_size > 0) {
    data = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) failed = "cannot map";
  }
  const int err = errno;
  ::close(fd);  // the mapping keeps its own reference
  if (failed != nullptr) fail(failed, path, err);
  return MappedFile(path, data, static_cast<std::size_t>(st.st_size));
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : path_(std::move(other.path_)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      released_(std::exchange(other.released_, 0)) {}

void MappedFile::release_prefix(std::size_t consumed) {
  if (data_ == nullptr || consumed < released_ + kReleaseStep) return;
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t end = std::min(consumed, size_) / page * page;
  // Advisory: on failure the pages simply stay resident.
  (void)::madvise(static_cast<char*>(data_) + released_, end - released_, MADV_DONTNEED);
  released_ = end;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

}  // namespace sentinel::util
