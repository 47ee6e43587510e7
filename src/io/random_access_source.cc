#include "io/random_access_source.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace alp::io {
namespace {

Status OutOfRange(uint64_t offset, size_t len, uint64_t size) {
  return Status::Truncated("read past end of source (" +
                               std::to_string(len) + " bytes at " +
                               std::to_string(offset) + ", size " +
                               std::to_string(size) + ")",
                           offset);
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Io(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

Status MemorySource::ReadAt(uint64_t offset, size_t len, uint8_t* out) const {
  if (offset > size_ || len > size_ - offset) {
    return OutOfRange(offset, len, size_);
  }
  std::memcpy(out, data_ + offset, len);
  return Status::Ok();
}

StatusOr<std::shared_ptr<PreadSource>> PreadSource::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = ErrnoStatus("fstat", path);
    ::close(fd);
    return s;
  }
  return std::shared_ptr<PreadSource>(new PreadSource(
      fd, static_cast<uint64_t>(st.st_size), "pread:" + path));
}

PreadSource::~PreadSource() {
  if (fd_ >= 0) ::close(fd_);
}

Status PreadSource::ReadAt(uint64_t offset, size_t len, uint8_t* out) const {
  if (offset > size_ || len > size_ - offset) {
    return OutOfRange(offset, len, size_);
  }
  size_t done = 0;
  while (done < len) {
    const ssize_t got = ::pread(fd_, out + done, len - done,
                                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", name_);
    }
    if (got == 0) return OutOfRange(offset, len, size_);  // File shrank.
    done += static_cast<size_t>(got);
  }
  return Status::Ok();
}

}  // namespace alp::io
