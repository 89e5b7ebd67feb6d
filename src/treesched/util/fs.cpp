#include "treesched/util/fs.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "treesched/util/failpoint.hpp"

namespace treesched::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " '" + path +
                           "': " + std::strerror(errno));
}

/// fail() for an open descriptor: closes `fd` (and unlinks `tmp` when
/// given) without letting either clobber the errno being reported.
[[noreturn]] void fail_closing(int fd, const std::string& what,
                               const std::string& path,
                               const char* tmp = nullptr) {
  const int saved = errno;
  ::close(fd);
  if (tmp != nullptr) ::unlink(tmp);
  errno = saved;
  fail(what, path);
}

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
bool write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// A write seam's failpoint verdict: a loud failure at one stage, or a
/// silently corrupted payload (torn-write, bit-flip) — storage that lied
/// about durability, which only checking readers can catch.
struct WriteFault {
  bool enospc = false;
  bool fsync_fail = false;
  std::optional<std::string> payload;
};

WriteFault write_fault(const char* site, const std::string& payload) {
  WriteFault f;
  const auto hit = site != nullptr ? failpoint_hit(site) : std::nullopt;
  if (!hit) return f;
  switch (hit->kind) {
    case FailKind::kEnospc:
      f.enospc = true;
      break;
    case FailKind::kFsyncFail:
      f.fsync_fail = true;
      break;
    case FailKind::kTornWrite:
      f.payload = apply_torn(payload);
      break;
    case FailKind::kBitFlip:
      f.payload = apply_bit_flip(payload);
      break;
    case FailKind::kShortRead:
      break;  // a read fault has no meaning at a write seam
  }
  return f;
}

/// fsync the directory containing `path`, so the rename that just landed a
/// new directory entry survives power loss. rename(2) alone only orders the
/// entry in page cache; the metadata reaches disk when the DIRECTORY is
/// synced (fsync(2) NOTES).
void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) fail("cannot open parent directory of", path);
  if (::fsync(dfd) != 0)
    fail_closing(dfd, "fsync failed for parent directory of", path);
  ::close(dfd);
}

bool ends_with_marker(const std::string& text) {
  const std::size_t n = std::strlen(kTornMarker);
  return text.size() >= n &&
         text.compare(text.size() - n, n, kTornMarker) == 0;
}

}  // namespace

void write_file_atomic(const std::string& path, const std::string& content) {
  // Failpoint seam "fs.atomic", one evaluation per call.
  const WriteFault fault = write_fault("fs.atomic", content);
  const std::string& payload = fault.payload ? *fault.payload : content;

  // Same-directory temporary: rename() is only atomic within a filesystem,
  // and a pid suffix keeps concurrent writers off each other's temp file.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot create temporary file", tmp);

  if (fault.enospc) {
    errno = ENOSPC;
    fail_closing(fd, "write failed for", tmp, tmp.c_str());
  }
  if (!write_all(fd, payload))
    fail_closing(fd, "write failed for", tmp, tmp.c_str());
  if (fault.fsync_fail) {
    errno = EIO;
    fail_closing(fd, "fsync failed for", tmp, tmp.c_str());
  }
  if (::fsync(fd) != 0)
    fail_closing(fd, "fsync failed for", tmp, tmp.c_str());
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail("close failed for", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    fail("cannot rename temporary over", path);
  }
  // The rename landed; now make the new directory entry durable. On failure
  // the target file is already the new content (visible, just not yet
  // guaranteed on disk), so there is no temporary left to clean up.
  fsync_parent_dir(path);
}

void append_line_durable(const std::string& path, const std::string& line,
                         const char* failpoint_site) {
  if (line.find('\n') != std::string::npos)
    throw std::runtime_error("append_line_durable: record for '" + path +
                             "' contains a newline");
  if (ends_with_marker(line))
    throw std::runtime_error("append_line_durable: record for '" + path +
                             "' ends with the torn marker");
  // A torn-write keeps the first half of the record, never its newline: the
  // torn tail the next append must heal.
  std::string record = line + '\n';
  WriteFault fault = write_fault(failpoint_site, record);
  if (fault.enospc) {
    errno = ENOSPC;
    fail("append failed for", path);
  }
  if (fault.payload) record = std::move(*fault.payload);

  // O_RDWR, not O_WRONLY: the tail check below preads the last byte, which
  // a write-only descriptor refuses.
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) fail("cannot open for append", path);

  // Heal a torn tail from a previous crash: mark the fragment so readers
  // drop it, and end its line so the new record never concatenates onto it.
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) fail_closing(fd, "fstat failed for", path);
  char tail = '\n';
  if (st.st_size > 0 && ::pread(fd, &tail, 1, st.st_size - 1) == 1 &&
      tail != '\n')
    record = kTornMarker + ("\n" + record);

  // One write(2) for heal plus record: concurrent O_APPEND appenders never
  // interleave mid-record, and a crash tears at most this final line.
  if (!write_all(fd, record)) fail_closing(fd, "append failed for", path);
  if (fault.fsync_fail) {
    errno = EIO;
    fail_closing(fd, "fsync failed for", path);
  }
  if (::fsync(fd) != 0) fail_closing(fd, "fsync failed for", path);
  if (::close(fd) != 0) fail("close failed for", path);
}

std::optional<Journal> read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) fail("read failed for", path);
  const std::string bytes = buf.str();

  Journal j;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    ++line_no;
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) {  // unterminated last line: torn tail
      j.torn.push_back(bytes.substr(pos));
      break;
    }
    std::string text = bytes.substr(pos, nl - pos);
    pos = nl + 1;
    if (ends_with_marker(text)) {
      text.resize(text.size() - std::strlen(kTornMarker));
      j.torn.push_back(std::move(text));
    } else {
      j.records.push_back({line_no, std::move(text)});
    }
  }
  return j;
}

}  // namespace treesched::util
