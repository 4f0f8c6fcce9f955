#include "fs/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mrs {

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return NotFoundError("no such file: " + path);
    return IoErrorFromErrno("open " + path, errno);
  }
  std::string out;
  char buf[1 << 16];
  while (true) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return IoErrorFromErrno("read " + path, err);
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Result<size_t> ReadAt(int fd, uint64_t offset, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::pread(fd, buf + got, n - got,
                        static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return IoErrorFromErrno("pread", errno);
    }
    if (r == 0) break;
    got += static_cast<size_t>(r);
  }
  return got;
}

namespace {
bool (*g_write_atomic_fault_hook)(const char* step) = nullptr;

/// True when the durability step should proceed; an injected fault makes
/// the step fail exactly where a crash/IO error would.
bool AtomicStepOk(const char* step) {
  return g_write_atomic_fault_hook == nullptr || g_write_atomic_fault_hook(step);
}
}  // namespace

void SetWriteFileAtomicFaultHook(bool (*hook)(const char* step)) {
  g_write_atomic_fault_hook = hook;
}

Status WriteFileAtomic(const std::string& path, std::string_view content) {
  std::string tmp = path + ".tmp.XXXXXX";
  int fd = ::mkstemp(tmp.data());
  if (fd < 0) return IoErrorFromErrno("mkstemp for " + path, errno);
  size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return IoErrorFromErrno("write " + tmp, err);
    }
    written += static_cast<size_t>(n);
  }
  // Flush the temp file's bytes to stable storage *before* rename makes
  // them reachable under `path`: without this, a crash shortly after the
  // rename can leave a zero-length or partial file at the final name —
  // the one outcome "atomic" write exists to prevent.
  int err = 0;
  if (!AtomicStepOk("fsync")) {
    err = EIO;
  } else if (::fsync(fd) < 0) {
    err = errno;
  }
  if (err != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return IoErrorFromErrno("fsync " + tmp, err);
  }
  if (::close(fd) < 0) {
    ::unlink(tmp.c_str());
    return IoErrorFromErrno("close " + tmp, errno);
  }
  if (!AtomicStepOk("rename")) {
    ::unlink(tmp.c_str());
    return IoErrorFromErrno("rename to " + path, EIO);
  }
  if (::rename(tmp.c_str(), path.c_str()) < 0) {
    int err2 = errno;
    ::unlink(tmp.c_str());
    return IoErrorFromErrno("rename to " + path, err2);
  }
  // Persist the rename itself: the directory entry lives in the parent
  // directory's data, which has its own cache to flush.
  std::string dir = DirName(path);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return IoErrorFromErrno("open dir " + dir, errno);
  err = 0;
  if (!AtomicStepOk("dirsync")) {
    err = EIO;
  } else if (::fsync(dfd) < 0) {
    err = errno;
  }
  ::close(dfd);
  if (err != 0) return IoErrorFromErrno("fsync dir " + dir, err);
  return Status::Ok();
}

namespace {
/// Open `path` for writing with `mode` (O_APPEND or O_TRUNC), creating it,
/// and write all of `content`.
Status WriteOpened(const std::string& path, int mode,
                   std::string_view content) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC | mode, 0644);
  if (fd < 0) return IoErrorFromErrno("open " + path, errno);
  size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return IoErrorFromErrno("write " + path, err);
    }
    written += static_cast<size_t>(n);
  }
  ::close(fd);
  return Status::Ok();
}
}  // namespace

Status WriteFile(const std::string& path, std::string_view content) {
  return WriteOpened(path, O_TRUNC, content);
}

Status AppendToFile(const std::string& path, std::string_view content) {
  return WriteOpened(path, O_APPEND, content);
}

Status EnsureDir(const std::string& path) {
  if (path.empty()) return InvalidArgumentError("empty directory path");
  std::string partial;
  size_t i = 0;
  if (path[0] == '/') partial = "/";
  while (i < path.size()) {
    size_t next = path.find('/', i);
    std::string component = (next == std::string::npos)
                                ? path.substr(i)
                                : path.substr(i, next - i);
    if (!component.empty()) {
      if (!partial.empty() && partial.back() != '/') partial += '/';
      partial += component;
      if (::mkdir(partial.c_str(), 0755) < 0 && errno != EEXIST) {
        return IoErrorFromErrno("mkdir " + partial, errno);
      }
    }
    if (next == std::string::npos) break;
    i = next + 1;
  }
  return Status::Ok();
}

void RemoveTree(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    ::unlink(path.c_str());
    return;
  }
  while (dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    std::string child = JoinPath(path, name);
    struct stat st{};
    if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveTree(child);
    } else {
      ::unlink(child.c_str());
    }
  }
  ::closedir(dir);
  ::rmdir(path.c_str());
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

bool IsDirectory(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) < 0) {
    return IoErrorFromErrno("stat " + path, errno);
  }
  return static_cast<uint64_t>(st.st_size);
}

namespace {
Status ListFilesInto(const std::string& root, std::vector<std::string>* out) {
  DIR* dir = ::opendir(root.c_str());
  if (dir == nullptr) return IoErrorFromErrno("opendir " + root, errno);
  std::vector<std::string> subdirs;
  while (dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    std::string child = JoinPath(root, name);
    struct stat st{};
    if (::lstat(child.c_str(), &st) < 0) continue;
    if (S_ISDIR(st.st_mode)) {
      subdirs.push_back(child);
    } else if (S_ISREG(st.st_mode)) {
      out->push_back(child);
    }
  }
  ::closedir(dir);
  for (const std::string& sub : subdirs) {
    MRS_RETURN_IF_ERROR(ListFilesInto(sub, out));
  }
  return Status::Ok();
}
}  // namespace

Result<std::vector<std::string>> ListFilesRecursive(const std::string& root) {
  std::vector<std::string> out;
  MRS_RETURN_IF_ERROR(ListFilesInto(root, &out));
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::string> MakeTempDir(const std::string& prefix) {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = JoinPath(base != nullptr ? base : "/tmp", prefix + "XXXXXX");
  if (::mkdtemp(tmpl.data()) == nullptr) {
    return IoErrorFromErrno("mkdtemp " + tmpl, errno);
  }
  return tmpl;
}

std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string JoinPath(std::string_view a, std::string_view b) {
  if (a.empty()) return std::string(b);
  if (b.empty()) return std::string(a);
  std::string out(a);
  if (out.back() != '/') out += '/';
  out += b;
  return out;
}

}  // namespace mrs
