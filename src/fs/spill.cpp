#include "fs/spill.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/bytes.h"
#include "common/strings.h"
#include "fs/bucket.h"
#include "fs/file_io.h"
#include "http/message.h"
#include "obs/metrics.h"
#include "ser/record.h"

namespace mrs {

namespace {

obs::Counter* RunsWritten() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.spill.runs_written");
  return c;
}

obs::Counter* BytesSpilled() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.spill.bytes_spilled");
  return c;
}

obs::Counter* FilesCreated() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.spill.files_created");
  return c;
}

obs::Counter* RunsRead() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.spill.runs_read");
  return c;
}

}  // namespace

void MemoryBudget::Charge(int64_t bytes) {
  if (bytes <= 0) return;
  int64_t now = usage_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t hw = high_water_.load(std::memory_order_relaxed);
  while (now > hw && !high_water_.compare_exchange_weak(
                         hw, now, std::memory_order_relaxed)) {
  }
  if (is_process_) {
    static obs::Gauge* usage =
        obs::Registry::Instance().GetGauge("mrs.spill.budget_usage");
    static obs::Gauge* high =
        obs::Registry::Instance().GetGauge("mrs.spill.budget_high_water");
    usage->Set(static_cast<double>(now));
    high->Set(static_cast<double>(high_water_.load(std::memory_order_relaxed)));
  }
}

void MemoryBudget::Release(int64_t bytes) {
  if (bytes <= 0) return;
  int64_t now = usage_.fetch_sub(bytes, std::memory_order_relaxed) - bytes;
  if (is_process_) {
    static obs::Gauge* usage =
        obs::Registry::Instance().GetGauge("mrs.spill.budget_usage");
    usage->Set(static_cast<double>(now));
  }
}

void MemoryBudget::ResetForTest() {
  usage_.store(0, std::memory_order_relaxed);
  high_water_.store(0, std::memory_order_relaxed);
}

MemoryBudget& MemoryBudget::Process() {
  static MemoryBudget* budget = [] {
    auto* b = new MemoryBudget();
    b->is_process_ = true;
    if (const char* env = std::getenv("MRS_MEMORY_BUDGET")) {
      Result<int64_t> parsed = ParseByteSize(env);
      if (parsed.ok()) b->set_limit(*parsed);
    }
    return b;
  }();
  return *budget;
}

Result<int64_t> ParseByteSize(const std::string& text) {
  if (text.empty()) return int64_t{0};
  size_t i = 0;
  bool neg = false;
  if (text[0] == '-') {
    neg = true;
    i = 1;
  }
  int64_t v = 0;
  size_t digits = 0;
  for (; i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]));
       ++i, ++digits) {
    v = v * 10 + (text[i] - '0');
  }
  if (digits == 0) {
    return InvalidArgumentError("invalid byte size: '" + text + "'");
  }
  int64_t mult = 1;
  if (i < text.size()) {
    switch (std::tolower(static_cast<unsigned char>(text[i]))) {
      case 'k': mult = int64_t{1} << 10; ++i; break;
      case 'm': mult = int64_t{1} << 20; ++i; break;
      case 'g': mult = int64_t{1} << 30; ++i; break;
      default:
        return InvalidArgumentError("invalid byte-size suffix in '" + text +
                                    "'");
    }
    // Optional trailing B / iB ("64MB", "64MiB").
    if (i < text.size() &&
        std::tolower(static_cast<unsigned char>(text[i])) == 'i') {
      ++i;
    }
    if (i < text.size() &&
        std::tolower(static_cast<unsigned char>(text[i])) == 'b') {
      ++i;
    }
  }
  if (i != text.size()) {
    return InvalidArgumentError("invalid byte-size suffix in '" + text + "'");
  }
  return neg ? -v * mult : v * mult;
}

namespace {

std::string RunName(const SpillRun& run) {
  return "spill run " + run.path + "@" + std::to_string(run.offset);
}

/// Write all of `data` at `offset`.
Status WriteAt(int fd, const std::string& path, uint64_t offset,
               std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::pwrite(fd, data.data() + written, data.size() - written,
                         static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoErrorFromErrno("write " + path, errno);
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

SpillFile::~SpillFile() {
  if (fd_ < 0) return;
  ::close(fd_);
  if (!keep_) ::unlink(path_.c_str());
}

Result<SpillRun> SpillFile::Append(const std::string& id,
                                   const std::vector<KeyValue>& records,
                                   bool sorted) {
  std::string payload = EncodeBinaryRecords(records);
  MRS_ASSIGN_OR_RETURN(
      SpillRun run,
      AppendEncoded(id, payload, ContentChecksum(payload), sorted));
  run.records = records.size();
  return run;
}

Result<SpillRun> SpillFile::AppendEncoded(const std::string& id,
                                          std::string_view payload,
                                          const std::string& checksum,
                                          bool sorted) {
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0) return IoErrorFromErrno("create " + path_, errno);
    FilesCreated()->Inc();
  }
  // The frame set EncodeBucketFrames would produce for this one frame,
  // written as header + payload so the payload is never copied.
  Bytes header;
  ByteWriter w(&header);
  w.PutRaw(kBucketFramesFormat.data(), kBucketFramesFormat.size());
  w.PutVarint(1);
  w.PutLengthPrefixed(id);
  w.PutLengthPrefixed(checksum);
  w.PutVarint(payload.size());
  std::string_view head(reinterpret_cast<const char*>(header.data()),
                        header.size());
  // A failed append leaves size_ where it was, so the next run overwrites
  // the partial frame.
  MRS_RETURN_IF_ERROR(WriteAt(fd_, path_, size_, head));
  MRS_RETURN_IF_ERROR(WriteAt(fd_, path_, size_ + head.size(), payload));

  SpillRun run;
  run.path = path_;
  run.offset = size_;
  run.length = head.size() + payload.size();
  run.id = id;
  run.checksum = checksum;
  run.bytes = payload.size();
  run.sorted = sorted;
  size_ += run.length;
  // Record count from the payload header ("mrsb1\n" magic + varint), so
  // callers staging already-encoded frames keep meaningful metrics.
  if (payload.size() > kBinaryRecordMagic.size()) {
    ByteReader r(payload.substr(kBinaryRecordMagic.size()));
    Result<uint64_t> n = r.GetVarint();
    if (n.ok()) run.records = *n;
  }
  RunsWritten()->Inc();
  BytesSpilled()->Inc(static_cast<int64_t>(payload.size()));
  return run;
}

Result<SpillRun> WriteEncodedSpillRun(const std::string& path,
                                      const std::string& id,
                                      std::string_view payload,
                                      const std::string& checksum,
                                      bool sorted) {
  SpillFile file(path);
  MRS_ASSIGN_OR_RETURN(SpillRun run,
                       file.AppendEncoded(id, payload, checksum, sorted));
  file.Keep();
  return run;
}

Result<SpillRun> WriteSpillRun(const std::string& path, const std::string& id,
                               const std::vector<KeyValue>& records,
                               bool sorted) {
  SpillFile file(path);
  MRS_ASSIGN_OR_RETURN(SpillRun run, file.Append(id, records, sorted));
  file.Keep();
  return run;
}

Result<std::string> ReadSpillRunBytes(const SpillRun& run) {
  int fd = ::open(run.path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return NotFoundError(RunName(run) + " missing");
    return IoErrorFromErrno("open " + run.path, errno);
  }
  std::string raw(run.length, '\0');
  Result<size_t> got = ReadAt(fd, run.offset, raw.data(), raw.size());
  ::close(fd);
  if (!got.ok()) return got.status();
  if (*got < raw.size()) {
    return DataLossError(RunName(run) + ": range runs past the end of the "
                         "file (" + std::to_string(*got) + " of " +
                         std::to_string(raw.size()) + " bytes)");
  }
  return raw;
}

Result<std::vector<KeyValue>> ReadSpillRun(const SpillRun& run) {
  MRS_ASSIGN_OR_RETURN(BucketFrame frame, ReadSpillRunFrame(run));
  if (!run.checksum.empty() && frame.checksum != run.checksum) {
    return DataLossError(RunName(run) +
                         ": frame checksum does not match run metadata "
                         "(wrong or swapped file)");
  }
  if (!ChecksumMatches(frame.data, frame.checksum)) {
    return DataLossError(RunName(run) + ": payload checksum mismatch");
  }
  Result<std::vector<KeyValue>> records = DecodeBinaryRecords(frame.data);
  if (!records.ok()) {
    return DataLossError(RunName(run) + ": " + records.status().message());
  }
  RunsRead()->Inc();
  return records;
}

void RemoveSpillRun(const SpillRun& run) {
  if (!run.path.empty()) std::remove(run.path.c_str());
}

namespace {

constexpr std::string_view kSpillRootPrefix = "mrs_spill_";
constexpr std::string_view kSpillRootLock = ".lock";

/// Lock `root` for the rest of the process's life: its lock file is made
/// and locked under a temporary name, then renamed into place, so a sweep
/// never finds an unlocked lock file in a live root.  The descriptor is
/// never closed; the lock goes when the process does, however it ends.  A
/// root left unlocked (this failed) is only never swept.
void LockSpillRoot(const std::string& root) {
  const std::string made = JoinPath(root, ".lock.tmp");
  int fd = ::open(made.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
  if (fd < 0) return;
  if (::flock(fd, LOCK_EX) != 0 ||
      ::rename(made.c_str(), JoinPath(root, kSpillRootLock).c_str()) != 0) {
    ::close(fd);
  }
}

}  // namespace

void RemoveDeadSpillRoots(const std::string& parent) {
  std::vector<std::string> roots;
  if (DIR* dir = ::opendir(parent.c_str())) {
    while (dirent* entry = ::readdir(dir)) {
      if (StartsWith(entry->d_name, kSpillRootPrefix)) {
        roots.push_back(JoinPath(parent, entry->d_name));
      }
    }
    ::closedir(dir);
  }
  for (const std::string& root : roots) {
    // Only a real directory of this user's: never follow a link out of
    // a shared temp directory.
    struct stat st{};
    if (::lstat(root.c_str(), &st) != 0 || !S_ISDIR(st.st_mode) ||
        st.st_uid != ::geteuid()) {
      continue;
    }
    const std::string lock = JoinPath(root, kSpillRootLock);
    int fd = ::open(lock.c_str(), O_RDONLY | O_NOFOLLOW | O_CLOEXEC);
    if (fd < 0) continue;  // no lock file: not a root this code made
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0) RemoveTree(root);
    ::close(fd);
  }
}

Result<std::string> SpillRoot() {
  static std::mutex mu;
  static std::string root;      // guarded by mu
  static Status root_status;    // guarded by mu
  std::lock_guard<std::mutex> lock(mu);
  if (root.empty() && root_status.ok()) {
    Result<std::string> made = MakeTempDir(std::string(kSpillRootPrefix));
    if (made.ok()) {
      root = *made;
      LockSpillRoot(root);
      // The roots of processes that ended without their atexit (a
      // SIGKILLed slave) hold no lock any more; this one holds its own.
      RemoveDeadSpillRoots(DirName(root));
      std::atexit([] { RemoveTree(root); });
    } else {
      root_status = made.status();
    }
  }
  if (!root_status.ok()) return root_status;
  return root;
}

Result<std::string> NewSpillFilePath(const std::string& label,
                                     const std::string& parent) {
  std::string root = parent;
  if (root.empty()) {
    MRS_ASSIGN_OR_RETURN(root, SpillRoot());
  }
  static std::atomic<uint64_t> seq{0};
  return JoinPath(root,
                  label + "_" + std::to_string(seq.fetch_add(1)) + ".mrsk");
}

}  // namespace mrs
