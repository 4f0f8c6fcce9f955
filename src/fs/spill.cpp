#include "fs/spill.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/bytes.h"
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

Result<SpillRun> WriteEncodedSpillRun(const std::string& path,
                                      const std::string& id,
                                      std::string_view payload,
                                      const std::string& checksum,
                                      bool sorted) {
  BucketFrame frame;
  frame.id = id;
  frame.checksum = checksum;
  frame.data = std::string(payload);
  MRS_RETURN_IF_ERROR(WriteFileAtomic(path, EncodeBucketFrames({frame})));
  SpillRun run;
  run.path = path;
  run.id = id;
  run.checksum = checksum;
  run.bytes = payload.size();
  run.sorted = sorted;
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

Result<SpillRun> WriteSpillRun(const std::string& path, const std::string& id,
                               const std::vector<KeyValue>& records,
                               bool sorted) {
  std::string payload = EncodeBinaryRecords(records);
  MRS_ASSIGN_OR_RETURN(
      SpillRun run,
      WriteEncodedSpillRun(path, id, payload, ContentChecksum(payload),
                           sorted));
  run.records = records.size();
  return run;
}

Result<std::vector<KeyValue>> ReadSpillRun(const SpillRun& run) {
  MRS_ASSIGN_OR_RETURN(std::string raw, ReadFileToString(run.path));
  Result<std::vector<BucketFrame>> frames = DecodeBucketFrames(raw);
  if (!frames.ok()) {
    return DataLossError("spill run " + run.path + ": " +
                         frames.status().message());
  }
  if (frames->size() != 1) {
    return DataLossError("spill run " + run.path + ": expected 1 frame, got " +
                         std::to_string(frames->size()));
  }
  BucketFrame& frame = (*frames)[0];
  if (!run.checksum.empty() && frame.checksum != run.checksum) {
    return DataLossError("spill run " + run.path +
                         ": frame checksum does not match run metadata "
                         "(wrong or swapped file)");
  }
  Result<std::vector<KeyValue>> records = DecodeBinaryRecords(frame.data);
  if (!records.ok()) {
    return DataLossError("spill run " + run.path + ": " +
                         records.status().message());
  }
  RunsRead()->Inc();
  return records;
}

void RemoveSpillRun(const SpillRun& run) {
  if (!run.path.empty()) std::remove(run.path.c_str());
}

Result<std::string> SpillRoot() {
  static std::mutex mu;
  static std::string root;      // guarded by mu
  static Status root_status;    // guarded by mu
  std::lock_guard<std::mutex> lock(mu);
  if (root.empty() && root_status.ok()) {
    Result<std::string> made = MakeTempDir("mrs_spill_");
    if (made.ok()) {
      root = *made;
      std::atexit([] { RemoveTree(root); });
    } else {
      root_status = made.status();
    }
  }
  if (!root_status.ok()) return root_status;
  return root;
}

Result<std::string> NewSpillDir(const std::string& label,
                                const std::string& parent) {
  std::string root = parent;
  if (root.empty()) {
    MRS_ASSIGN_OR_RETURN(root, SpillRoot());
  }
  static std::atomic<uint64_t> seq{0};
  std::string dir = JoinPath(
      root, label + "_" + std::to_string(seq.fetch_add(1)));
  MRS_RETURN_IF_ERROR(EnsureDir(dir));
  return dir;
}

}  // namespace mrs
