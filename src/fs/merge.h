// K-way external merge over sorted record sources (loser tree).
//
// The read side of the out-of-core tier (fs/spill.h): a reduce task whose
// input spilled as sorted runs never materializes the full input — it
// pulls one record at a time from a LoserTreeMerger over one source per
// run (streamed from disk) plus one per still-in-memory bucket.  Ties are
// broken by source index, so merging per-source sorted streams reproduces
// byte-for-byte the sequence SortRecords (ser/record.h), like a
// std::stable_sort, would produce over their concatenation in source
// order — the property the equivalence matrix pins down.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "fs/spill.h"
#include "ser/value.h"

namespace mrs {

/// A stream of records, pulled one at a time.
class MergeSource {
 public:
  virtual ~MergeSource() = default;
  /// Fill *out with the next record and return true; false, with *out
  /// untouched, when the source is exhausted.  Errors (kDataLoss,
  /// kNotFound) abort the merge and may leave *out half written.
  virtual Result<bool> Next(KeyValue* out) = 0;
};

/// In-memory records.  The caller is responsible for ordering (a merger
/// requires every source sorted by (key, value)).
class VectorSource : public MergeSource {
 public:
  explicit VectorSource(std::vector<KeyValue> records)
      : records_(std::move(records)) {}
  Result<bool> Next(KeyValue* out) override {
    if (pos_ >= records_.size()) return false;
    *out = std::move(records_[pos_++]);
    return true;
  }

 private:
  std::vector<KeyValue> records_;
  size_t pos_ = 0;
};

/// A spill file's read-only descriptor, opened by the first read through
/// it and closed with its last reader (fs/merge.cpp).
class SpillFileHandle;

/// Streams a spill run from disk in fixed-size chunks — memory stays
/// O(buffer + one record) regardless of run size.  The first Next() opens
/// the run's file, parses the frame header at the run's offset, and
/// verifies the payload checksum with one streaming pass over the run's
/// byte range *before* any record is emitted, so a bit-flip anywhere in
/// the run surfaces as kDataLoss up front — never as silently corrupted
/// records.  Bytes outside the range (other runs of the same file) are
/// never read.  A missing file is kNotFound; truncation, a range past the
/// end of the file, or a malformed record is kDataLoss.
class SpillRunSource : public MergeSource {
 public:
  /// Reads `run` through a descriptor of its own.
  explicit SpillRunSource(SpillRun run, size_t buffer_bytes = 64 * 1024);
  /// Reads `run` through `file`, a handle on `run.path` that other
  /// sources may share (see SharedSpillFiles).
  SpillRunSource(SpillRun run, std::shared_ptr<SpillFileHandle> file,
                 size_t buffer_bytes = 64 * 1024);

  SpillRunSource(const SpillRunSource&) = delete;
  SpillRunSource& operator=(const SpillRunSource&) = delete;

  Result<bool> Next(KeyValue* out) override;

 private:
  Status Open();
  Status Corrupt(const std::string& what) const;
  /// Drop the decoded prefix of window_ and append up to buffer_bytes_
  /// more payload bytes.
  Status Refill();

  SpillRun run_;
  std::shared_ptr<SpillFileHandle> file_;
  size_t buffer_bytes_;
  int fd_ = -1;  // file_'s descriptor, once open
  bool opened_ = false;
  Status open_status_;
  uint64_t records_left_ = 0;
  uint64_t read_offset_ = 0;   // file offset of the next payload byte
  uint64_t payload_left_ = 0;  // payload bytes not yet read into window_
  std::string window_;         // payload bytes read from the file
  size_t cursor_ = 0;          // window_ bytes before this are decoded
};

/// Makes the SpillRunSources of one merge.  Runs in the same file share
/// one SpillFileHandle, so the merge holds one descriptor per spill file
/// however many runs each file holds.  The sources own their handles and
/// may outlive this object.
class SharedSpillFiles {
 public:
  std::unique_ptr<MergeSource> Source(const SpillRun& run);

 private:
  std::unordered_map<std::string, std::shared_ptr<SpillFileHandle>> files_;
};

/// Stable k-way merge: repeatedly yields the smallest head record by
/// (key, value), ties broken by source index.  Sources must each be
/// sorted by (key, value).  Updates mrs.spill.merges and the
/// mrs.spill.merge_fan_in histogram.
class LoserTreeMerger {
 public:
  explicit LoserTreeMerger(std::vector<std::unique_ptr<MergeSource>> sources);

  /// False when every source is exhausted.  Any source error aborts the
  /// merge with that status; the merger is then unusable.
  Result<bool> Next(KeyValue* out);

  int fan_in() const { return k_; }

 private:
  /// a beats b: earlier (key, value), ties to the lower source index.
  bool Beats(int a, int b) const;
  Status Advance(int s);
  Status Init();

  int k_;
  std::vector<std::unique_ptr<MergeSource>> sources_;
  std::vector<KeyValue> cur_;   // head record per source
  std::vector<bool> alive_;
  std::vector<int> tree_;       // [0] winner; [1..k-1] internal-node losers
  bool initialized_ = false;
};

/// Convenience: merge everything into one vector (tests, small fan-ins).
Result<std::vector<KeyValue>> MergeToVector(
    std::vector<std::unique_ptr<MergeSource>> sources);

}  // namespace mrs
