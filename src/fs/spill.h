// Out-of-core bucket storage: spill runs + the process memory budget.
//
// When a job's intermediate data exceeds RAM, bucket contents are written
// to local disk as *spill runs* — checksummed frames in the same mrsk1
// format the data plane streams between slaves, appended to one file per
// task attempt — and reads become merged streams (fs/merge.h) instead of
// materialized vectors.  The
// MemoryBudget decides when: every producer (map partition accumulation,
// reduce output buffering, dataset row storage) charges it as records
// accumulate and spills once usage crosses the configured limit.
//
// Two run orderings exist, chosen by what the consumer is allowed to
// observe:
//   - sorted runs (map/shuffle output): records within the run are ordered
//     by (key, value).  Shuffle data has multiset semantics — the reduce
//     consumer sort-groups it anyway, and records that compare equal are
//     byte-identical — so a k-way merge of sorted runs reproduces exactly
//     what SortRecords (ser/record.h) of the in-memory concatenation would
//     have fed the reduce.  This is what makes spilling invisible to the
//     all-implementations-identical invariant.
//   - FIFO runs (reduce/final output): record order is preserved exactly
//     (runs concatenate in write order), because Job::Collect reads final
//     buckets in raw emit order and per-key reduce emit order is
//     program-defined, not sorted.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ser/value.h"

namespace mrs {

/// Byte-accounting for in-memory bucket data.  Charge/Release are lock-free
/// and safe from any thread (pool workers, slave executor, dataset
/// mutators).  A limit <= 0 means unlimited: ShouldSpill never fires and
/// the runtime behaves exactly as before this tier existed.
///
/// The limit is a soft target with bounded overshoot: producers check
/// ShouldSpill() every few records (not on every append), so usage may
/// exceed the limit by one check interval's worth of records before the
/// spill happens.
class MemoryBudget {
 public:
  MemoryBudget() = default;

  /// The process-wide budget every runner and dataset consults.  Its
  /// initial limit comes from $MRS_MEMORY_BUDGET (parsed once, first use);
  /// --mrs-memory-budget overrides it via set_limit.  Mirrors usage and
  /// high-water into the mrs.spill.budget_* gauges.
  static MemoryBudget& Process();

  /// <= 0: unlimited (the default).
  void set_limit(int64_t bytes) {
    limit_.store(bytes, std::memory_order_relaxed);
  }
  int64_t limit() const { return limit_.load(std::memory_order_relaxed); }
  bool active() const { return limit() > 0; }

  void Charge(int64_t bytes);
  void Release(int64_t bytes);

  int64_t usage() const { return usage_.load(std::memory_order_relaxed); }
  int64_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

  /// True when a producer holding in-memory records should spill them:
  /// the budget is active and current usage (plus `extra` hypothetical
  /// bytes) exceeds the limit.
  bool ShouldSpill(int64_t extra = 0) const {
    int64_t lim = limit();
    return lim > 0 && usage() + extra > lim;
  }

  /// Test hook: zero usage and high-water (limits are the caller's to
  /// restore).  Charges are matched by releases in normal operation, but a
  /// test that aborts a run mid-flight may leak accounting.
  void ResetForTest();

 private:
  friend class ProcessBudgetAccess;
  std::atomic<int64_t> limit_{0};
  std::atomic<int64_t> usage_{0};
  std::atomic<int64_t> high_water_{0};
  bool is_process_ = false;  // set once, before threads exist
};

/// Parse a byte-size string: a plain integer, optionally suffixed with
/// K/M/G (binary: 1024-based, case-insensitive, optional trailing B/iB).
/// "0" and "" mean unlimited.
Result<int64_t> ParseByteSize(const std::string& text);

/// One spill run on local disk: the byte range [offset, offset + length)
/// of a spill file, holding a single-frame mrsk1 frame set.  The frame id
/// names the producer ("<dataset>/<source>/<split>[/...]"), the frame
/// checksum guards the payload, and the frame data is EncodeBinaryRecords
/// of the run's records.  Reusing the wire format means a slave can serve
/// a run straight into the batched data plane without re-framing.  A task
/// attempt appends all its runs to one file (SpillFile); a standalone run
/// (WriteSpillRun) is a one-run file at offset 0.
struct SpillRun {
  std::string path;
  uint64_t offset = 0;  // first byte of the run's frame set in `path`
  uint64_t length = 0;  // frame set size in bytes
  std::string id;
  // ContentChecksum of the encoded record payload ("xxh64:" and 16 hex
  // digits), also written in the run's frame.  A read checks that the
  // frame carries this value and that the payload matches it.
  std::string checksum;
  uint64_t records = 0;
  uint64_t bytes = 0;  // encoded payload size
  bool sorted = false;  // ordered by (key, value); false = FIFO
};

/// An append-only file of spill runs.  The file is created by the first
/// Append, so a task attempt that never spills leaves nothing on disk;
/// creations count in mrs.spill.files_created.  Nothing is fsynced: only
/// the process that writes the file reads it (its slave serves the runs),
/// so no reader outlives the crash an fsync guards against, and a lost
/// run is rebuilt through lineage.  The destructor deletes the file
/// unless Keep() was called: a failed attempt's spill data goes at once,
/// while a kept file belongs to whoever holds its runs (a dataset row, a
/// slave's bucket store), which deletes it on discard.  One writer at a
/// time; readers open the file independently.
class SpillFile {
 public:
  explicit SpillFile(std::string path) : path_(std::move(path)) {}
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  const std::string& path() const { return path_; }

  /// Append `records` as one run.  If `sorted`, the caller guarantees the
  /// records are already ordered by (key, value).  Updates
  /// mrs.spill.runs_written / bytes_spilled.
  Result<SpillRun> Append(const std::string& id,
                          const std::vector<KeyValue>& records, bool sorted);

  /// Append an already-encoded record payload as one run without decoding
  /// it.  `checksum` must be ContentChecksum(payload) — verified on read,
  /// not here.
  Result<SpillRun> AppendEncoded(const std::string& id,
                                 std::string_view payload,
                                 const std::string& checksum, bool sorted);

  /// Hand the file to the holder of its runs instead of deleting it.
  void Keep() { keep_ = true; }

 private:
  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
  bool keep_ = false;
};

/// Write `records` to `path` as a one-run spill file.  If `sorted`, the
/// caller guarantees the records are already ordered by (key, value).
Result<SpillRun> WriteSpillRun(const std::string& path, const std::string& id,
                               const std::vector<KeyValue>& records,
                               bool sorted);

/// Same, for an already-encoded record payload (see AppendEncoded).
Result<SpillRun> WriteEncodedSpillRun(const std::string& path,
                                      const std::string& id,
                                      std::string_view payload,
                                      const std::string& checksum,
                                      bool sorted);

/// The run's raw frame set, unverified.  A missing file is kNotFound; a
/// range that runs past the end of the file is kDataLoss.
Result<std::string> ReadSpillRunBytes(const SpillRun& run);

/// Read a whole run back: ReadSpillRunFrame (fs/bucket.h), then the
/// checksum and record decode.  A missing file is kNotFound; truncation, a
/// bad frame, or a checksum mismatch is kDataLoss.  (For memory-bounded
/// reads use fs/merge.h's SpillRunSource, which streams.)
Result<std::vector<KeyValue>> ReadSpillRun(const SpillRun& run);

/// Best-effort deletion of the file holding `run` — and so of every other
/// run in that file.
void RemoveSpillRun(const SpillRun& run);

/// Lazily-created process-local directory for the spill files of tasks
/// that have no natural owner directory (serial, thread and slave task
/// attempts), "$TMPDIR/mrs_spill_XXXXXX".  Removed at process exit; the
/// process holds a lock on its ".lock" file until then, and making a root
/// runs RemoveDeadSpillRoots on $TMPDIR, so the root of a process that was
/// killed goes when the next one is made.
Result<std::string> SpillRoot();

/// Remove every "mrs_spill_*" directory in `parent` whose ".lock" file no
/// process holds locked: its owner has exited.  A directory of another
/// user's, or one without a lock file, is never touched.
void RemoveDeadSpillRoots(const std::string& parent);

/// A fresh spill file path "<parent>/<label>_<n>.mrsk" (parent is
/// SpillRoot() when empty) for one task attempt.  `n` is a process-wide
/// sequence number, so a re-executed task never appends to or replaces
/// a file that a stale bucket still references.  Nothing is created.
Result<std::string> NewSpillFilePath(const std::string& label,
                                     const std::string& parent = "");

}  // namespace mrs
