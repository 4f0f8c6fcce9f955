// Buckets: the unit of intermediate data in Mrs, and of every task's input.
//
// Each task writes its output partitioned into buckets, one per destination
// split, and reads its input as a column of buckets.  A bucket's records
// either stay in memory (serial runs, or the direct-communication path
// where "small short-lived files ... stay in the kernel's filesystem
// buffer"), sit on local disk as spill runs of the task attempt that wrote
// them (budgeted runs, and every row under mock parallel), or are read by
// URL: a `text+file://` input split is read here as (line number, line)
// records, and any other URL — a peer slave's bucket (the writer "sends
// the master the corresponding URL, which is used for any future reads"),
// a shared-filesystem file — through the runner's fetcher.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "fs/spill.h"
#include "ser/record.h"
#include "ser/value.h"

namespace mrs {

/// A named container of KeyValue records addressed by (source, split).
class Bucket {
 public:
  Bucket() = default;
  Bucket(int source, int split) : source_(source), split_(split) {}

  int source() const { return source_; }
  int split() const { return split_; }

  /// Where the records are read from, empty while memory-only:
  /// "text+file:///abs/path" (an input split), "http://host:port/path",
  /// "file:///abs/path", or any scheme the runner's fetcher resolves.
  const std::string& url() const { return url_; }
  void set_url(std::string url) { url_ = std::move(url); }

  bool loaded() const { return loaded_; }
  const std::vector<KeyValue>& records() const { return records_; }
  std::vector<KeyValue>* mutable_records() { return &records_; }

  void Append(KeyValue kv) { records_.push_back(std::move(kv)); }
  void Append(Value key, Value value) {
    records_.push_back(KeyValue{std::move(key), std::move(value)});
  }

  /// Mark in-memory contents as authoritative (constructors of source data).
  void MarkLoaded() { loaded_ = true; }

  /// Drop in-memory records (keeps url and spill runs).
  void Evict() {
    records_.clear();
    records_.shrink_to_fit();
    loaded_ = false;
  }

  // ---- Out-of-core state (fs/spill.h) ---------------------------------
  //
  // Under memory pressure a bucket's records move to disk as spill runs.
  // Invariant after a task completes: a spilled bucket holds runs only
  // (records_ empty, loaded_ false) — the tail is always flushed.  While a
  // task is still producing, records_ may hold a not-yet-spilled tail;
  // EnsureLoaded handles both.

  bool spilled() const { return !spill_runs_.empty(); }
  const std::vector<SpillRun>& spill_runs() const { return spill_runs_; }
  void AddSpillRun(SpillRun run) { spill_runs_.push_back(std::move(run)); }

  /// Move current in-memory records to disk as one spill run appended to
  /// `file`.  `sorted` orders the run by (key, value) before writing
  /// (shuffle data: multiset semantics, merge-readable); otherwise the run
  /// preserves emit order (final output: FIFO).  Records are cleared on
  /// success.
  Status SpillToRun(SpillFile& file, const std::string& id, bool sorted);

  /// Estimated in-memory footprint of records_ (budget accounting).
  size_t ApproxMemoryBytes() const;

  /// Ensure records are in memory: read back from spill runs, or by url.
  /// The only code that turns a url into records.  A text+file:// url is
  /// read here, never through `fetch`, so fetch faults never touch input
  /// files; every other url goes to `fetch` (the runner's fetcher,
  /// injected to avoid a dependency cycle and to allow fault injection).
  /// A fetched payload that fails to decode is reported as kDataLoss
  /// (truncated transfer) so callers can retry the fetch.
  Status EnsureLoaded(
      const std::function<Result<std::string>(const std::string&)>& fetch);

 private:
  Status LoadFromRuns();

  int source_ = 0;
  int split_ = 0;
  std::string url_;
  bool loaded_ = false;
  std::vector<KeyValue> records_;
  std::vector<SpillRun> spill_runs_;
};

// ---- Batched binary bucket transfer ("mrsk1") -------------------------
//
// A reduce task pulling many splits from one peer fetches them in a single
// round trip: GET /bucket?ids=<id>,<id>,... returns every requested bucket
// body in one length-prefixed binary payload.  Negotiated via the
// X-Mrs-Format header (see http/message.h); a peer that predates the
// format 404s the bare "/bucket" path and the client falls back to one GET
// per bucket.

/// One bucket body in a batched transfer.  `checksum` is
/// ContentChecksum(data), computed once when the bucket was published, so
/// the integrity guard travels inside the frame (no whole-body re-hash).
/// A data server answering a peer that predates XXH64 sends
/// Fnv1aChecksum(data) instead (http/message.h).
struct BucketFrame {
  std::string id;        // "<dataset>/<source>/<split>"
  std::string checksum;  // ContentChecksum(data) or Fnv1aChecksum(data)
  std::string data;      // encoded binary records
};

/// X-Mrs-Format token for batched bucket frames.
inline constexpr std::string_view kBucketFramesFormat = "mrsk1";

/// Serialize frames: magic "mrsk1", varint count, then per frame the
/// length-prefixed id, checksum, and data.
std::string EncodeBucketFrames(const std::vector<BucketFrame>& frames);

/// The id of the frame that carries run `i` of a run-backed bucket, served
/// or written as frames: "<bucket_id>#run<i>".  A bucket held in memory
/// travels as one frame under its own id.  Relabelling a run's frame is
/// safe because a frame checksum covers only the data, never the id.
std::string RunFrameId(std::string_view bucket_id, size_t i);

/// A spill run's one frame, parsed but unverified: its payload is not
/// checked against its checksum.  A slave passes it on as read, so damage
/// on disk is kDataLoss where the frame is decoded, as a damaged transfer
/// is.  A missing file is kNotFound; a range past the end of the file, or
/// bytes that are not one mrsk1 frame filling the range, is kDataLoss.
Result<BucketFrame> ReadSpillRunFrame(const SpillRun& run);

/// The frames of a batched transfer as one body per bucket id: a bucket's
/// own frame gives its record stream, and the RunFrameId frames of a
/// run-backed bucket are re-encoded, in run order, as one frame set, which
/// DecodeBucketBody reassembles.
std::map<std::string, std::string> BucketBodies(
    std::vector<BucketFrame> frames);

/// A frame of an encoded frame set, viewing the body it was parsed from.
struct BucketFrameView {
  std::string_view id;
  std::string_view checksum;
  std::string_view data;
};

/// Parse and verify an encoded frame set, each frame with the algorithm its
/// checksum names.  Any truncation, bad magic, frame count the body cannot
/// hold, or per-frame checksum mismatch is kDataLoss (retryable — the
/// caller refetches instead of decoding a corrupt body).  The views stay
/// valid as long as `body` does.
Result<std::vector<BucketFrameView>> DecodeBucketFrameViews(
    std::string_view body);

/// DecodeBucketFrames with each frame copied out of `body`.
Result<std::vector<BucketFrame>> DecodeBucketFrames(std::string_view body);

/// Decode a bucket body that is either a plain record stream or — when the
/// producer served a spilled bucket — an mrsk1 frame set whose frames
/// concatenate in order (auto-detected by magic).  Decode failures are
/// kDataLoss.
Result<std::vector<KeyValue>> DecodeBucketBody(std::string_view body);

}  // namespace mrs
