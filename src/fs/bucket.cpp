#include "fs/bucket.h"

#include <algorithm>
#include <iterator>
#include <memory>

#include "common/bytes.h"
#include "common/strings.h"
#include "fs/file_io.h"
#include "fs/merge.h"
#include "http/message.h"

namespace mrs {

Status Bucket::PersistToFile(const std::string& path) {
  MRS_RETURN_IF_ERROR(WriteFileAtomic(path, EncodeBinaryRecords(records_)));
  url_ = "file://" + path;
  return Status::Ok();
}

Status Bucket::SpillToRun(SpillFile& file, const std::string& id,
                          bool sorted) {
  if (sorted) {
    std::stable_sort(records_.begin(), records_.end(), KeyValueLess);
  }
  MRS_ASSIGN_OR_RETURN(SpillRun run, file.Append(id, records_, sorted));
  spill_runs_.push_back(std::move(run));
  records_.clear();
  records_.shrink_to_fit();
  loaded_ = false;
  return Status::Ok();
}

size_t Bucket::ApproxMemoryBytes() const {
  size_t bytes = 0;
  for (const KeyValue& kv : records_) bytes += mrs::ApproxMemoryBytes(kv);
  return bytes;
}

Status Bucket::LoadFromRuns() {
  // All runs in one bucket share an ordering mode (callers never mix):
  // sorted runs merge by (key, value); FIFO runs concatenate in write
  // order.  A not-yet-flushed in-memory tail joins as the last source.
  std::vector<KeyValue> tail = std::move(records_);
  records_.clear();
  bool all_sorted = true;
  for (const SpillRun& run : spill_runs_) all_sorted &= run.sorted;
  if (all_sorted) {
    std::vector<std::unique_ptr<MergeSource>> sources;
    sources.reserve(spill_runs_.size() + 1);
    SharedSpillFiles files;
    for (const SpillRun& run : spill_runs_) {
      sources.push_back(files.Source(run));
    }
    if (!tail.empty()) {
      std::stable_sort(tail.begin(), tail.end(), KeyValueLess);
      sources.push_back(std::make_unique<VectorSource>(std::move(tail)));
    }
    MRS_ASSIGN_OR_RETURN(records_, MergeToVector(std::move(sources)));
  } else {
    for (const SpillRun& run : spill_runs_) {
      MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> recs, ReadSpillRun(run));
      records_.insert(records_.end(), std::make_move_iterator(recs.begin()),
                      std::make_move_iterator(recs.end()));
    }
    records_.insert(records_.end(), std::make_move_iterator(tail.begin()),
                    std::make_move_iterator(tail.end()));
  }
  loaded_ = true;
  return Status::Ok();
}

Status Bucket::EnsureLoaded(
    const std::function<Result<std::string>(const std::string&)>& http_fetch) {
  if (loaded_) return Status::Ok();
  if (!spill_runs_.empty()) return LoadFromRuns();
  if (url_.empty()) {
    // Never persisted and not marked loaded: treat in-memory contents
    // (possibly empty) as authoritative.
    loaded_ = true;
    return Status::Ok();
  }
  std::string raw;
  if (StartsWith(url_, "file://")) {
    MRS_ASSIGN_OR_RETURN(raw, ReadFileToString(url_.substr(7)));
  } else if (StartsWith(url_, "http://")) {
    if (!http_fetch) {
      return FailedPreconditionError("no http fetcher for bucket url " + url_);
    }
    MRS_ASSIGN_OR_RETURN(raw, http_fetch(url_));
  } else {
    return InvalidArgumentError("unsupported bucket url scheme: " + url_);
  }
  // Truncation guard: a payload that does not decode cleanly is data loss
  // (short read, dead peer mid-transfer), surfaced as retryable kDataLoss
  // — never silently parsed as a shorter record stream.
  Result<std::vector<KeyValue>> decoded = DecodeBucketBody(raw);
  if (!decoded.ok()) {
    return DataLossError("bucket " + url_ + " payload corrupt after " +
                         std::to_string(raw.size()) +
                         " bytes: " + decoded.status().message());
  }
  records_ = std::move(*decoded);
  loaded_ = true;
  return Status::Ok();
}

std::string BucketFileName(std::string_view dataset_id, int source, int split) {
  return std::string(dataset_id) + "/source_" + std::to_string(source) +
         "_split_" + std::to_string(split) + ".mrsb";
}

std::string EncodeBucketFrames(const std::vector<BucketFrame>& frames) {
  // Reserve the whole body (a length prefix is at most 10 bytes), so a
  // bucket of many megabytes is not copied on every doubling.
  size_t size = kBucketFramesFormat.size() + 10;
  for (const BucketFrame& f : frames) {
    size += 30 + f.id.size() + f.checksum.size() + f.data.size();
  }
  Bytes out;
  out.reserve(size);
  ByteWriter w(&out);
  w.PutRaw(kBucketFramesFormat.data(), kBucketFramesFormat.size());
  w.PutVarint(frames.size());
  for (const BucketFrame& f : frames) {
    w.PutLengthPrefixed(f.id);
    w.PutLengthPrefixed(f.checksum);
    w.PutLengthPrefixed(f.data);
  }
  return std::string(reinterpret_cast<const char*>(out.data()), out.size());
}

namespace {

/// The frames of an encoded frame set as views into `body`, unverified.
Result<std::vector<BucketFrameView>> ParseBucketFrames(std::string_view body) {
  if (!StartsWith(body, kBucketFramesFormat)) {
    return DataLossError("bucket frame payload missing mrsk1 magic");
  }
  ByteReader r(body.substr(kBucketFramesFormat.size()));
  MRS_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  // A frame is at least its three length prefixes.
  if (count > r.remaining() / 3) {
    return DataLossError("bucket frame count " + std::to_string(count) +
                         " exceeds the body");
  }
  std::vector<BucketFrameView> frames;
  frames.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    BucketFrameView f;
    MRS_ASSIGN_OR_RETURN(f.id, r.GetLengthPrefixedView());
    MRS_ASSIGN_OR_RETURN(f.checksum, r.GetLengthPrefixedView());
    MRS_ASSIGN_OR_RETURN(f.data, r.GetLengthPrefixedView());
    frames.push_back(f);
  }
  if (!r.empty()) {
    return DataLossError("trailing bytes after bucket frames");
  }
  return frames;
}

Status CheckFrame(std::string_view id, std::string_view checksum,
                  std::string_view data) {
  if (ChecksumMatches(data, checksum)) return Status::Ok();
  return DataLossError("bucket frame " + std::string(id) +
                       " checksum mismatch in batched transfer");
}

}  // namespace

Result<std::vector<BucketFrameView>> DecodeBucketFrameViews(
    std::string_view body) {
  MRS_ASSIGN_OR_RETURN(std::vector<BucketFrameView> frames,
                       ParseBucketFrames(body));
  for (const BucketFrameView& f : frames) {
    MRS_RETURN_IF_ERROR(CheckFrame(f.id, f.checksum, f.data));
  }
  return frames;
}

Result<std::vector<BucketFrame>> DecodeBucketFrames(std::string_view body) {
  MRS_ASSIGN_OR_RETURN(std::vector<BucketFrameView> views,
                       ParseBucketFrames(body));
  std::vector<BucketFrame> frames;
  frames.reserve(views.size());
  for (const BucketFrameView& v : views) {
    frames.push_back(BucketFrame{std::string(v.id), std::string(v.checksum),
                                 std::string(v.data)});
    // Hash the copy, which is still in cache.
    const BucketFrame& f = frames.back();
    MRS_RETURN_IF_ERROR(CheckFrame(f.id, f.checksum, f.data));
  }
  return frames;
}

Result<std::vector<KeyValue>> DecodeBucketBody(std::string_view body) {
  if (StartsWith(body, kBucketFramesFormat)) {
    MRS_ASSIGN_OR_RETURN(std::vector<BucketFrameView> frames,
                         DecodeBucketFrameViews(body));
    std::vector<KeyValue> out;
    for (const BucketFrameView& f : frames) {
      MRS_RETURN_IF_ERROR(AppendBinaryRecords(f.data, &out));
    }
    return out;
  }
  return DecodeRecords(body);
}

}  // namespace mrs
