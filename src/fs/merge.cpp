#include "fs/merge.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/bytes.h"
#include "common/strings.h"
#include "fs/bucket.h"
#include "fs/file_io.h"
#include "http/message.h"
#include "obs/metrics.h"
#include "ser/record.h"

namespace mrs {

SpillRunSource::SpillRunSource(SpillRun run, size_t buffer_bytes)
    : run_(std::move(run)), buffer_bytes_(std::max<size_t>(buffer_bytes, 4096)) {}

SpillRunSource::~SpillRunSource() {
  if (fd_ >= 0) ::close(fd_);
}

Status SpillRunSource::Corrupt(const std::string& what) const {
  return DataLossError("spill run " + run_.path + "@" +
                       std::to_string(run_.offset) + ": " + what);
}

Status SpillRunSource::Open() {
  fd_ = ::open(run_.path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    if (errno == ENOENT) {
      return NotFoundError("spill run " + run_.path + " missing");
    }
    return IoError("open " + run_.path + ": " + std::strerror(errno));
  }

  // Frame header: magic, varint count (always 1), length-prefixed id and
  // checksum, then the payload length prefix.  Ids and checksums are
  // short, so the first buffer covers the whole header.
  std::string head(static_cast<size_t>(std::min<uint64_t>(buffer_bytes_,
                                                          run_.length)),
                   '\0');
  MRS_ASSIGN_OR_RETURN(size_t got,
                       ReadAt(fd_, run_.offset, head.data(), head.size()));
  head.resize(got);
  if (!StartsWith(head, kBucketFramesFormat)) {
    return Corrupt("missing mrsk1 magic");
  }
  ByteReader r(std::string_view(head).substr(kBucketFramesFormat.size()));
  Result<uint64_t> count = r.GetVarint();
  if (!count.ok() || *count != 1) return Corrupt("malformed frame count");
  Result<std::string> id = r.GetLengthPrefixed();
  if (!id.ok()) return Corrupt("truncated frame id");
  Result<std::string> checksum = r.GetLengthPrefixed();
  if (!checksum.ok()) return Corrupt("truncated frame checksum");
  Result<uint64_t> payload_len = r.GetVarint();
  if (!payload_len.ok()) return Corrupt("truncated payload length");
  if (!run_.checksum.empty() && *checksum != run_.checksum) {
    return Corrupt("frame checksum does not match run metadata");
  }
  const uint64_t header_size = kBucketFramesFormat.size() + r.position();
  if (header_size + *payload_len != run_.length) {
    return Corrupt("frame length does not match the run's byte range");
  }

  // Streaming verification pass: hash the whole payload before emitting a
  // single record, so corruption anywhere in the run is kDataLoss at the
  // first Next(), never partially-emitted garbage.  The second pass below
  // re-reads from the page cache; memory stays O(buffer).
  ChecksumVerifier verifier(*checksum);
  uint64_t left = *payload_len;
  {
    // The head buffer already holds the payload's first bytes.
    size_t in_head = std::min<uint64_t>(head.size() - header_size, left);
    verifier.Update(std::string_view(head).substr(header_size, in_head));
    left -= in_head;
  }
  uint64_t at = run_.offset + head.size();
  std::string chunk(buffer_bytes_, '\0');
  while (left > 0) {
    size_t want = static_cast<size_t>(
        std::min<uint64_t>(left, chunk.size()));
    MRS_ASSIGN_OR_RETURN(size_t n, ReadAt(fd_, at, chunk.data(), want));
    if (n == 0) return Corrupt("truncated payload");
    verifier.Update(std::string_view(chunk.data(), n));
    left -= n;
    at += n;
  }
  if (!verifier.Matches()) {
    return Corrupt("payload checksum mismatch");
  }

  // Back to the payload start, and parse its record-stream prelude.
  read_offset_ = run_.offset + header_size;
  payload_left_ = *payload_len;
  window_.clear();
  cursor_ = 0;
  MRS_RETURN_IF_ERROR(Refill());
  if (!StartsWith(window_, kBinaryRecordMagic)) {
    return Corrupt("payload missing binary record magic");
  }
  ByteReader pre(std::string_view(window_).substr(kBinaryRecordMagic.size()));
  Result<uint64_t> n = pre.GetVarint();
  if (!n.ok()) return Corrupt("truncated record count");
  records_left_ = *n;
  cursor_ = kBinaryRecordMagic.size() + pre.position();
  return Status::Ok();
}

Status SpillRunSource::Refill() {
  if (payload_left_ == 0) return Status::Ok();
  window_.erase(0, cursor_);
  cursor_ = 0;
  size_t want = static_cast<size_t>(
      std::min<uint64_t>(payload_left_, buffer_bytes_));
  size_t old = window_.size();
  window_.resize(old + want);
  MRS_ASSIGN_OR_RETURN(size_t got,
                       ReadAt(fd_, read_offset_, window_.data() + old, want));
  window_.resize(old + got);
  read_offset_ += got;
  payload_left_ -= got;
  if (got < want) return Corrupt("unexpected EOF in payload");
  return Status::Ok();
}

Result<bool> SpillRunSource::Next(KeyValue* out) {
  if (!opened_) {
    opened_ = true;
    open_status_ = Open();
  }
  if (!open_status_.ok()) return open_status_;
  if (records_left_ == 0) {
    if (cursor_ != window_.size() || payload_left_ != 0) {
      open_status_ = Corrupt("trailing bytes after records");
      return open_status_;
    }
    return false;
  }
  while (true) {
    // Decode straight into *out; a failed attempt leaves it half written,
    // and the retry below overwrites both fields.
    ByteReader r(std::string_view(window_).substr(cursor_));
    Status decoded = Value::DeserializeInto(&r, &out->key);
    if (decoded.ok()) decoded = Value::DeserializeInto(&r, &out->value);
    if (decoded.ok()) {
      cursor_ += r.position();
      --records_left_;
      return true;
    }
    // A record may straddle the buffer boundary: pull more payload and
    // retry.  Only when the payload is exhausted is the failure real.
    if (payload_left_ == 0) {
      open_status_ = Corrupt("malformed record: " + decoded.message());
      return open_status_;
    }
    MRS_RETURN_IF_ERROR(Refill());
  }
}

LoserTreeMerger::LoserTreeMerger(
    std::vector<std::unique_ptr<MergeSource>> sources)
    : k_(static_cast<int>(sources.size())), sources_(std::move(sources)) {
  static obs::Counter* merges =
      obs::Registry::Instance().GetCounter("mrs.spill.merges");
  static obs::Histogram* fan_in = obs::Registry::Instance().GetHistogram(
      "mrs.spill.merge_fan_in", /*base=*/1.0);
  merges->Inc();
  fan_in->Observe(static_cast<double>(k_));
}

bool LoserTreeMerger::Beats(int a, int b) const {
  if (!alive_[static_cast<size_t>(a)] || !alive_[static_cast<size_t>(b)]) {
    // Exhausted sources lose to live ones; between two exhausted sources
    // the order is irrelevant but must be deterministic.
    if (alive_[static_cast<size_t>(a)]) return true;
    if (alive_[static_cast<size_t>(b)]) return false;
    return a < b;
  }
  const KeyValue& ka = cur_[static_cast<size_t>(a)];
  const KeyValue& kb = cur_[static_cast<size_t>(b)];
  // One three-way comparison: KeyValueLess's order, ties to stability.
  int c = ka.key.Compare(kb.key);
  if (c == 0) c = ka.value.Compare(kb.value);
  if (c != 0) return c < 0;
  return a < b;  // stability: lower source index first
}

Status LoserTreeMerger::Advance(int s) {
  // The source writes its next record straight into the head slot.
  MRS_ASSIGN_OR_RETURN(bool more, sources_[static_cast<size_t>(s)]->Next(
                                      &cur_[static_cast<size_t>(s)]));
  alive_[static_cast<size_t>(s)] = more;
  return Status::Ok();
}

Status LoserTreeMerger::Init() {
  cur_.resize(static_cast<size_t>(k_));
  alive_.assign(static_cast<size_t>(k_), false);
  for (int s = 0; s < k_; ++s) MRS_RETURN_IF_ERROR(Advance(s));
  if (k_ <= 1) {
    tree_.assign(1, 0);
    return Status::Ok();
  }
  // Bottom-up build over the implicit tournament tree: leaves at
  // [k_, 2k_), internal nodes at [1, k_).  win[] carries match winners
  // upward; the loser stays at the node.
  std::vector<int> win(static_cast<size_t>(2 * k_));
  for (int i = 0; i < k_; ++i) win[static_cast<size_t>(k_ + i)] = i;
  tree_.assign(static_cast<size_t>(k_), 0);
  for (int t = k_ - 1; t >= 1; --t) {
    int a = win[static_cast<size_t>(2 * t)];
    int b = win[static_cast<size_t>(2 * t + 1)];
    bool a_wins = Beats(a, b);
    win[static_cast<size_t>(t)] = a_wins ? a : b;
    tree_[static_cast<size_t>(t)] = a_wins ? b : a;
  }
  tree_[0] = win[1];
  return Status::Ok();
}

Result<bool> LoserTreeMerger::Next(KeyValue* out) {
  if (!initialized_) {
    initialized_ = true;
    MRS_RETURN_IF_ERROR(Init());
  }
  if (k_ == 0) return false;
  int w = tree_[0];
  if (!alive_[static_cast<size_t>(w)]) return false;
  *out = std::move(cur_[static_cast<size_t>(w)]);
  MRS_RETURN_IF_ERROR(Advance(w));
  // Replay the winner's leaf-to-root path: at each node the stored loser
  // plays the incoming candidate; the loser stays, the winner moves up.
  int s = w;
  for (int t = (k_ + w) / 2; t >= 1; t /= 2) {
    if (Beats(tree_[static_cast<size_t>(t)], s)) {
      std::swap(s, tree_[static_cast<size_t>(t)]);
    }
  }
  tree_[0] = s;
  return true;
}

Result<std::vector<KeyValue>> MergeToVector(
    std::vector<std::unique_ptr<MergeSource>> sources) {
  LoserTreeMerger merger(std::move(sources));
  std::vector<KeyValue> out;
  KeyValue kv;
  while (true) {
    MRS_ASSIGN_OR_RETURN(bool more, merger.Next(&kv));
    if (!more) break;
    out.push_back(std::move(kv));
  }
  return out;
}

}  // namespace mrs
