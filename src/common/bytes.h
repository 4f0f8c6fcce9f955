// Byte-buffer reader/writer with varint framing.
//
// The binary record format used for intermediate MapReduce data (mrs::ser)
// is built on LEB128-style varints, little-endian fixed-width integers, and
// length-prefixed byte strings, all defined here.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mrs {

using Bytes = std::vector<uint8_t>;

/// Appends primitives to a growable byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }

  void PutFixed32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  void PutFixed64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  /// Unsigned LEB128.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      out_->push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_->push_back(static_cast<uint8_t>(v));
  }

  /// Signed value via zigzag encoding.
  void PutVarintSigned(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  /// IEEE-754 bit pattern as fixed64.
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed64(bits);
  }

  /// Varint length prefix then raw bytes.
  void PutLengthPrefixed(std::string_view s) {
    PutVarint(s.size());
    out_->insert(out_->end(), s.begin(), s.end());
  }
  void PutLengthPrefixed(const Bytes& b) {
    PutVarint(b.size());
    out_->insert(out_->end(), b.begin(), b.end());
  }

  void PutRaw(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + n);
  }

 private:
  Bytes* out_;
};

/// Consumes primitives from a byte span; every getter reports truncation or
/// malformed varints as a Status instead of reading out of bounds.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const Bytes& b) : ByteReader(b.data(), b.size()) {}
  explicit ByteReader(std::string_view s)
      : ByteReader(reinterpret_cast<const uint8_t*>(s.data()), s.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool empty() const { return pos_ >= size_; }
  size_t position() const { return pos_; }

  Result<uint8_t> GetU8() {
    if (remaining() < 1) return Truncated("u8");
    return data_[pos_++];
  }

  Result<uint32_t> GetFixed32() {
    if (remaining() < 4) return Truncated("fixed32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  Result<uint64_t> GetFixed64() {
    if (remaining() < 8) return Truncated("fixed64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_) return Truncated("varint");
      if (shift >= 64) return DataLossError("varint too long");
      uint8_t byte = data_[pos_++];
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  Result<int64_t> GetVarintSigned() {
    MRS_ASSIGN_OR_RETURN(uint64_t raw, GetVarint());
    return static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }

  Result<double> GetDouble() {
    MRS_ASSIGN_OR_RETURN(uint64_t bits, GetFixed64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<std::string> GetLengthPrefixed() {
    MRS_ASSIGN_OR_RETURN(std::string_view s, GetLengthPrefixedView());
    return std::string(s);
  }

  /// The same bytes as a view into the reader's buffer, valid as long as
  /// that buffer is.
  Result<std::string_view> GetLengthPrefixedView() {
    MRS_ASSIGN_OR_RETURN(uint64_t len, GetVarint());
    if (remaining() < len) return Truncated("length-prefixed bytes");
    std::string_view s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  Status Skip(size_t n) {
    if (remaining() < n) return DataLossError("skip past end of buffer");
    pos_ += n;
    return Status::Ok();
  }

 private:
  Status Truncated(std::string_view what) {
    return DataLossError("truncated buffer reading " + std::string(what));
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace mrs
