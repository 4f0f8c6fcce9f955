// The dynamic key/value type that flows through MapReduce operations.
//
// Mrs passes arbitrary Python objects between map and reduce; in C++ the
// equivalent is a small dynamically-typed Value (none, int, double, string,
// bytes, list).  Values order and compare deterministically — the sort and
// group-by-key step depends on a total order — and serialize to a compact
// tagged binary format (ser/record.h) for intermediate data.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/status.h"

namespace mrs {

class Value;
using ValueList = std::vector<Value>;

/// Deepest list nesting that decoding (binary or repr) accepts; decoders
/// recurse once per level, so the cap bounds their stack use.
inline constexpr int kMaxValueDepth = 256;

class Value {
 public:
  enum class Type : uint8_t {
    kNone = 0,
    kInt = 1,
    kDouble = 2,
    kString = 3,
    kBytes = 4,
    kList = 5,
  };

  Value() : type_(Type::kNone) {}
  Value(int v) : type_(Type::kInt), int_(v) {}                   // NOLINT
  Value(int64_t v) : type_(Type::kInt), int_(v) {}               // NOLINT
  Value(uint64_t v) : type_(Type::kInt), int_(static_cast<int64_t>(v)) {}  // NOLINT
  Value(double v) : type_(Type::kDouble), double_(v) {}          // NOLINT
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Value(std::string_view s) : type_(Type::kString), str_(s) {}   // NOLINT
  Value(const char* s) : type_(Type::kString), str_(s) {}        // NOLINT
  Value(ValueList list)                                          // NOLINT
      : type_(Type::kList), list_(std::make_shared<ValueList>(std::move(list))) {}

  static Value BytesValue(std::string data) {
    Value v;
    v.type_ = Type::kBytes;
    v.str_ = std::move(data);
    return v;
  }

  Type type() const { return type_; }
  bool is_none() const { return type_ == Type::kNone; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_bytes() const { return type_ == Type::kBytes; }
  bool is_list() const { return type_ == Type::kList; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Unchecked accessors (assert in debug builds).
  int64_t AsInt() const;
  double AsDouble() const;  // promotes int
  const std::string& AsString() const;  // string or bytes
  const ValueList& AsList() const;

  /// Total order across types: None < Int/Double (numeric order, mixed) <
  /// String < Bytes < List (lexicographic).  Deterministic across runs.
  int Compare(const Value& other) const;
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Deterministic 64-bit hash (FNV over the serialized form); equal values
  /// hash equally, including int/double values that compare equal.
  uint64_t Hash() const;

  /// Tagged binary encoding.  Deserialize reads peer bytes: a list nested
  /// deeper than kMaxValueDepth, or a length the remaining bytes cannot
  /// hold, is kDataLoss.
  void Serialize(ByteWriter* writer) const;
  static Result<Value> Deserialize(ByteReader* reader);

  /// Python-repr-like rendering: None, 42, 3.5, 'text', b'...', [1, 'a'].
  std::string Repr() const;

  /// Rough in-memory footprint (for MemoryBudget accounting): the object
  /// itself plus heap payloads.  An estimate, not an exact allocator
  /// measurement — budget checks tolerate slack.
  size_t ApproxMemoryBytes() const;

 private:
  Type type_;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
  std::shared_ptr<ValueList> list_;  // shared: cheap copies, immutable use
};

/// One record of intermediate or final data.
struct KeyValue {
  Value key;
  Value value;

  bool operator==(const KeyValue& other) const {
    return key == other.key && value == other.value;
  }
};

inline size_t ApproxMemoryBytes(const KeyValue& kv) {
  return kv.key.ApproxMemoryBytes() + kv.value.ApproxMemoryBytes();
}

/// Sort comparator for the group-by-key step: by key, ties by value so
/// output order is fully deterministic.
inline bool KeyValueLess(const KeyValue& a, const KeyValue& b) {
  int c = a.key.Compare(b.key);
  if (c != 0) return c < 0;
  return a.value.Compare(b.value) < 0;
}

}  // namespace mrs
