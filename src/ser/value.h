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
#include <new>
#include <string>
#include <string_view>
#include <utility>
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

  Value() noexcept : type_(Type::kNone), int_(0) {}
  Value(int v) : type_(Type::kInt), int_(v) {}                   // NOLINT
  Value(int64_t v) : type_(Type::kInt), int_(v) {}               // NOLINT
  Value(uint64_t v) : type_(Type::kInt), int_(static_cast<int64_t>(v)) {}  // NOLINT
  Value(double v) : type_(Type::kDouble), double_(v) {}          // NOLINT
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Value(std::string_view s) : type_(Type::kString), str_(s) {}   // NOLINT
  Value(const char* s) : type_(Type::kString), str_(s) {}        // NOLINT
  Value(ValueList list)                                          // NOLINT
      : type_(Type::kList), list_(std::make_shared<ValueList>(std::move(list))) {}

  // The union's payload is built and destroyed by hand.  A moved-from
  // value keeps its type; a number keeps its value, and a string or list
  // may only be assigned to or destroyed.  Sorts and merges move strings
  // almost only, so the string paths are inline and the rest is not.
  Value(const Value& other) : type_(other.type_) { ConstructFrom(other); }
  Value(Value&& other) noexcept : type_(other.type_) {
    if (SlotOf(type_) == Slot::kString) {
      new (&str_) std::string(std::move(other.str_));
    } else {
      ConstructFrom(std::move(other));
    }
  }
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept {
    if (SlotOf(type_) == Slot::kString &&
        SlotOf(other.type_) == Slot::kString && this != &other) {
      str_ = std::move(other.str_);
      type_ = other.type_;
      return *this;
    }
    return MoveAssign(std::move(other));
  }
  ~Value() {
    if (SlotOf(type_) == Slot::kString) {
      str_.~basic_string();
    } else if (type_ == Type::kList) {
      DestroyPayload();
    }
  }

  static Value BytesValue(std::string data) {
    Value v(std::move(data));
    v.type_ = Type::kBytes;
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

  /// An 8-byte summary of Compare's order: a.OrderPrefix() < b.OrderPrefix()
  /// implies a < b, and equal prefixes decide nothing.  The top byte is the
  /// type rank Compare orders types by; strings and bytes add their first
  /// 7 bytes, zero-padded, and numbers and lists carry the rank alone.
  uint64_t OrderPrefix() const;

  /// Deterministic 64-bit hash (FNV over the serialized form); equal values
  /// hash equally, including int/double values that compare equal.
  uint64_t Hash() const;

  /// Tagged binary encoding.  DeserializeInto reads peer bytes into *out,
  /// reusing its string buffer: a list nested deeper than kMaxValueDepth,
  /// or a length the remaining bytes cannot hold, is kDataLoss, and leaves
  /// *out holding some value of no meaning.
  void Serialize(ByteWriter* writer) const;
  static Status DeserializeInto(ByteReader* reader, Value* out);

  /// Python-repr-like rendering: None, 42, 3.5, 'text', b'...', [1, 'a'].
  std::string Repr() const;

  /// Rough in-memory footprint (for MemoryBudget accounting): the object
  /// itself plus heap payloads.  An estimate, not an exact allocator
  /// measurement — budget checks tolerate slack.
  size_t ApproxMemoryBytes() const;

 private:
  /// kNone, kInt and kDouble keep a scalar (kNone as int_ = 0), kString
  /// and kBytes keep str_, kList keeps list_.
  enum class Slot : uint8_t { kScalar, kString, kList };
  static Slot SlotOf(Type t) {
    if (t == Type::kString || t == Type::kBytes) return Slot::kString;
    return t == Type::kList ? Slot::kList : Slot::kScalar;
  }

  /// Build the payload of `other` (whose type_ this already has) into the
  /// union, which holds nothing live.
  void ConstructFrom(const Value& other);
  void ConstructFrom(Value&& other) noexcept;
  void DestroyPayload() noexcept;
  /// operator=(Value&&) for every pairing but string to string.
  Value& MoveAssign(Value&& other) noexcept;
  /// Take type t with an empty payload, keeping the string buffer when
  /// the slot stays kString.
  void Become(Type t);
  Status ReadFrom(ByteReader* reader, int depth);

  Type type_;
  union {
    int64_t int_;
    double double_;
    std::string str_;                  // kString and kBytes
    std::shared_ptr<ValueList> list_;  // shared: cheap copies, immutable use
  };
};

// A tag byte beside a std::string (whose inline buffer holds DistSort's
// 10-byte keys); a record is two of these.
static_assert(sizeof(Value) <= 40);

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
