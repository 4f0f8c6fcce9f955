#include "ser/value.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/strings.h"

namespace mrs {

void Value::ConstructFrom(const Value& other) {
  switch (SlotOf(other.type_)) {
    case Slot::kString: new (&str_) std::string(other.str_); break;
    case Slot::kList:
      new (&list_) std::shared_ptr<ValueList>(other.list_);
      break;
    case Slot::kScalar:
      if (other.type_ == Type::kDouble) {
        double_ = other.double_;
      } else {
        int_ = other.int_;
      }
      break;
  }
}

void Value::ConstructFrom(Value&& other) noexcept {
  switch (SlotOf(other.type_)) {
    case Slot::kString: new (&str_) std::string(std::move(other.str_)); break;
    case Slot::kList:
      new (&list_) std::shared_ptr<ValueList>(std::move(other.list_));
      break;
    case Slot::kScalar: ConstructFrom(static_cast<const Value&>(other)); break;
  }
}

void Value::DestroyPayload() noexcept {
  switch (SlotOf(type_)) {
    case Slot::kString: str_.~basic_string(); break;
    case Slot::kList: list_.~shared_ptr(); break;
    case Slot::kScalar: break;
  }
}

Value& Value::MoveAssign(Value&& other) noexcept {
  if (this != &other) {
    DestroyPayload();
    type_ = other.type_;
    ConstructFrom(std::move(other));
  }
  return *this;
}

Value& Value::operator=(const Value& other) {
  if (this == &other) return *this;
  if (SlotOf(type_) == Slot::kString && SlotOf(other.type_) == Slot::kString) {
    str_ = other.str_;  // reuses this value's buffer
    type_ = other.type_;
    return *this;
  }
  // Build the new payload before the old one goes: `other` may live
  // inside this value's own list.
  Value copy(other);
  return *this = std::move(copy);
}

// A mistyped read (asserted in debug builds) gives its type's zero, as it
// did when a Value held every member at once.
int64_t Value::AsInt() const {
  assert(type_ == Type::kInt);
  return type_ == Type::kInt ? int_ : 0;
}

double Value::AsDouble() const {
  assert(type_ == Type::kInt || type_ == Type::kDouble);
  if (type_ == Type::kInt) return static_cast<double>(int_);
  return type_ == Type::kDouble ? double_ : 0.0;
}

const std::string& Value::AsString() const {
  assert(type_ == Type::kString || type_ == Type::kBytes);
  static const std::string kEmpty;
  return SlotOf(type_) == Slot::kString ? str_ : kEmpty;
}

const ValueList& Value::AsList() const {
  assert(type_ == Type::kList);
  return *list_;
}

namespace {
/// Rank for cross-type ordering; Int and Double share a rank so mixed
/// numeric comparisons use numeric order (as Python 2 sorting did).
int TypeRank(Value::Type t) {
  switch (t) {
    case Value::Type::kNone: return 0;
    case Value::Type::kInt:
    case Value::Type::kDouble: return 1;
    case Value::Type::kString: return 2;
    case Value::Type::kBytes: return 3;
    case Value::Type::kList: return 4;
  }
  return 5;
}

int Cmp(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }
int Cmp(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }
}  // namespace

int Value::Compare(const Value& other) const {
  int ra = TypeRank(type_);
  int rb = TypeRank(other.type_);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (type_) {
    case Type::kNone:
      return 0;
    case Type::kInt:
      if (other.type_ == Type::kInt) return Cmp(int_, other.int_);
      return Cmp(static_cast<double>(int_), other.double_);
    case Type::kDouble:
      if (other.type_ == Type::kInt) {
        return Cmp(double_, static_cast<double>(other.int_));
      }
      return Cmp(double_, other.double_);
    case Type::kString:
    case Type::kBytes: {
      int c = str_.compare(other.str_);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case Type::kList: {
      const ValueList& a = *list_;
      const ValueList& b = *other.list_;
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return Cmp(static_cast<int64_t>(a.size()), static_cast<int64_t>(b.size()));
    }
  }
  return 0;
}

uint64_t Value::OrderPrefix() const {
  uint64_t prefix = static_cast<uint64_t>(TypeRank(type_)) << 56;
  if (SlotOf(type_) == Slot::kString) {
    // Big-endian, so integer order is memcmp order; a shorter string pads
    // with zeros, which never sorts after the byte a longer one has there.
    const size_t n = std::min<size_t>(str_.size(), 7);
    for (size_t i = 0; i < n; ++i) {
      prefix |= uint64_t{static_cast<unsigned char>(str_[i])} << (48 - 8 * i);
    }
  }
  return prefix;
}

uint64_t Value::Hash() const {
  Bytes buf;
  ByteWriter w(&buf);
  // An integral double hashes like the equal int, so hash respects ==.
  if (type_ == Type::kDouble && std::floor(double_) == double_ &&
      double_ >= -9.2e18 && double_ <= 9.2e18) {
    Value as_int(static_cast<int64_t>(double_));
    as_int.Serialize(&w);
  } else {
    Serialize(&w);
  }
  return Fnv1a64(std::string_view(reinterpret_cast<const char*>(buf.data()),
                                  buf.size()));
}

void Value::Serialize(ByteWriter* writer) const {
  writer->PutU8(static_cast<uint8_t>(type_));
  switch (type_) {
    case Type::kNone:
      break;
    case Type::kInt:
      writer->PutVarintSigned(int_);
      break;
    case Type::kDouble:
      writer->PutDouble(double_);
      break;
    case Type::kString:
    case Type::kBytes:
      writer->PutLengthPrefixed(str_);
      break;
    case Type::kList:
      writer->PutVarint(list_->size());
      for (const Value& v : *list_) v.Serialize(writer);
      break;
  }
}

void Value::Become(Type t) {
  if (SlotOf(type_) != SlotOf(t)) {
    DestroyPayload();
    switch (SlotOf(t)) {
      case Slot::kString: new (&str_) std::string(); break;
      case Slot::kList: new (&list_) std::shared_ptr<ValueList>(); break;
      case Slot::kScalar: int_ = 0; break;
    }
  }
  type_ = t;
}

Status Value::ReadFrom(ByteReader* reader, int depth) {
  MRS_ASSIGN_OR_RETURN(uint8_t tag, reader->GetU8());
  switch (static_cast<Type>(tag)) {
    case Type::kNone:
      Become(Type::kNone);
      int_ = 0;
      return Status::Ok();
    case Type::kInt: {
      MRS_ASSIGN_OR_RETURN(int64_t v, reader->GetVarintSigned());
      Become(Type::kInt);
      int_ = v;
      return Status::Ok();
    }
    case Type::kDouble: {
      MRS_ASSIGN_OR_RETURN(double v, reader->GetDouble());
      Become(Type::kDouble);
      double_ = v;
      return Status::Ok();
    }
    case Type::kString:
    case Type::kBytes: {
      MRS_ASSIGN_OR_RETURN(std::string_view s, reader->GetLengthPrefixedView());
      Become(static_cast<Type>(tag));
      str_.assign(s);
      return Status::Ok();
    }
    case Type::kList: {
      if (depth == kMaxValueDepth) {
        return DataLossError("list nested deeper than " +
                             std::to_string(kMaxValueDepth));
      }
      MRS_ASSIGN_OR_RETURN(uint64_t n, reader->GetVarint());
      // An element is at least its tag byte.
      if (n > reader->remaining()) {
        return DataLossError("list length " + std::to_string(n) +
                             " exceeds the body");
      }
      ValueList list;
      list.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        MRS_RETURN_IF_ERROR(list.emplace_back().ReadFrom(reader, depth + 1));
      }
      Become(Type::kList);
      list_ = std::make_shared<ValueList>(std::move(list));
      return Status::Ok();
    }
  }
  return DataLossError("unknown Value tag: " + std::to_string(tag));
}

Status Value::DeserializeInto(ByteReader* reader, Value* out) {
  return out->ReadFrom(reader, 0);
}

std::string Value::Repr() const {
  switch (type_) {
    case Type::kNone:
      return "None";
    case Type::kInt:
      return std::to_string(int_);
    case Type::kDouble: {
      std::string s = StrPrintf("%.17g", double_);
      // Ensure a double never reads back as an int.
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case Type::kString:
    case Type::kBytes: {
      std::string out = type_ == Type::kBytes ? "b'" : "'";
      for (char c : str_) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\'': out += "\\'"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
              out += StrPrintf("\\x%02x", static_cast<unsigned char>(c));
            } else {
              out += c;
            }
        }
      }
      out += '\'';
      return out;
    }
    case Type::kList: {
      std::string out = "[";
      for (size_t i = 0; i < list_->size(); ++i) {
        if (i > 0) out += ", ";
        out += (*list_)[i].Repr();
      }
      return out + "]";
    }
  }
  return "?";
}

size_t Value::ApproxMemoryBytes() const {
  // What the budget charges per value: sizeof(Value) before it became a
  // tagged union.  Spill points stay where they were; charging the real
  // size would move them.
  constexpr size_t kChargedValueBytes = 72;
  size_t bytes = kChargedValueBytes;
  if (SlotOf(type_) == Slot::kString) bytes += str_.size();
  if (type_ == Type::kList && list_) {
    bytes += sizeof(ValueList);
    for (const Value& v : *list_) bytes += v.ApproxMemoryBytes();
  }
  return bytes;
}

}  // namespace mrs
