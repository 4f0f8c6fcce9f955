#include "ser/record.h"

#include <algorithm>
#include <cctype>

#include "common/bytes.h"
#include "common/strings.h"

namespace mrs {

void SortRecords(std::vector<KeyValue>& records) {
  const size_t n = records.size();
  if (n < 2) return;
  struct Entry {
    uint64_t prefix;
    size_t pos;
  };
  std::vector<Entry> index(n);
  for (size_t i = 0; i < n; ++i) index[i] = {records[i].key.OrderPrefix(), i};
  std::stable_sort(index.begin(), index.end(),
                   [&records](const Entry& a, const Entry& b) {
                     if (a.prefix != b.prefix) return a.prefix < b.prefix;
                     return KeyValueLess(records[a.pos], records[b.pos]);
                   });
  // Slot k takes the record at index[k].pos.  Walk each cycle of that
  // permutation once, marking a settled slot by pointing it at itself.
  for (size_t k = 0; k < n; ++k) {
    if (index[k].pos == k) continue;
    KeyValue held = std::move(records[k]);
    size_t slot = k;
    for (size_t from = index[k].pos; from != k; from = index[slot].pos) {
      records[slot] = std::move(records[from]);
      index[slot].pos = slot;
      slot = from;
    }
    records[slot] = std::move(held);
    index[slot].pos = slot;
  }
}

std::string EncodeBinaryRecords(const std::vector<KeyValue>& records) {
  Bytes buf;
  buf.reserve(records.size() * 16 + kBinaryRecordMagic.size());
  buf.insert(buf.end(), kBinaryRecordMagic.begin(), kBinaryRecordMagic.end());
  ByteWriter w(&buf);
  w.PutVarint(records.size());
  for (const KeyValue& kv : records) {
    kv.key.Serialize(&w);
    kv.value.Serialize(&w);
  }
  return std::string(reinterpret_cast<const char*>(buf.data()), buf.size());
}

Result<std::vector<KeyValue>> DecodeBinaryRecords(std::string_view data) {
  std::vector<KeyValue> out;
  MRS_RETURN_IF_ERROR(AppendBinaryRecords(data, &out));
  return out;
}

Status AppendBinaryRecords(std::string_view data, std::vector<KeyValue>* out) {
  if (!StartsWith(data, kBinaryRecordMagic)) {
    return DataLossError("missing binary record magic");
  }
  ByteReader r(data.substr(kBinaryRecordMagic.size()));
  MRS_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  // A record is at least its key and value tags.
  if (n > r.remaining() / 2) {
    return DataLossError("record count " + std::to_string(n) +
                         " exceeds the body");
  }
  // Grow as push_back would, so appending many streams stays linear.
  if (out->capacity() - out->size() < n) {
    out->reserve(out->size() + std::max<size_t>(out->size(), n));
  }
  for (uint64_t i = 0; i < n; ++i) {
    KeyValue& kv = out->emplace_back();
    MRS_RETURN_IF_ERROR(Value::DeserializeInto(&r, &kv.key));
    MRS_RETURN_IF_ERROR(Value::DeserializeInto(&r, &kv.value));
  }
  if (!r.empty()) return DataLossError("trailing bytes after records");
  return Status::Ok();
}

std::string EncodeTextRecords(const std::vector<KeyValue>& records) {
  std::string out;
  for (const KeyValue& kv : records) {
    out += kv.key.Repr();
    out += '\t';
    out += kv.value.Repr();
    out += '\n';
  }
  return out;
}

namespace {

/// Cursor-based repr parser.
class ReprParser {
 public:
  explicit ReprParser(std::string_view s) : s_(s) {}

  Result<Value> Parse() {
    MRS_ASSIGN_OR_RETURN(Value v, ParseOne());
    SkipSpace();
    if (pos_ != s_.size()) return DataLossError("trailing text in repr");
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  Result<Value> ParseOne() {
    SkipSpace();
    if (pos_ >= s_.size()) return DataLossError("empty repr");
    char c = s_[pos_];
    if (s_.substr(pos_, 4) == "None") {
      pos_ += 4;
      return Value();
    }
    if (c == '\'' || (c == 'b' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '\'')) {
      bool is_bytes = (c == 'b');
      if (is_bytes) ++pos_;
      return ParseQuoted(is_bytes);
    }
    if (c == '[') {
      if (depth_ == kMaxValueDepth) {
        return DataLossError("list repr nested deeper than " +
                             std::to_string(kMaxValueDepth));
      }
      ++depth_;
      Result<Value> list = ParseList();
      --depth_;
      return list;
    }
    return ParseNumber();
  }

  Result<Value> ParseQuoted(bool is_bytes) {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '\'') {
        ++pos_;
        return is_bytes ? Value::BytesValue(std::move(out)) : Value(std::move(out));
      }
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return DataLossError("dangling escape");
        char e = s_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case '\\': out += '\\'; break;
          case '\'': out += '\''; break;
          case 'x': {
            if (pos_ + 2 > s_.size()) return DataLossError("bad \\x escape");
            auto hex = [](char h) -> int {
              if (h >= '0' && h <= '9') return h - '0';
              if (h >= 'a' && h <= 'f') return h - 'a' + 10;
              if (h >= 'A' && h <= 'F') return h - 'A' + 10;
              return -1;
            };
            int hi = hex(s_[pos_]);
            int lo = hex(s_[pos_ + 1]);
            if (hi < 0 || lo < 0) return DataLossError("bad \\x escape");
            out += static_cast<char>(hi * 16 + lo);
            pos_ += 2;
            break;
          }
          default:
            return DataLossError(std::string("unknown escape \\") + e);
        }
        continue;
      }
      out += c;
      ++pos_;
    }
    return DataLossError("unterminated string repr");
  }

  Result<Value> ParseList() {
    ++pos_;  // '['
    ValueList items;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      MRS_ASSIGN_OR_RETURN(Value v, ParseOne());
      items.push_back(std::move(v));
      SkipSpace();
      if (pos_ >= s_.size()) return DataLossError("unterminated list repr");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return Value(std::move(items));
      }
      return DataLossError("expected ',' or ']' in list repr");
    }
  }

  Result<Value> ParseNumber() {
    size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '+' || s_[pos_] == '-' || s_[pos_] == '.')) {
      ++pos_;
    }
    std::string_view tok = s_.substr(start, pos_ - start);
    if (tok.empty()) return DataLossError("expected number in repr");
    if (tok.find('.') == std::string_view::npos &&
        tok.find('e') == std::string_view::npos &&
        tok.find('E') == std::string_view::npos &&
        tok.find("inf") == std::string_view::npos &&
        tok.find("nan") == std::string_view::npos) {
      auto v = ParseInt64(tok);
      if (!v.has_value()) return DataLossError("bad int repr: " + std::string(tok));
      return Value(*v);
    }
    auto v = ParseDouble(tok);
    if (!v.has_value()) return DataLossError("bad double repr: " + std::string(tok));
    return Value(*v);
  }

  std::string_view s_;
  size_t pos_ = 0;
  int depth_ = 0;  // lists open around pos_
};

}  // namespace

Result<Value> ParseRepr(std::string_view text) {
  return ReprParser(text).Parse();
}

Result<std::vector<KeyValue>> DecodeTextRecords(std::string_view data) {
  std::vector<KeyValue> out;
  for (std::string_view line : SplitChar(data, '\n')) {
    if (Trim(line).empty()) continue;
    size_t tab = line.find('\t');
    if (tab == std::string_view::npos) {
      return DataLossError("text record missing TAB: " + std::string(line));
    }
    MRS_ASSIGN_OR_RETURN(Value key, ParseRepr(line.substr(0, tab)));
    MRS_ASSIGN_OR_RETURN(Value value, ParseRepr(line.substr(tab + 1)));
    out.push_back(KeyValue{std::move(key), std::move(value)});
  }
  return out;
}

Result<std::vector<KeyValue>> DecodeRecords(std::string_view data) {
  if (StartsWith(data, kBinaryRecordMagic)) return DecodeBinaryRecords(data);
  return DecodeTextRecords(data);
}

std::vector<KeyValue> LinesToRecords(std::string_view text) {
  std::vector<KeyValue> out;
  int64_t line_number = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    std::string_view line = (nl == std::string_view::npos)
                                ? text.substr(start)
                                : text.substr(start, nl - start);
    if (nl == std::string_view::npos) {
      if (!line.empty()) {
        out.push_back(KeyValue{Value(line_number), Value(line)});
      }
      break;
    }
    out.push_back(KeyValue{Value(line_number), Value(line)});
    ++line_number;
    start = nl + 1;
  }
  return out;
}

}  // namespace mrs
