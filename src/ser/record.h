// Record stream formats for intermediate and final MapReduce data.
//
// Two formats, as in Mrs:
//  * binary ("mrsb"): length-framed serialized KeyValue records — the
//    default for intermediate data moved between slaves;
//  * text: one "key<TAB>value" line per record using Value::Repr — the
//    human-readable output format and the loader for line-oriented input.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ser/value.h"

namespace mrs {

/// Magic prefix identifying a binary record stream.
inline constexpr std::string_view kBinaryRecordMagic = "mrsb1\n";

/// The framework's one record sort: orders `records` exactly as
/// a std::stable_sort by KeyValueLess does.  It stable-sorts an index of
/// (key OrderPrefix, position) entries, asks KeyValueLess only when two
/// prefixes tie, then moves each record once into place.  The index sort
/// is a merge sort, so a key or value that breaks the order (a NaN)
/// reorders records but never loses one.
void SortRecords(std::vector<KeyValue>& records);

/// Serialize records to the binary format (with magic header).
std::string EncodeBinaryRecords(const std::vector<KeyValue>& records);

/// Parse a complete binary record stream.
Result<std::vector<KeyValue>> DecodeBinaryRecords(std::string_view data);

/// Parse a complete binary record stream onto the end of *out.  On error
/// *out may also hold some of the stream's records.
Status AppendBinaryRecords(std::string_view data, std::vector<KeyValue>* out);

/// Serialize records to the text format.
std::string EncodeTextRecords(const std::vector<KeyValue>& records);

/// Parse text records ("repr<TAB>repr" lines).  Values are parsed with
/// ParseRepr below; unparseable fields are DataLoss errors.
Result<std::vector<KeyValue>> DecodeTextRecords(std::string_view data);

/// Parse one Value from its Repr form (None, ints, doubles, quoted strings,
/// b'...' bytes, [..] lists).  Inverse of Value::Repr.
Result<Value> ParseRepr(std::string_view text);

/// Auto-detect (binary magic vs text) and decode.
Result<std::vector<KeyValue>> DecodeRecords(std::string_view data);

/// Plain-text lines -> (line_number, line) records, the default input
/// format for text files (WordCount's K1 = line number, V1 = line).
std::vector<KeyValue> LinesToRecords(std::string_view text);

}  // namespace mrs
