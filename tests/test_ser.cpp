// Tests for the dynamic Value type and the record formats, including
// parameterized round-trip property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "rng/mt19937_64.h"
#include "ser/record.h"
#include "ser/value.h"

namespace mrs {
namespace {

Value Bytes_(std::string s) { return Value::BytesValue(std::move(s)); }

std::vector<Value> SampleValues() {
  return {
      Value(),
      Value(int64_t{0}),
      Value(int64_t{-1}),
      Value(int64_t{1} << 40),
      Value(INT64_MIN),
      Value(3.5),
      Value(-0.25),
      Value(1e300),
      Value(""),
      Value("hello"),
      Value("with\ttab\nand newline"),
      Value("unicode: żółć"),
      Bytes_(std::string("\x00\x01\xff\x7f", 4)),
      Value(ValueList{}),
      Value(ValueList{Value(int64_t{1}), Value("two"), Value(3.0)}),
      Value(ValueList{Value(ValueList{Value(int64_t{1})}),
                      Value(ValueList{})}),
  };
}

// ---- Round trips (parameterized over the sample corpus) ------------------

class ValueRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ValueRoundTrip, BinarySerializeDeserialize) {
  Value v = SampleValues()[static_cast<size_t>(GetParam())];
  Bytes buf;
  ByteWriter w(&buf);
  v.Serialize(&w);
  ByteReader r(buf);
  Value out;
  Status status = Value::DeserializeInto(&r, &out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, v);
  EXPECT_TRUE(r.empty());
}

TEST_P(ValueRoundTrip, ReprParseRepr) {
  Value v = SampleValues()[static_cast<size_t>(GetParam())];
  Result<Value> out = ParseRepr(v.Repr());
  ASSERT_TRUE(out.ok()) << v.Repr() << ": " << out.status().ToString();
  EXPECT_EQ(*out, v) << v.Repr();
}

TEST_P(ValueRoundTrip, HashConsistentWithEquality) {
  Value v = SampleValues()[static_cast<size_t>(GetParam())];
  Bytes buf;
  ByteWriter w(&buf);
  v.Serialize(&w);
  ByteReader r(buf);
  Value copy;
  ASSERT_TRUE(Value::DeserializeInto(&r, &copy).ok());
  EXPECT_EQ(v.Hash(), copy.Hash());
}

INSTANTIATE_TEST_SUITE_P(AllSamples, ValueRoundTrip,
                         ::testing::Range(0, static_cast<int>(
                                                 SampleValues().size())));

// ---- Ordering semantics ----------------------------------------------------

TEST(Value, TotalOrderAcrossTypes) {
  // None < numbers < strings < bytes < lists.
  EXPECT_LT(Value(), Value(int64_t{-100}));
  EXPECT_LT(Value(int64_t{5}), Value("a"));
  EXPECT_LT(Value("zzz"), Bytes_("aaa"));
  EXPECT_LT(Bytes_("zzz"), Value(ValueList{}));
}

TEST(Value, MixedNumericComparesNumerically) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_LT(Value(1.5), Value(int64_t{2}));
  EXPECT_GT(Value(int64_t{3}), Value(2.5));
}

TEST(Value, IntDoubleEqualImpliesEqualHash) {
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(7.0).Hash());
}

TEST(Value, HashIsPinnedToFnv1aOfTheSerializedForm) {
  // The default partitioner routes keys by Hash(): a new value here would
  // move keys between reduce splits and change every job's output files.
  EXPECT_EQ(Value().Hash(), 0xaf63bd4c8601b7dfull);
  EXPECT_EQ(Value(int64_t{7}).Hash(), 0x082f1807b4e87bc6ull);
  EXPECT_EQ(Value("key").Hash(), 0x3e88c2f98ef1337aull);
  EXPECT_EQ(Value(ValueList{Value(int64_t{1}), Value("a")}).Hash(),
            0xab6cb40227edd2d8ull);
}

TEST(Value, ListLexicographicOrder) {
  Value a(ValueList{Value(int64_t{1}), Value(int64_t{2})});
  Value b(ValueList{Value(int64_t{1}), Value(int64_t{3})});
  Value c(ValueList{Value(int64_t{1})});
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);  // prefix is smaller
}

TEST(Value, StringOrderIsBytewise) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value("ab"), Value("abc"));
}

TEST(Value, ComparisonIsAntisymmetricOnSamples) {
  auto values = SampleValues();
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a))
          << a.Repr() << " vs " << b.Repr();
    }
  }
}

TEST(Value, SortingSamplesIsStableAndTotal) {
  auto values = SampleValues();
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_LE(values[i], values[i + 1]);
  }
}

// ---- Repr details -----------------------------------------------------------

TEST(Value, ReprDistinguishesIntFromDouble) {
  EXPECT_EQ(Value(int64_t{2}).Repr(), "2");
  EXPECT_EQ(Value(2.0).Repr(), "2.0");
  EXPECT_TRUE(ParseRepr("2").value().is_int());
  EXPECT_TRUE(ParseRepr("2.0").value().is_double());
}

TEST(Value, ReprEscapesControlCharacters) {
  Value v(std::string("a\x01" "b"));
  EXPECT_EQ(v.Repr(), "'a\\x01b'");
  EXPECT_EQ(ParseRepr(v.Repr()).value(), v);
}

TEST(ParseRepr, RejectsGarbage) {
  EXPECT_FALSE(ParseRepr("").ok());
  EXPECT_FALSE(ParseRepr("'unterminated").ok());
  EXPECT_FALSE(ParseRepr("[1, 2").ok());
  EXPECT_FALSE(ParseRepr("1 2").ok());
  EXPECT_FALSE(ParseRepr("12abc").ok());
}

// ---- The tagged union's ownership rules ----------------------------------

static_assert(sizeof(KeyValue) <= 80);

/// One value of each of the six types, plus a string too long for
/// std::string's inline buffer.
std::vector<Value> OneOfEachType() {
  return {
      Value(),
      Value(int64_t{-1234567890123}),
      Value(6.25),
      Value(std::string("tab\there'q")),
      Bytes_(std::string("\x00\x01\xff", 3)),
      Value(ValueList{Value(int64_t{1}), Value("a"), Value(ValueList{}),
                      Value(2.0)}),
      Value(std::string(90, 'v')),
  };
}

TEST(ValueOwnership, CopyAndMoveConstructEveryType) {
  for (const Value& v : OneOfEachType()) {
    Value copy(v);
    EXPECT_EQ(copy.type(), v.type());
    EXPECT_EQ(copy, v) << v.Repr();
    Value source(v);
    Value moved(std::move(source));
    EXPECT_EQ(moved.type(), v.type());
    EXPECT_EQ(moved, v) << v.Repr();
  }
}

TEST(ValueOwnership, CopyAndMoveAssignBetweenEveryPairOfTypes) {
  const std::vector<Value> values = OneOfEachType();
  for (const Value& from : values) {
    for (const Value& to : values) {
      Value copied(to);
      const Value source(from);
      copied = source;
      EXPECT_EQ(copied.type(), from.type());
      EXPECT_EQ(copied.Repr(), from.Repr()) << "over " << to.Repr();
      EXPECT_EQ(source.Repr(), from.Repr()) << "copy source changed";

      Value moved(to);
      Value donor(from);
      moved = std::move(donor);
      EXPECT_EQ(moved.type(), from.type());
      EXPECT_EQ(moved.Repr(), from.Repr()) << "over " << to.Repr();
    }
  }
}

TEST(ValueOwnership, SelfAssignmentKeepsTheValue) {
  for (const Value& v : OneOfEachType()) {
    Value a(v);
    const Value& same = a;
    a = same;
    EXPECT_EQ(a.Repr(), v.Repr());
    Value& alias = a;
    a = std::move(alias);
    EXPECT_EQ(a.Repr(), v.Repr());
  }
}

TEST(ValueOwnership, AssigningAnElementOfTheValuesOwnListIsSafe) {
  // Copy assignment builds the new payload before it drops the old one,
  // which here owns the source.
  Value v(ValueList{Value(std::string(90, 'e')), Value(int64_t{2})});
  v = v.AsList()[0];
  EXPECT_EQ(v, Value(std::string(90, 'e')));

  Value nested(ValueList{Value(ValueList{Value("inner")})});
  nested = nested.AsList()[0];
  EXPECT_EQ(nested, Value(ValueList{Value("inner")}));
  nested = nested.AsList()[0];
  EXPECT_EQ(nested, Value("inner"));
}

TEST(ValueOwnership, MovedFromValuesKeepTheirTypeAndTakeAnyNewValue) {
  const std::vector<Value> values = OneOfEachType();
  for (const Value& from : values) {
    for (const Value& next : values) {
      Value source(from);
      Value sink(std::move(source));
      EXPECT_EQ(source.type(), from.type());
      if (from.is_none() || from.is_numeric()) {
        EXPECT_EQ(source, from);
      }
      source = next;
      EXPECT_EQ(source.Repr(), next.Repr());

      Value again(from);
      Value sink2(std::move(again));
      again = Value(next);
      EXPECT_EQ(again.Repr(), next.Repr());
    }
  }
}

TEST(ValueOwnership, CopiesShareOneImmutableList) {
  Value a(ValueList{Value(int64_t{1}), Value("two"), Value(3.0)});
  const ValueList* storage = &a.AsList();
  Value b(a);
  Value c;
  c = a;
  EXPECT_EQ(&b.AsList(), storage);
  EXPECT_EQ(&c.AsList(), storage);
  a = Value("replaced");  // the other holders keep the list alive
  EXPECT_EQ(&b.AsList(), storage);
  ASSERT_EQ(b.AsList().size(), 3u);
  EXPECT_EQ(b.AsList()[1], Value("two"));
  Value d(std::move(b));
  EXPECT_EQ(&d.AsList(), storage);
  EXPECT_EQ(d, c);
}

TEST(ValueOwnership, DeserializeIntoOverwritesADestinationOfEveryType) {
  const std::vector<Value> values = OneOfEachType();
  for (const Value& encoded : values) {
    Bytes buf;
    ByteWriter w(&buf);
    encoded.Serialize(&w);
    for (const Value& before : values) {
      Value out(before);
      ByteReader r(buf);
      Status status = Value::DeserializeInto(&r, &out);
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(out.type(), encoded.type());
      EXPECT_EQ(out.Repr(), encoded.Repr()) << "into " << before.Repr();
    }
  }
}

TEST(ValueOwnership, DeserializeIntoReusesTheDestinationsStringBuffer) {
  Bytes buf;
  ByteWriter w(&buf);
  Value(std::string(40, 'n')).Serialize(&w);
  Bytes_(std::string(20, 'b')).Serialize(&w);
  Value out(std::string(90, 'o'));
  const char* storage = out.AsString().data();
  ByteReader r(buf);
  ASSERT_TRUE(Value::DeserializeInto(&r, &out).ok());
  EXPECT_EQ(out, Value(std::string(40, 'n')));
  EXPECT_EQ(out.AsString().data(), storage);
  ASSERT_TRUE(Value::DeserializeInto(&r, &out).ok());
  EXPECT_EQ(out, Bytes_(std::string(20, 'b')));
  EXPECT_EQ(out.AsString().data(), storage);
}

TEST(ValueOwnership, FailedDeserializeIntoLeavesAUsableValue) {
  Bytes buf;
  ByteWriter w(&buf);
  Value(ValueList{Value(std::string(90, 'x')), Value(int64_t{1})})
      .Serialize(&w);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    for (const Value& before : OneOfEachType()) {
      Value out(before);
      ByteReader r(buf.data(), cut);
      EXPECT_EQ(Value::DeserializeInto(&r, &out).code(),
                StatusCode::kDataLoss);
      out = Value("usable");  // assignable and destructible
      EXPECT_EQ(out, Value("usable"));
    }
  }
}

// ---- Results pinned at the untagged layout --------------------------------
//
// Captured from the layout that held every member side by side (72
// bytes).  Serialize feeds the wire and the partitioner, Hash routes keys,
// Repr is the text output and Compare the sort order, so none may move.

struct Pinned {
  std::string serialized;
  uint64_t hash;
  std::string repr;
};

TEST(ValueGolden, SerializeHashAndReprOfEachType) {
  const std::vector<Pinned> pinned = {
      {std::string("\x00", 1), 0xaf63bd4c8601b7dfull, "None"},
      {"\x01\x95\x93\xd8\x9f\xee\x47", 0xff444ea91e1ed8faull,
       "-1234567890123"},
      {std::string("\x02\x00\x00\x00\x00\x00\x00\x19\x40", 9),
       0x0c8476f54d7e53a4ull, "6.25"},
      {"\x03\x0a" "tab\there'q", 0xf93063d725ce68a0ull, "'tab\\there\\'q'"},
      {std::string("\x04\x03\x00\x01\xff", 5), 0xd2145e162d504e14ull,
       "b'\\x00\\x01\xff'"},
      {std::string("\x05\x04\x01\x02\x03\x01" "a" "\x05\x00\x02"
                   "\x00\x00\x00\x00\x00\x00\x00\x40", 18),
       0x0af39c065f4e14efull, "[1, 'a', [], 2.0]"},
  };
  const std::vector<Value> values = OneOfEachType();
  for (size_t i = 0; i < pinned.size(); ++i) {
    Bytes buf;
    ByteWriter w(&buf);
    values[i].Serialize(&w);
    EXPECT_EQ(std::string(buf.begin(), buf.end()), pinned[i].serialized)
        << i;
    EXPECT_EQ(values[i].Hash(), pinned[i].hash) << i;
    EXPECT_EQ(values[i].Repr(), pinned[i].repr) << i;
  }
}

TEST(ValueGolden, PairwiseCompareOfEachType) {
  // None < int < double (numerically here) < string < bytes < list.
  const int expected[6][6] = {
      {0, -1, -1, -1, -1, -1}, {1, 0, -1, -1, -1, -1},
      {1, 1, 0, -1, -1, -1},   {1, 1, 1, 0, -1, -1},
      {1, 1, 1, 1, 0, -1},     {1, 1, 1, 1, 1, 0},
  };
  const std::vector<Value> values = OneOfEachType();
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(values[i].Compare(values[j]), expected[i][j]) << i << "," << j;
    }
  }
}

TEST(ValueGolden, BudgetChargeStaysAtTheUntaggedLayout) {
  // The memory budget charges 72 bytes a value, whatever sizeof(Value)
  // is, so spill decisions do not move with the layout.
  const KeyValue distsort{Value(std::string(10, 'k')),
                          Value(std::string(90, 'v'))};
  EXPECT_EQ(ApproxMemoryBytes(distsort), 244u);
  const std::vector<Value> values = OneOfEachType();
  EXPECT_EQ(values[0].ApproxMemoryBytes(), 72u);
  EXPECT_EQ(values[3].ApproxMemoryBytes(), 82u);
  EXPECT_EQ(values[5].ApproxMemoryBytes(), 409u);
}

// ---- Record streams ----------------------------------------------------------

std::vector<KeyValue> SampleRecords() {
  return {
      {Value("alpha"), Value(int64_t{3})},
      {Value(int64_t{7}), Value(ValueList{Value(1.5), Value("x")})},
      {Value(), Bytes_("raw\x00里"
                       "x")},
  };
}

TEST(Records, BinaryRoundTrip) {
  auto records = SampleRecords();
  std::string encoded = EncodeBinaryRecords(records);
  auto out = DecodeBinaryRecords(encoded);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, records);
}

TEST(Records, TextRoundTrip) {
  std::vector<KeyValue> records = {
      {Value("word"), Value(int64_t{12})},
      {Value(int64_t{-3}), Value(2.25)},
      {Value("tab\there"), Value("v")},
  };
  std::string encoded = EncodeTextRecords(records);
  auto out = DecodeTextRecords(encoded);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, records);
}

TEST(Records, AutoDetectFormat) {
  auto records = SampleRecords();
  EXPECT_EQ(DecodeRecords(EncodeBinaryRecords(records)).value(), records);
  std::vector<KeyValue> textable = {{Value("k"), Value(int64_t{1})}};
  EXPECT_EQ(DecodeRecords(EncodeTextRecords(textable)).value(), textable);
}

TEST(Records, CorruptBinaryDetected) {
  auto records = SampleRecords();
  std::string encoded = EncodeBinaryRecords(records);
  // Truncate mid-record.
  EXPECT_FALSE(DecodeBinaryRecords(encoded.substr(0, encoded.size() - 3)).ok());
  // Flip the magic.
  std::string bad = encoded;
  bad[0] = 'X';
  EXPECT_FALSE(DecodeBinaryRecords(bad).ok());
  // Trailing garbage.
  EXPECT_FALSE(DecodeBinaryRecords(encoded + "zz").ok());
}

TEST(Records, EmptyStreamRoundTrips) {
  std::vector<KeyValue> empty;
  EXPECT_TRUE(DecodeBinaryRecords(EncodeBinaryRecords(empty)).value().empty());
  EXPECT_TRUE(DecodeTextRecords(EncodeTextRecords(empty)).value().empty());
}

TEST(Records, LinesToRecordsNumbersLines) {
  auto records = LinesToRecords("first\nsecond\n\nfourth\n");
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].key.AsInt(), 0);
  EXPECT_EQ(records[0].value.AsString(), "first");
  EXPECT_EQ(records[2].value.AsString(), "");
  EXPECT_EQ(records[3].key.AsInt(), 3);
}

TEST(Records, LinesToRecordsNoTrailingNewline) {
  auto records = LinesToRecords("only");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].value.AsString(), "only");
  EXPECT_TRUE(LinesToRecords("").empty());
}

TEST(Records, KeyValueLessGroupsKeys) {
  std::vector<KeyValue> records = {
      {Value("b"), Value(int64_t{1})},
      {Value("a"), Value(int64_t{2})},
      {Value("a"), Value(int64_t{1})},
  };
  std::sort(records.begin(), records.end(), KeyValueLess);
  EXPECT_EQ(records[0].key.AsString(), "a");
  EXPECT_EQ(records[0].value.AsInt(), 1);
  EXPECT_EQ(records[1].value.AsInt(), 2);
  EXPECT_EQ(records[2].key.AsString(), "b");
}

// ---- Fuzz-ish random round trips -------------------------------------------

Value RandomValue(MT19937_64& rng, int depth) {
  switch (rng.NextBounded(depth > 0 ? 6 : 5)) {
    case 0: return Value();
    case 1: return Value(static_cast<int64_t>(rng.NextU64()));
    case 2: return Value(rng.NextDouble() * 1e6 - 5e5);
    case 3: {
      std::string s;
      uint64_t len = rng.NextBounded(12);
      for (uint64_t i = 0; i < len; ++i) {
        s += static_cast<char>(rng.NextBounded(256));
      }
      return Value::BytesValue(std::move(s));
    }
    case 4: {
      std::string s;
      uint64_t len = rng.NextBounded(12);
      for (uint64_t i = 0; i < len; ++i) {
        s += static_cast<char>('a' + rng.NextBounded(26));
      }
      return Value(std::move(s));
    }
    default: {
      ValueList list;
      uint64_t len = rng.NextBounded(5);
      for (uint64_t i = 0; i < len; ++i) {
        list.push_back(RandomValue(rng, depth - 1));
      }
      return Value(std::move(list));
    }
  }
}

TEST(Records, RandomizedBinaryRoundTrips) {
  MT19937_64 rng(2024);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::vector<KeyValue> records;
    uint64_t n = rng.NextBounded(8);
    for (uint64_t i = 0; i < n; ++i) {
      records.push_back(KeyValue{RandomValue(rng, 2), RandomValue(rng, 2)});
    }
    auto out = DecodeBinaryRecords(EncodeBinaryRecords(records));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, records);
  }
}

// ---- SortRecords against std::stable_sort ----------------------------------

/// A value from a small pool, so keys tie often and stability shows: None,
/// ints and doubles that compare equal (1 and 1.0, -0.0 and 0.0), strings
/// and bytes holding NUL and 0xFF or sharing a 7-byte prefix, and lists.
Value TieProneValue(MT19937_64& rng, int depth) {
  static const char* kStrings[] = {"", "a", "ab", "prefix7", "prefix7a",
                                   "prefix7b"};
  switch (rng.NextBounded(depth > 0 ? 7 : 6)) {
    case 0: return Value();
    case 1: return Value(static_cast<int64_t>(rng.NextBounded(5)) - 2);
    case 2: {
      static const double kDoubles[] = {-0.0, 0.0, 1.0, 0.5, -2.0, 1e300};
      return Value(kDoubles[rng.NextBounded(6)]);
    }
    case 3:
    case 4: {
      // A pool string, then up to 3 bytes from {NUL, 'a', 0xFF}.
      std::string text = kStrings[rng.NextBounded(6)];
      for (uint64_t i = rng.NextBounded(4); i > 0; --i) {
        const char kTail[] = {'\0', 'a', '\xff'};
        text += kTail[rng.NextBounded(3)];
      }
      return rng.NextBounded(2) == 0 ? Value(std::move(text))
                                     : Value::BytesValue(std::move(text));
    }
    case 5: return Value(int64_t{1});
    default: {
      ValueList list;
      for (uint64_t i = rng.NextBounded(3); i > 0; --i) {
        list.push_back(TieProneValue(rng, depth - 1));
      }
      return Value(std::move(list));
    }
  }
}

TEST(SortRecords, MatchesStableSortByteForByte) {
  MT19937_64 rng(31);
  for (int vector = 0; vector < 3000; ++vector) {
    std::vector<KeyValue> records;
    for (uint64_t i = rng.NextBounded(301); i > 0; --i) {
      records.push_back({TieProneValue(rng, 1), TieProneValue(rng, 1)});
    }
    std::vector<KeyValue> expected = records;
    std::stable_sort(expected.begin(), expected.end(), KeyValueLess);
    SortRecords(records);
    // Bytes, not operator==, which calls 1 and 1.0 equal.
    ASSERT_EQ(EncodeBinaryRecords(records), EncodeBinaryRecords(expected))
        << "vector " << vector;
  }
}

TEST(SortRecords, PrefixOrderNeverContradictsCompare) {
  MT19937_64 rng(32);
  std::vector<Value> values = SampleValues();
  for (int i = 0; i < 400; ++i) values.push_back(TieProneValue(rng, 1));
  for (const Value& a : values) {
    for (const Value& b : values) {
      if (a.OrderPrefix() < b.OrderPrefix()) {
        ASSERT_LT(a.Compare(b), 0) << a.Repr() << " vs " << b.Repr();
      }
    }
  }
}

TEST(SortRecords, NanKeysAndValuesKeepEveryRecord) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MT19937_64 rng(33);
  for (int vector = 0; vector < 200; ++vector) {
    std::vector<KeyValue> records;
    for (uint64_t i = rng.NextBounded(301); i > 0; --i) {
      Value key = rng.NextBounded(4) == 0 ? Value(nan) : TieProneValue(rng, 1);
      Value value =
          rng.NextBounded(4) == 0 ? Value(nan) : TieProneValue(rng, 1);
      records.push_back({std::move(key), std::move(value)});
    }
    // A permutation: the same record encodings, as a multiset.
    auto encodings = [](const std::vector<KeyValue>& rs) {
      std::vector<std::string> out;
      for (const KeyValue& kv : rs) out.push_back(EncodeBinaryRecords({kv}));
      std::sort(out.begin(), out.end());
      return out;
    };
    std::vector<std::string> before = encodings(records);
    SortRecords(records);
    ASSERT_EQ(encodings(records), before) << "vector " << vector;
  }
}

// ---- Hostile bodies --------------------------------------------------------
//
// Every fetched bucket goes through these decoders.  Each body below once
// aborted the process (an allocation sized by a count the body cannot
// hold) or overflowed the stack (one recursion per nesting level); each
// must be kDataLoss.

std::string Varint(uint64_t v) {
  Bytes buf;
  ByteWriter(&buf).PutVarint(v);
  return std::string(buf.begin(), buf.end());
}

std::string NestedLists(int depth) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += "\x05\x01";  // kList, one element
  return out + '\0';                                  // innermost None
}

TEST(HostileRecords, RecordCountBeyondTheBodyIsDataLoss) {
  const std::string body = std::string(kBinaryRecordMagic) + Varint(0xffffffff);
  ASSERT_EQ(body.size(), 11u);
  EXPECT_EQ(DecodeBinaryRecords(body).status().code(), StatusCode::kDataLoss);
}

TEST(HostileRecords, ListLengthBeyondTheBodyIsDataLoss) {
  // One record whose key claims 2^30 elements.
  const std::string body = std::string(kBinaryRecordMagic) + Varint(1) +
                           "\x05" + Varint(1ull << 30);
  ASSERT_EQ(body.size(), 13u);
  EXPECT_EQ(DecodeBinaryRecords(body).status().code(), StatusCode::kDataLoss);
}

TEST(HostileRecords, DeeplyNestedListIsDataLoss) {
  // 400 KB: a key of 200000 nested one-element lists, and a None value.
  const std::string body = std::string(kBinaryRecordMagic) + Varint(1) +
                           NestedLists(200000) + '\0';
  EXPECT_EQ(DecodeBinaryRecords(body).status().code(), StatusCode::kDataLoss);
}

TEST(HostileRecords, DeeplyNestedReprIsDataLoss) {
  const std::string text = "1\t" + std::string(400000, '[');
  EXPECT_EQ(DecodeRecords(text).status().code(), StatusCode::kDataLoss);
}

TEST(HostileRecords, NestingUpToTheDepthCapRoundTrips) {
  Value v;
  for (int i = 0; i < kMaxValueDepth; ++i) v = Value(ValueList{v});
  const std::vector<KeyValue> records = {{v, Value()}};
  auto binary = DecodeBinaryRecords(EncodeBinaryRecords(records));
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(*binary, records);
  auto text = DecodeTextRecords(EncodeTextRecords(records));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, records);
  // One level more is refused by both decoders.
  const std::vector<KeyValue> deeper = {{Value(ValueList{v}), Value()}};
  EXPECT_EQ(DecodeBinaryRecords(EncodeBinaryRecords(deeper)).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeTextRecords(EncodeTextRecords(deeper)).status().code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace mrs
