// Tests for the dynamic Value type and the record formats, including
// parameterized round-trip property sweeps.
#include <gtest/gtest.h>

#include <algorithm>

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
  Result<Value> out = Value::Deserialize(&r);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, v);
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
  Value copy = Value::Deserialize(&r).value();
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
