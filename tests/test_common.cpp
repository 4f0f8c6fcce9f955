// Unit tests for src/common: Status/Result, strings, varint framing,
// hashing, options parsing, clocks.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/options.h"
#include "common/status.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace mrs {
namespace {

// ---- Status / Result ----------------------------------------------------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IO_ERROR: disk on fire");
}

TEST(Status, RetryableClassification) {
  EXPECT_TRUE(UnavailableError("x").retryable());
  EXPECT_TRUE(DeadlineExceededError("x").retryable());
  EXPECT_FALSE(InvalidArgumentError("x").retryable());
  EXPECT_FALSE(DataLossError("x").retryable());
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = NotFoundError("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> Doubler(Result<int> in) {
  MRS_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(InternalError("boom")).status().code(),
            StatusCode::kInternal);
}

// ---- Strings -------------------------------------------------------------

TEST(Strings, SplitCharKeepsEmptyFields) {
  auto parts = SplitChar("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWhitespaceMatchesPythonSplit) {
  auto parts = SplitWhitespace("  the\tquick\n brown  fox ");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "the");
  EXPECT_EQ(parts[3], "fox");
  EXPECT_TRUE(SplitWhitespace("   \t\n ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(Strings, SplitCharLimit) {
  auto parts = SplitCharLimit("a:b:c:d", ':', 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b:c:d");
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\r\n"), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(ToLowerAscii("MiXeD"), "mixed");
  EXPECT_EQ(ToUpperAscii("MiXeD"), "MIXED");
  EXPECT_TRUE(EqualsIgnoreCase("Content-Length", "content-length"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "ab"));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("ht", "http://"));
  EXPECT_TRUE(EndsWith("file.txt", ".txt"));
  EXPECT_FALSE(EndsWith("txt", ".txt"));
}

TEST(Strings, ParseInt64Strict) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_FALSE(ParseInt64("42x").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64(" 42").has_value());
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("3.5z").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

TEST(Strings, StrPrintf) {
  EXPECT_EQ(StrPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrPrintf("%s", ""), "");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("none here", "xyz", "q"), "none here");
}

TEST(Strings, XmlEscape) {
  EXPECT_EQ(XmlEscape("a<b>&\"c"), "a&lt;b&gt;&amp;&quot;c");
}

// ---- Bytes / varint -------------------------------------------------------

TEST(Bytes, VarintRoundTrip) {
  const uint64_t cases[] = {0, 1, 127, 128, 300, 1ull << 21, 1ull << 42,
                            ~0ull};
  for (uint64_t v : cases) {
    Bytes buf;
    ByteWriter w(&buf);
    w.PutVarint(v);
    ByteReader r(buf);
    auto out = r.GetVarint();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, v);
    EXPECT_TRUE(r.empty());
  }
}

TEST(Bytes, SignedVarintZigzag) {
  const int64_t cases[] = {0, -1, 1, -64, 63, INT64_MIN, INT64_MAX};
  for (int64_t v : cases) {
    Bytes buf;
    ByteWriter w(&buf);
    w.PutVarintSigned(v);
    ByteReader r(buf);
    auto out = r.GetVarintSigned();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, v);
  }
}

TEST(Bytes, TruncatedVarintIsError) {
  Bytes buf = {0x80, 0x80};  // continuation bits with no terminator
  ByteReader r(buf);
  EXPECT_FALSE(r.GetVarint().ok());
}

TEST(Bytes, OverlongVarintIsError) {
  Bytes buf(11, 0x80);
  ByteReader r(buf);
  EXPECT_FALSE(r.GetVarint().ok());
}

TEST(Bytes, LengthPrefixedRoundTrip) {
  Bytes buf;
  ByteWriter w(&buf);
  w.PutLengthPrefixed("hello");
  w.PutLengthPrefixed("");
  ByteReader r(buf);
  EXPECT_EQ(r.GetLengthPrefixed().value(), "hello");
  EXPECT_EQ(r.GetLengthPrefixed().value(), "");
  EXPECT_TRUE(r.empty());
}

TEST(Bytes, LengthPrefixedTruncationDetected) {
  Bytes buf;
  ByteWriter w(&buf);
  w.PutVarint(100);  // promises 100 bytes, delivers none
  ByteReader r(buf);
  EXPECT_FALSE(r.GetLengthPrefixed().ok());
}

TEST(Bytes, DoubleRoundTrip) {
  Bytes buf;
  ByteWriter w(&buf);
  w.PutDouble(3.141592653589793);
  w.PutDouble(-0.0);
  ByteReader r(buf);
  EXPECT_DOUBLE_EQ(r.GetDouble().value(), 3.141592653589793);
  EXPECT_DOUBLE_EQ(r.GetDouble().value(), -0.0);
}

// ---- Hash ------------------------------------------------------------------

TEST(Hash, Fnv1a64KnownVectors) {
  // Reference values for FNV-1a 64-bit.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  // Continuing from a previous result hashes the concatenation.
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
}

TEST(Hash, Xxh64KnownVectors) {
  // Reference values for XXH64 with seed 0.
  EXPECT_EQ(Xxh64Hash(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(Xxh64Hash("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(Xxh64Hash("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(Xxh64Hash("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
}

TEST(Hash, Xxh64StreamedInAnySplitMatchesOneShot) {
  // 200 bytes cover whole 32-byte stripes and every tail length; each cut
  // also tests a partial stripe carried across Update calls.
  std::string input(200, '\0');
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<char>(i * 37 + 11);
  }
  const std::string_view all(input);
  const uint64_t expected = Xxh64Hash(all);
  for (size_t cut = 0; cut <= all.size(); ++cut) {
    Xxh64 h;
    h.Update(all.substr(0, cut));
    h.Update(all.substr(cut));
    EXPECT_EQ(h.Digest(), expected) << "cut at " << cut;
  }
  Xxh64 bytewise;
  for (char c : input) bytewise.Update(std::string_view(&c, 1));
  EXPECT_EQ(bytewise.Digest(), expected);
  // Every prefix hashes as a one-shot of that prefix (Digest is not final).
  Xxh64 running;
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(running.Digest(), Xxh64Hash(all.substr(0, i))) << i;
    running.Update(all.substr(i, 1));
  }
}

TEST(Hash, SplitMix64IsBijectiveOnSample) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) outputs.insert(SplitMix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

// ---- Options ---------------------------------------------------------------

OptionParser MakeParser() {
  OptionParser parser;
  parser.Add("alpha", 'a', true, "an option", "dflt");
  parser.Add("flag", 'f', false, "a switch");
  parser.Add("num", 'n', true, "a number", "5");
  return parser;
}

TEST(Options, DefaultsApplied) {
  auto opts = MakeParser().Parse(std::vector<std::string>{});
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->GetString("alpha"), "dflt");
  EXPECT_EQ(opts->GetInt("num"), 5);
  EXPECT_FALSE(opts->GetBool("flag"));
}

TEST(Options, LongFormsAndEquals) {
  auto opts = MakeParser().Parse(
      std::vector<std::string>{"--alpha", "x", "--num=9", "--flag"});
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->GetString("alpha"), "x");
  EXPECT_EQ(opts->GetInt("num"), 9);
  EXPECT_TRUE(opts->GetBool("flag"));
}

TEST(Options, ShortFormsAttachedAndDetached) {
  auto opts =
      MakeParser().Parse(std::vector<std::string>{"-ax", "-f", "-n", "3"});
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->GetString("alpha"), "x");
  EXPECT_TRUE(opts->GetBool("flag"));
  EXPECT_EQ(opts->GetInt("num"), 3);
}

TEST(Options, PositionalArgsAndDoubleDash) {
  auto opts = MakeParser().Parse(
      std::vector<std::string>{"--flag", "file1", "--not-an-option"});
  ASSERT_TRUE(opts.ok());
  ASSERT_EQ(opts->args().size(), 2u);
  EXPECT_EQ(opts->args()[0], "file1");

  auto opts2 = MakeParser().Parse(
      std::vector<std::string>{"--", "--alpha", "positional"});
  ASSERT_TRUE(opts2.ok());
  EXPECT_EQ(opts2->args().size(), 2u);
  EXPECT_EQ(opts2->GetString("alpha"), "dflt");  // untouched
}

TEST(Options, UnknownOptionRejected) {
  EXPECT_FALSE(MakeParser().Parse(std::vector<std::string>{"--zzz"}).ok());
  EXPECT_FALSE(MakeParser().Parse(std::vector<std::string>{"-z"}).ok());
}

TEST(Options, MissingValueRejected) {
  EXPECT_FALSE(MakeParser().Parse(std::vector<std::string>{"--alpha"}).ok());
}

TEST(Options, StandardMrsOptionsParse) {
  OptionParser parser;
  AddStandardMrsOptions(&parser);
  auto opts = parser.Parse(std::vector<std::string>{
      "-I", "masterslave", "-N", "8", "--mrs-seed=99", "input.txt"});
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->GetString("mrs-impl"), "masterslave");
  EXPECT_EQ(opts->GetInt("mrs-num-slaves"), 8);
  EXPECT_EQ(opts->GetInt("mrs-seed"), 99);
  ASSERT_EQ(opts->args().size(), 1u);
}

TEST(Options, MalformedNumbersFallBackToDefaultAndCount) {
  Options opts;
  opts.Set("workers", "4x");
  opts.Set("ratio", "fast");
  opts.Set("good-int", "12");
  opts.Set("good-double", "2.5");
  int64_t before =
      obs::Registry::Instance().CounterValues()["mrs.options.parse_errors"];
  // Malformed values must not be half-parsed: the default wins, and each
  // occurrence is counted so the misconfiguration is visible in metrics.
  EXPECT_EQ(opts.GetInt("workers", 7), 7);
  EXPECT_DOUBLE_EQ(opts.GetDouble("ratio", 1.25), 1.25);
  // Well-formed and absent lookups never count.
  EXPECT_EQ(opts.GetInt("good-int", 0), 12);
  EXPECT_DOUBLE_EQ(opts.GetDouble("good-double", 0), 2.5);
  EXPECT_EQ(opts.GetInt("missing", 3), 3);
  int64_t after =
      obs::Registry::Instance().CounterValues()["mrs.options.parse_errors"];
  EXPECT_EQ(after - before, 2);
}

// ---- Clock ---------------------------------------------------------------

TEST(Clock, VirtualClockAdvances) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
  clock.AdvanceTo(5.0);
  EXPECT_DOUBLE_EQ(clock.Now(), 5.0);
  clock.AdvanceTo(3.0);  // never goes backward
  EXPECT_DOUBLE_EQ(clock.Now(), 5.0);
  clock.AdvanceBy(2.5);
  EXPECT_DOUBLE_EQ(clock.Now(), 7.5);
}

TEST(Clock, StopwatchMeasuresRealTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double elapsed = watch.ElapsedSeconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);
}

}  // namespace
}  // namespace mrs
