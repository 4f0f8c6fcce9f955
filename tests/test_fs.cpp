// Tests for filesystem helpers and the bucket abstraction.
#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.h"
#include "fs/bucket.h"
#include "fs/file_io.h"
#include "http/message.h"
#include "ser/record.h"

namespace mrs {
namespace {

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mrs_fs_test_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { RemoveTree(dir_); }

  std::string dir_;
};

TEST_F(FsTest, WriteReadRoundTrip) {
  std::string path = JoinPath(dir_, "f.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "contents\n").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "contents\n");
}

TEST_F(FsTest, AtomicWriteReplacesExisting) {
  std::string path = JoinPath(dir_, "f.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "new").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "new");
  // No leftover temp files.
  auto files = ListFilesRecursive(dir_);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 1u);
}

TEST_F(FsTest, ReadMissingFileIsNotFound) {
  auto content = ReadFileToString(JoinPath(dir_, "missing"));
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kNotFound);
}

TEST_F(FsTest, AppendToFile) {
  std::string path = JoinPath(dir_, "log");
  ASSERT_TRUE(AppendToFile(path, "a").ok());
  ASSERT_TRUE(AppendToFile(path, "b").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "ab");
}

TEST_F(FsTest, EnsureDirCreatesNestedPath) {
  std::string nested = JoinPath(dir_, "a/b/c");
  ASSERT_TRUE(EnsureDir(nested).ok());
  EXPECT_TRUE(IsDirectory(nested));
  // Idempotent.
  ASSERT_TRUE(EnsureDir(nested).ok());
}

TEST_F(FsTest, ListFilesRecursiveSortedAcrossNestedDirs) {
  ASSERT_TRUE(EnsureDir(JoinPath(dir_, "x/y")).ok());
  ASSERT_TRUE(EnsureDir(JoinPath(dir_, "a")).ok());
  ASSERT_TRUE(WriteFileAtomic(JoinPath(dir_, "x/y/deep.txt"), "1").ok());
  ASSERT_TRUE(WriteFileAtomic(JoinPath(dir_, "a/top.txt"), "2").ok());
  ASSERT_TRUE(WriteFileAtomic(JoinPath(dir_, "root.txt"), "3").ok());
  auto files = ListFilesRecursive(dir_);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 3u);
  // Sorted lexicographically (deterministic task splits).
  EXPECT_TRUE(std::is_sorted(files->begin(), files->end()));
}

// ---- WriteFileAtomic durability windows ---------------------------------

// Restores normal operation even when an assertion bails out of the test.
struct FaultHookGuard {
  explicit FaultHookGuard(bool (*hook)(const char* step)) {
    SetWriteFileAtomicFaultHook(hook);
  }
  ~FaultHookGuard() { SetWriteFileAtomicFaultHook(nullptr); }
};

bool FailFsyncStep(const char* step) {
  return std::strcmp(step, "fsync") != 0;
}
bool FailRenameStep(const char* step) {
  return std::strcmp(step, "rename") != 0;
}
bool FailDirsyncStep(const char* step) {
  return std::strcmp(step, "dirsync") != 0;
}

TEST_F(FsTest, AtomicWriteFsyncFailurePreservesOldContent) {
  std::string path = JoinPath(dir_, "durable.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  {
    // The temp file's fsync fails before the rename: the prior content
    // must survive untouched and the temp file must not litter the dir.
    FaultHookGuard guard(FailFsyncStep);
    EXPECT_FALSE(WriteFileAtomic(path, "new").ok());
  }
  EXPECT_EQ(ReadFileToString(path).value(), "old");
  auto files = ListFilesRecursive(dir_);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 1u);
  // With the hook cleared the same write goes through.
  ASSERT_TRUE(WriteFileAtomic(path, "new").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "new");
}

TEST_F(FsTest, AtomicWriteRenameFailurePreservesOldContent) {
  std::string path = JoinPath(dir_, "durable.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  {
    FaultHookGuard guard(FailRenameStep);
    EXPECT_FALSE(WriteFileAtomic(path, "new").ok());
  }
  EXPECT_EQ(ReadFileToString(path).value(), "old");
  auto files = ListFilesRecursive(dir_);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 1u);
}

TEST_F(FsTest, AtomicWriteDirsyncFailureSurfacesAfterRename) {
  std::string path = JoinPath(dir_, "entry.txt");
  Status status;
  {
    FaultHookGuard guard(FailDirsyncStep);
    status = WriteFileAtomic(path, "x");
  }
  // The rename itself succeeded; the error reports that the directory
  // entry is not yet durable, so callers retry instead of losing data.
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ReadFileToString(path).value(), "x");
}

TEST_F(FsTest, FileSizeAndExists) {
  std::string path = JoinPath(dir_, "sz");
  ASSERT_TRUE(WriteFileAtomic(path, "12345").ok());
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + "x"));
  EXPECT_EQ(FileSize(path).value(), 5u);
}

TEST_F(FsTest, RemoveTreeDeletesEverything) {
  ASSERT_TRUE(EnsureDir(JoinPath(dir_, "t/u")).ok());
  ASSERT_TRUE(WriteFileAtomic(JoinPath(dir_, "t/u/f"), "x").ok());
  RemoveTree(JoinPath(dir_, "t"));
  EXPECT_FALSE(FileExists(JoinPath(dir_, "t")));
}

TEST(JoinPathTest, HandlesSlashes) {
  EXPECT_EQ(JoinPath("a", "b"), "a/b");
  EXPECT_EQ(JoinPath("a/", "b"), "a/b");
  EXPECT_EQ(JoinPath("", "b"), "b");
  EXPECT_EQ(JoinPath("a", ""), "a");
}

// ---- Buckets ----------------------------------------------------------------

std::vector<KeyValue> TwoRecords() {
  return {{Value("k1"), Value(int64_t{1})}, {Value("k2"), Value(2.5)}};
}

TEST_F(FsTest, BucketTextFileUrlIsReadAsLinesNeverFetched) {
  const std::string text = "one fish\ntwo fish\n";
  std::string path = JoinPath(dir_, "input.txt");
  ASSERT_TRUE(WriteFileAtomic(path, text).ok());
  Bucket b(0, 3);
  b.set_url("text+file://" + path);
  auto fetch = [](const std::string& url) -> Result<std::string> {
    ADD_FAILURE() << "input file went through the fetcher: " << url;
    return UnavailableError("fetch fault");
  };
  ASSERT_TRUE(b.EnsureLoaded(fetch).ok());
  EXPECT_EQ(b.records(), LinesToRecords(text));
  b.Evict();
  EXPECT_EQ(ReadFileToString(path).ValueOr(""), text);
}

TEST_F(FsTest, BucketHttpUrlUsesInjectedFetcher) {
  Bucket b(0, 0);
  b.set_url("http://fake.host:1/bucket/1/0/0");
  int fetches = 0;
  auto fetch = [&](const std::string& url) -> Result<std::string> {
    ++fetches;
    EXPECT_EQ(url, "http://fake.host:1/bucket/1/0/0");
    return EncodeBinaryRecords(TwoRecords());
  };
  ASSERT_TRUE(b.EnsureLoaded(fetch).ok());
  EXPECT_EQ(fetches, 1);
  EXPECT_EQ(b.records(), TwoRecords());
  // Second call is a no-op.
  ASSERT_TRUE(b.EnsureLoaded(fetch).ok());
  EXPECT_EQ(fetches, 1);
}

TEST_F(FsTest, BucketFetchFailurePropagates) {
  Bucket b(0, 0);
  b.set_url("http://gone:1/x");
  auto fetch = [](const std::string&) -> Result<std::string> {
    return UnavailableError("host gone");
  };
  EXPECT_FALSE(b.EnsureLoaded(fetch).ok());
  EXPECT_FALSE(b.loaded());
}

TEST_F(FsTest, BucketUnsupportedSchemeRejected) {
  Bucket b(0, 0);
  b.set_url("ftp://x/y");
  EXPECT_FALSE(b.EnsureLoaded(nullptr).ok());
}

TEST_F(FsTest, BucketMemoryOnlyIsAuthoritative) {
  Bucket b(0, 0);
  b.Append(Value("k"), Value(int64_t{9}));
  ASSERT_TRUE(b.EnsureLoaded(nullptr).ok());
  EXPECT_EQ(b.records().size(), 1u);
}

// ---- mrsk1 bucket frames ----------------------------------------------------

std::vector<BucketFrame> SampleFrames() {
  std::string binary;
  for (int i = 0; i < 256; ++i) binary += static_cast<char>(i);
  std::vector<BucketFrame> frames;
  frames.push_back({"ds1/0/0", ContentChecksum("payload one"), "payload one"});
  frames.push_back({"ds1/0/1", ContentChecksum(binary), binary});
  frames.push_back({"ds1/1/0", ContentChecksum(""), ""});
  return frames;
}

TEST(BucketFrames, RoundTripPreservesIdsChecksumsAndBinaryData) {
  std::vector<BucketFrame> frames = SampleFrames();
  auto decoded = DecodeBucketFrames(EncodeBucketFrames(frames));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ((*decoded)[i].id, frames[i].id);
    EXPECT_EQ((*decoded)[i].checksum, frames[i].checksum);
    EXPECT_EQ((*decoded)[i].data, frames[i].data);
  }
}

TEST(BucketFrames, EmptyFrameSetRoundTrips) {
  auto decoded = DecodeBucketFrames(EncodeBucketFrames({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(BucketFrames, CorruptionIsDataLoss) {
  std::string encoded = EncodeBucketFrames(SampleFrames());
  // Wrong magic.
  EXPECT_EQ(DecodeBucketFrames("xxxx" + encoded).status().code(),
            StatusCode::kDataLoss);
  // Truncation anywhere in the stream.
  for (size_t cut : {encoded.size() - 1, encoded.size() / 2, size_t{6}}) {
    EXPECT_EQ(DecodeBucketFrames(encoded.substr(0, cut)).status().code(),
              StatusCode::kDataLoss)
        << "cut at " << cut;
  }
  // Trailing junk after the last frame.
  EXPECT_EQ(DecodeBucketFrames(encoded + "z").status().code(),
            StatusCode::kDataLoss);
  // A flipped payload byte no longer matches its embedded checksum.
  std::string corrupt = encoded;
  corrupt[corrupt.size() - 60] ^= 0x01;
  EXPECT_EQ(DecodeBucketFrames(corrupt).status().code(),
            StatusCode::kDataLoss);
}

TEST(BucketFrames, FrameCountBeyondTheBodyIsDataLoss) {
  // 14 bytes: the magic and a count near 2^62 with no frames behind it.
  Bytes count;
  ByteWriter(&count).PutVarint((1ull << 62) + 5);
  const std::string body =
      std::string(kBucketFramesFormat) + std::string(count.begin(), count.end());
  ASSERT_EQ(body.size(), 14u);
  EXPECT_EQ(DecodeBucketFrames(body).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeBucketBody(body).status().code(), StatusCode::kDataLoss);
}

TEST(BucketFrames, OldPeerFnv1aFramesVerifyAndStillCatchCorruption) {
  // A peer that predates XXH64 checksums frames with bare-hex FNV-1a.
  const std::vector<KeyValue> records = {{Value("k"), Value(int64_t{1})},
                                         {Value("k"), Value(int64_t{2})}};
  const std::string payload = EncodeBinaryRecords(records);
  std::vector<BucketFrame> frames = {{"1/0/0#run0", Fnv1aChecksum(payload),
                                      payload},
                                     {"1/0/0#run1", ContentChecksum(payload),
                                      payload}};
  const std::string body = EncodeBucketFrames(frames);
  auto decoded = DecodeBucketBody(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->size(), 4u);
  // The last byte of each frame's payload, flipped.
  for (size_t at : {body.find(payload) + payload.size() - 1, body.size() - 1}) {
    std::string corrupt = body;
    corrupt[at] ^= 0x01;
    EXPECT_EQ(DecodeBucketFrames(corrupt).status().code(),
              StatusCode::kDataLoss)
        << "flip at " << at;
  }
}

// ---- Checksum forms --------------------------------------------------------

TEST(ContentChecksum, NamesXxh64AndKeepsTheOldFnv1aForm) {
  EXPECT_EQ(ContentChecksum(""), "xxh64:ef46db3751d8e999");
  EXPECT_EQ(ContentChecksum("abc"), "xxh64:44bc2cf5ad770999");
  EXPECT_EQ(Fnv1aChecksum(""), "cbf29ce484222325");
  EXPECT_EQ(Fnv1aChecksum("a"), "af63dc4c8601ec8c");
}

TEST(ContentChecksum, VerifiesWithTheAlgorithmTheValueNames) {
  const std::string body = "a payload longer than one 32-byte XXH64 stripe";
  const std::string xxh64 = ContentChecksum(body);
  const std::string fnv1a = Fnv1aChecksum(body);
  EXPECT_TRUE(ChecksumMatches(body, xxh64));
  EXPECT_TRUE(ChecksumMatches(body, fnv1a));
  EXPECT_FALSE(ChecksumMatches(body + "!", xxh64));
  EXPECT_FALSE(ChecksumMatches(body + "!", fnv1a));
  // One algorithm's digits under the other's name never match, and
  // neither does a value of any other form.
  const std::string xxh64_digits = xxh64.substr(6);
  for (const std::string& bad :
       {xxh64_digits, "xxh64:" + fnv1a, std::string(), std::string("xxh64:"),
        "crc32:" + xxh64_digits, xxh64 + "0", fnv1a.substr(1)}) {
    EXPECT_FALSE(ChecksumMatches(body, bad)) << bad;
  }
  EXPECT_FALSE(ChecksumMatches("", "xxh64:EF46DB3751D8E999"));
  // Streaming in pieces gives the one-shot verdict.
  for (const std::string& expected : {xxh64, fnv1a}) {
    ChecksumVerifier verifier(expected);
    for (size_t at = 0; at < body.size(); at += 5) {
      verifier.Update(std::string_view(body).substr(at, 5));
    }
    EXPECT_TRUE(verifier.Matches()) << expected;
  }
}

}  // namespace
}  // namespace mrs
