// Tests for the synthetic Gutenberg-like corpus generator.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "common/strings.h"
#include "corpus/corpus.h"
#include "fs/file_io.h"

#ifndef MRS_CORPUS_GEN_BINARY
#define MRS_CORPUS_GEN_BINARY ""
#endif

namespace mrs {
namespace {

CorpusSpec SmallSpec() {
  CorpusSpec spec;
  spec.num_files = 30;
  spec.words_per_file = 300;
  spec.vocabulary = 500;
  spec.seed = 99;
  spec.files_per_dir = 7;
  return spec;
}

class CorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mrs_corpus_test_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { RemoveTree(dir_); }
  std::string dir_;
};

TEST_F(CorpusTest, GeneratesRequestedFileCount) {
  auto files = GenerateCorpus(dir_, SmallSpec());
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  EXPECT_EQ(files->size(), 30u);
  for (const std::string& f : *files) {
    EXPECT_TRUE(FileExists(f)) << f;
  }
}

TEST_F(CorpusTest, LayoutIsNested) {
  auto files = GenerateCorpus(dir_, SmallSpec());
  ASSERT_TRUE(files.ok());
  // Every file sits two directory levels below the root ("etextN/M/").
  for (const std::string& f : *files) {
    std::string rel = f.substr(dir_.size() + 1);
    EXPECT_EQ(std::count(rel.begin(), rel.end(), '/'), 2) << rel;
  }
  // More than one leaf directory gets used.
  auto listing = ListFilesRecursive(dir_);
  ASSERT_TRUE(listing.ok());
  std::set<std::string> dirs;
  for (const std::string& f : *listing) {
    dirs.insert(f.substr(0, f.rfind('/')));
  }
  EXPECT_GT(dirs.size(), 2u);
}

TEST_F(CorpusTest, DeterministicUnderSeed) {
  auto files1 = GenerateCorpus(JoinPath(dir_, "one"), SmallSpec());
  auto files2 = GenerateCorpus(JoinPath(dir_, "two"), SmallSpec());
  ASSERT_TRUE(files1.ok() && files2.ok());
  ASSERT_EQ(files1->size(), files2->size());
  for (size_t i = 0; i < files1->size(); ++i) {
    EXPECT_EQ(ReadFileToString((*files1)[i]).value(),
              ReadFileToString((*files2)[i]).value());
  }
}

TEST_F(CorpusTest, DifferentSeedDifferentText) {
  CorpusSpec spec2 = SmallSpec();
  spec2.seed = 100;
  auto files1 = GenerateCorpus(JoinPath(dir_, "one"), SmallSpec());
  auto files2 = GenerateCorpus(JoinPath(dir_, "two"), spec2);
  ASSERT_TRUE(files1.ok() && files2.ok());
  EXPECT_NE(ReadFileToString(files1->front()).value(),
            ReadFileToString(files2->front()).value());
}

TEST_F(CorpusTest, ReportedCountsMatchActualRecount) {
  std::vector<uint64_t> rank_counts;
  CorpusStats stats;
  auto files = GenerateCorpusWithCounts(dir_, SmallSpec(), &rank_counts,
                                        &stats);
  ASSERT_TRUE(files.ok());

  std::map<std::string, uint64_t> recount;
  uint64_t total = 0;
  for (const std::string& f : *files) {
    auto content = ReadFileToString(f);
    ASSERT_TRUE(content.ok());
    for (std::string_view w : SplitWhitespace(*content)) {
      ++recount[std::string(w)];
      ++total;
    }
  }
  EXPECT_EQ(total, stats.total_words);
  EXPECT_EQ(recount.size(), stats.distinct_words);
  for (int rank = 0; rank < 20; ++rank) {
    std::string word = VocabularyWord(rank);
    uint64_t expected = rank_counts[static_cast<size_t>(rank)];
    uint64_t actual = recount.count(word) ? recount[word] : 0;
    EXPECT_EQ(actual, expected) << word;
  }
}

TEST_F(CorpusTest, ZipfHeadDominatesTail) {
  std::vector<uint64_t> rank_counts;
  CorpusStats stats;
  CorpusSpec spec = SmallSpec();
  spec.num_files = 60;
  auto files = GenerateCorpusWithCounts(dir_, spec, &rank_counts, &stats);
  ASSERT_TRUE(files.ok());
  // Rank 0 should be far more frequent than rank 100.
  EXPECT_GT(rank_counts[0], rank_counts[100] * 5);
  // And roughly follow 1/k: rank0/rank9 ≈ 10 within a loose factor.
  double ratio = static_cast<double>(rank_counts[0]) /
                 static_cast<double>(rank_counts[9] + 1);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 40.0);
}

TEST(ZipfSampler, ProbabilitiesDecreaseAndSumToOne) {
  ZipfSampler zipf(100, 1.0);
  double sum = 0;
  double prev = 1.0;
  for (int k = 0; k < 100; ++k) {
    double p = zipf.ExpectedProbability(k);
    EXPECT_LE(p, prev + 1e-12);
    EXPECT_GT(p, 0.0);
    sum += p;
    prev = p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSampler, EmpiricalMatchesExpected) {
  ZipfSampler zipf(50, 1.0);
  MT19937_64 rng(4);
  std::vector<int> histogram(50, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++histogram[static_cast<size_t>(zipf.Sample(rng))];
  for (int k : {0, 1, 5, 20}) {
    double expected = zipf.ExpectedProbability(k) * n;
    EXPECT_NEAR(histogram[static_cast<size_t>(k)], expected,
                expected * 0.15 + 30);
  }
}

TEST(Vocabulary, CommonWordsThenSynthetic) {
  EXPECT_EQ(VocabularyWord(0), "the");
  EXPECT_EQ(VocabularyWord(1), "of");
  EXPECT_EQ(VocabularyWord(1000), "w1000");
}

// ---- The corpus_gen command line -----------------------------------------

/// Run corpus_gen with the shell-quoted `args` in `dir`, its output
/// discarded; returns its exit code.
int RunCorpusGen(const std::string& dir, const std::string& args) {
  std::string command = "cd '" + dir + "' && '" MRS_CORPUS_GEN_BINARY "' " +
                        args + " >/dev/null 2>&1";
  int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_F(CorpusTest, CommandLineRejectsFlagsAndBadCountsWithoutWriting) {
  ASSERT_TRUE(FileExists(MRS_CORPUS_GEN_BINARY)) << MRS_CORPUS_GEN_BINARY;
  const struct {
    const char* args;
    int exit_code;
  } cases[] = {
      {"--help", 0},
      {"-h", 0},
      {"out --help", 0},
      {"", 2},
      {"--bogus", 2},
      {"out -5", 2},
      {"out 3x", 2},
      {"out ''", 2},
      {"out 2147483648", 2},
      {"out 10 20x", 2},
      {"out 10 20 7seed", 2},
      {"out 10 20 7 extra", 2},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string("corpus_gen ") + c.args);
    EXPECT_EQ(RunCorpusGen(dir_, c.args), c.exit_code);
    EXPECT_TRUE(std::filesystem::is_empty(dir_)) << "wrote under " << dir_;
  }
  // The same harness sees what a valid command line writes.
  EXPECT_EQ(RunCorpusGen(dir_, "out 2 50 7"), 0);
  EXPECT_FALSE(std::filesystem::is_empty(dir_));
}

}  // namespace
}  // namespace mrs
