// Out-of-core shuffle test battery (fs/spill.h + fs/merge.h + the spill
// path through Bucket and the runners).
//
// Four layers:
//   1. MemoryBudget unit coverage — zero/tiny budgets, concurrent
//      charge/release (meaningful under TSan), high-water tracking, and
//      the byte-size flag parser.
//   2. Spill-run round trips — sorted and FIFO runs, the pre-encoded
//      fast path, and streaming reads with buffers small enough that
//      records straddle refill boundaries.
//   3. Randomized external-merge property tests — the LoserTreeMerger
//      must reproduce byte-for-byte what std::stable_sort would produce
//      over the concatenation of its sources, across empty runs,
//      singleton runs, heavy duplicates, adversarial orders, and wildly
//      unequal run lengths.
//   4. Fault injection — truncated, bit-flipped, and deleted run files
//      must surface as kDataLoss / kNotFound (never a crash or a
//      silently partial result), both through the streaming reader and
//      through Bucket::EnsureLoaded, for a standalone run file and for a
//      run inside an attempt's shared file, whose neighbours still read.
// Plus DistSort invariants (partition monotonicity, cross-instance
// splitter agreement), a budgeted end-to-end WordCount, and the spill
// file lifecycle on every runner: at most one file per task attempt,
// none left after Discard or a failed attempt.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/job.h"
#include "core/serial_runner.h"
#include "core/task.h"
#include "core/thread_runner.h"
#include "fs/bucket.h"
#include "fs/file_io.h"
#include "fs/merge.h"
#include "fs/spill.h"
#include "http/client.h"
#include "http/message.h"
#include "http/server.h"
#include "obs/metrics.h"
#include "rt/cluster.h"
#include "rt/mrs_main.h"
#include "rt/slave.h"
#include "ser/record.h"
#include "sort/distsort.h"

namespace mrs {
namespace {

// ---- MemoryBudget --------------------------------------------------------

TEST(MemoryBudget, ZeroLimitMeansUnlimited) {
  MemoryBudget budget;
  EXPECT_EQ(budget.limit(), 0);
  EXPECT_FALSE(budget.active());
  budget.Charge(int64_t{1} << 40);  // a terabyte of imaginary records
  EXPECT_FALSE(budget.ShouldSpill());
  EXPECT_FALSE(budget.ShouldSpill(int64_t{1} << 40));
  budget.Release(int64_t{1} << 40);
  EXPECT_EQ(budget.usage(), 0);
}

TEST(MemoryBudget, BudgetSmallerThanOneRecordStillFires) {
  MemoryBudget budget;
  budget.set_limit(1);
  EXPECT_TRUE(budget.active());
  // Nothing charged yet: the *prospective* record alone crosses the limit.
  EXPECT_TRUE(budget.ShouldSpill(/*extra=*/100));
  // And once any record is resident, everything after must spill.
  budget.Charge(100);
  EXPECT_TRUE(budget.ShouldSpill());
  budget.Release(100);
  EXPECT_FALSE(budget.ShouldSpill());
}

TEST(MemoryBudget, ChargeReleaseAndHighWater) {
  MemoryBudget budget;
  budget.set_limit(1000);
  budget.Charge(600);
  EXPECT_EQ(budget.usage(), 600);
  EXPECT_FALSE(budget.ShouldSpill());
  EXPECT_TRUE(budget.ShouldSpill(500));
  budget.Charge(600);
  EXPECT_EQ(budget.usage(), 1200);
  EXPECT_TRUE(budget.ShouldSpill());
  budget.Release(900);
  EXPECT_EQ(budget.usage(), 300);
  EXPECT_FALSE(budget.ShouldSpill());
  // High water holds the peak, not the current level.
  EXPECT_EQ(budget.high_water(), 1200);
  // Non-positive charges/releases are ignored, not misaccounted.
  budget.Charge(0);
  budget.Charge(-5);
  budget.Release(0);
  budget.Release(-5);
  EXPECT_EQ(budget.usage(), 300);
}

TEST(MemoryBudget, ConcurrentChargeReleaseBalancesToZero) {
  MemoryBudget budget;
  budget.set_limit(1 << 20);
  constexpr int kThreads = 8;
  constexpr int kIterations = 2000;
  constexpr int64_t kBytes = 37;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&budget] {
      for (int i = 0; i < kIterations; ++i) {
        budget.Charge(kBytes);
        (void)budget.ShouldSpill(kBytes);
        budget.Release(kBytes);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(budget.usage(), 0);
  // Every thread held at least its own charge at some point.
  EXPECT_GE(budget.high_water(), kBytes);
  EXPECT_LE(budget.high_water(), kBytes * kThreads);
}

TEST(MemoryBudget, ProcessBudgetMirrorsGauges) {
  MemoryBudget& process = MemoryBudget::Process();
  int64_t saved_limit = process.limit();
  process.ResetForTest();
  process.Charge(4096);
  obs::Gauge* usage =
      obs::Registry::Instance().GetGauge("mrs.spill.budget_usage");
  obs::Gauge* high =
      obs::Registry::Instance().GetGauge("mrs.spill.budget_high_water");
  EXPECT_EQ(static_cast<int64_t>(usage->value()), 4096);
  EXPECT_GE(static_cast<int64_t>(high->value()), 4096);
  process.Release(4096);
  EXPECT_EQ(static_cast<int64_t>(usage->value()), 0);
  process.ResetForTest();
  process.set_limit(saved_limit);
}

TEST(ParseByteSize, AcceptsPlainAndSuffixedSizes) {
  EXPECT_EQ(*ParseByteSize(""), 0);
  EXPECT_EQ(*ParseByteSize("0"), 0);
  EXPECT_EQ(*ParseByteSize("1024"), 1024);
  EXPECT_EQ(*ParseByteSize("64K"), 64 * 1024);
  EXPECT_EQ(*ParseByteSize("64k"), 64 * 1024);
  EXPECT_EQ(*ParseByteSize("64KB"), 64 * 1024);
  EXPECT_EQ(*ParseByteSize("64KiB"), 64 * 1024);
  EXPECT_EQ(*ParseByteSize("3M"), int64_t{3} << 20);
  EXPECT_EQ(*ParseByteSize("2G"), int64_t{2} << 30);
}

TEST(ParseByteSize, RejectsMalformedSizes) {
  EXPECT_FALSE(ParseByteSize("budget").ok());
  EXPECT_FALSE(ParseByteSize("12Q").ok());
  EXPECT_FALSE(ParseByteSize("K").ok());
  EXPECT_FALSE(ParseByteSize("1MBs").ok());
  EXPECT_FALSE(ParseByteSize("-").ok());
  EXPECT_EQ(ParseByteSize("oops").status().code(),
            StatusCode::kInvalidArgument);
}

// ---- Run round trips -----------------------------------------------------

std::vector<KeyValue> MakeRecords(std::mt19937& rng, size_t n,
                                  int key_alphabet = 26) {
  std::vector<KeyValue> records;
  records.reserve(n);
  std::uniform_int_distribution<int> key_len(0, 12);
  std::uniform_int_distribution<int> letter(0, key_alphabet - 1);
  std::uniform_int_distribution<int> kind(0, 2);
  for (size_t i = 0; i < n; ++i) {
    std::string key;
    int len = key_len(rng);
    for (int j = 0; j < len; ++j) {
      key += static_cast<char>('a' + letter(rng));
    }
    Value value;
    switch (kind(rng)) {
      case 0: value = Value(static_cast<int64_t>(letter(rng))); break;
      case 1: value = Value(key + "-payload"); break;
      default: value = Value(std::vector<Value>{Value(key), Value(int64_t{7})});
    }
    records.push_back({Value(key), std::move(value)});
  }
  return records;
}

class SpillDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mrs_spill_test_");
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    dir_ = *dir;
  }
  void TearDown() override { RemoveTree(dir_); }

  std::string Path(const std::string& name) const {
    return JoinPath(dir_, name);
  }

  std::string dir_;
};

TEST_F(SpillDirTest, SortedRunRoundTripsAndCounts) {
  std::mt19937 rng(7);
  std::vector<KeyValue> records = MakeRecords(rng, 200);
  std::stable_sort(records.begin(), records.end(), KeyValueLess);

  obs::Counter* written =
      obs::Registry::Instance().GetCounter("mrs.spill.runs_written");
  obs::Counter* bytes =
      obs::Registry::Instance().GetCounter("mrs.spill.bytes_spilled");
  int64_t written_before = written->value();
  int64_t bytes_before = bytes->value();

  auto run = WriteSpillRun(Path("sorted.mrsk"), "ds0/1/2", records,
                           /*sorted=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->sorted);
  EXPECT_EQ(run->records, records.size());
  EXPECT_GT(run->bytes, 0u);
  EXPECT_EQ(written->value() - written_before, 1);
  EXPECT_GE(bytes->value() - bytes_before, static_cast<int64_t>(run->bytes));

  auto back = ReadSpillRun(*run);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == records);
}

TEST_F(SpillDirTest, FifoRunPreservesEmitOrder) {
  // Deliberately unsorted: FIFO runs must come back in write order.
  std::vector<KeyValue> records = {
      {Value("zebra"), Value(int64_t{1})},
      {Value("apple"), Value(int64_t{2})},
      {Value("zebra"), Value(int64_t{0})},
      {Value(""), Value("")},
  };
  auto run = WriteSpillRun(Path("fifo.mrsk"), "ds0/out", records,
                           /*sorted=*/false);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->sorted);
  auto back = ReadSpillRun(*run);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == records);
}

TEST_F(SpillDirTest, EmptyRunRoundTrips) {
  auto run = WriteSpillRun(Path("empty.mrsk"), "ds0/e", {}, /*sorted=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->records, 0u);
  auto back = ReadSpillRun(*run);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->empty());
  // And through the streaming reader too.
  SpillRunSource source(*run);
  KeyValue kv;
  auto next = source.Next(&kv);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_FALSE(*next);
}

TEST_F(SpillDirTest, EncodedRunMatchesRecordRun) {
  std::mt19937 rng(11);
  std::vector<KeyValue> records = MakeRecords(rng, 50);
  std::string payload = EncodeBinaryRecords(records);
  auto run = WriteEncodedSpillRun(Path("enc.mrsk"), "ds1/0/0", payload,
                                  ContentChecksum(payload), /*sorted=*/false);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->records, records.size());
  auto back = ReadSpillRun(*run);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == records);
}

TEST_F(SpillDirTest, StreamingReadWithTinyBufferStraddlesRecords) {
  std::mt19937 rng(13);
  std::vector<KeyValue> records = MakeRecords(rng, 300);
  std::stable_sort(records.begin(), records.end(), KeyValueLess);
  auto run = WriteSpillRun(Path("straddle.mrsk"), "ds2/0/0", records,
                           /*sorted=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // A 7-byte window is smaller than any encoded record, so every single
  // Next() crosses at least one refill boundary.
  for (size_t buffer : {size_t{7}, size_t{64}, size_t{1} << 16}) {
    SpillRunSource source(*run, buffer);
    std::vector<KeyValue> streamed;
    KeyValue kv;
    while (true) {
      auto more = source.Next(&kv);
      ASSERT_TRUE(more.ok()) << "buffer=" << buffer << ": "
                             << more.status().ToString();
      if (!*more) break;
      streamed.push_back(kv);
    }
    EXPECT_TRUE(streamed == records) << "buffer=" << buffer;
  }
}

TEST_F(SpillDirTest, StreamingReadOfASharedFileRunSeveralBuffersLong) {
  std::mt19937 rng(19);
  std::vector<KeyValue> before = MakeRecords(rng, 50);
  std::vector<KeyValue> records = MakeRecords(rng, 4000);
  std::stable_sort(records.begin(), records.end(), KeyValueLess);
  std::vector<KeyValue> after = MakeRecords(rng, 50);
  SpillFile file(Path("long.mrsk"));
  ASSERT_TRUE(file.Append("x/0", before, /*sorted=*/false).ok());
  auto run = file.Append("x/1", records, /*sorted=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(file.Append("x/2", after, /*sorted=*/false).ok());
  EXPECT_GT(run->offset, 0u);
  // The smallest window is 4096 bytes, so the run spans many windows,
  // records straddle every refill, and the runs on either side of its
  // byte range must never leak in.
  ASSERT_GT(run->bytes, 8u * 4096u);
  for (size_t buffer : {size_t{7}, size_t{5000}, size_t{1} << 16}) {
    SpillRunSource source(*run, buffer);
    std::vector<KeyValue> streamed;
    KeyValue kv;
    while (true) {
      auto more = source.Next(&kv);
      ASSERT_TRUE(more.ok()) << "buffer=" << buffer << ": "
                             << more.status().ToString();
      if (!*more) break;
      streamed.push_back(kv);
    }
    EXPECT_TRUE(streamed == records) << "buffer=" << buffer;
  }
}

TEST_F(SpillDirTest, SpillFileAppendsRunsAsConsecutiveByteRanges) {
  obs::Counter* created =
      obs::Registry::Instance().GetCounter("mrs.spill.files_created");
  const int64_t created_before = created->value();
  std::mt19937 rng(17);
  std::vector<std::vector<KeyValue>> parts = {
      MakeRecords(rng, 40), {}, MakeRecords(rng, 25)};
  const std::string path = Path("attempt.mrsk");
  std::vector<SpillRun> runs;
  {
    SpillFile file(path);
    EXPECT_FALSE(FileExists(path)) << "created before its first run";
    for (size_t i = 0; i < parts.size(); ++i) {
      auto run = file.Append("a/" + std::to_string(i), parts[i],
                             /*sorted=*/false);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      runs.push_back(*run);
    }
    file.Keep();
  }
  EXPECT_EQ(created->value() - created_before, 1);
  EXPECT_EQ(runs[0].offset, 0u);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].offset, runs[i - 1].offset + runs[i - 1].length);
  }
  EXPECT_EQ(*FileSize(path), runs.back().offset + runs.back().length);
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].records, parts[i].size());
    auto back = ReadSpillRun(runs[i]);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(*back == parts[i]) << "run " << i;
    // Each range holds exactly the frame set a one-run file holds: same
    // mrsk1 bytes, same frame checksum.
    std::string payload = EncodeBinaryRecords(parts[i]);
    EXPECT_EQ(runs[i].checksum, ContentChecksum(payload));
    EXPECT_EQ(*ReadSpillRunBytes(runs[i]),
              EncodeBucketFrames({{runs[i].id, runs[i].checksum, payload}}));
  }
  // A standalone run is a one-run file at offset 0.
  auto single = WriteSpillRun(Path("single.mrsk"), "s/0", parts[0],
                              /*sorted=*/false);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->offset, 0u);
  EXPECT_EQ(single->length, *FileSize(single->path));
}

TEST_F(SpillDirTest, RemoveSpillRunDeletesTheFile) {
  auto run = WriteSpillRun(Path("gone.mrsk"), "ds3/0/0",
                           {{Value("k"), Value("v")}}, /*sorted=*/true);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(FileExists(run->path));
  RemoveSpillRun(*run);
  EXPECT_FALSE(FileExists(run->path));
  EXPECT_EQ(ReadSpillRun(*run).status().code(), StatusCode::kNotFound);
}

TEST(SpillDirs, TaskSpillFilesNeverReuseAPath) {
  auto a = NewSpillFilePath("test_label");
  auto b = NewSpillFilePath("test_label");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NE(*a, *b);  // a re-executed task never clobbers stale runs
  EXPECT_TRUE(EndsWith(*a, ".mrsk")) << *a;
  EXPECT_FALSE(FileExists(*a));  // created by the first run, not here
}

TEST(SpillDirs, TaskSpillContextExistsOnlyUnderAnActiveBudget) {
  MemoryBudget& process = MemoryBudget::Process();
  const int64_t saved = process.limit();
  auto parent = MakeTempDir("mrs_spill_parent_");
  ASSERT_TRUE(parent.ok());
  process.set_limit(0);
  EXPECT_FALSE(NewTaskSpillContext("test", 7, 3).has_value());
  process.set_limit(1 << 20);
  std::optional<TaskSpillContext> spill =
      NewTaskSpillContext("test", 7, 3, *parent);
  ASSERT_TRUE(spill.has_value());
  EXPECT_TRUE(spill->enabled());
  process.set_limit(saved);
  EXPECT_EQ(spill->id_prefix, "7/3");  // frames are "<dataset>/<source>/..."
  const std::string path = spill->file->path();
  EXPECT_TRUE(StartsWith(path, JoinPath(*parent, "test_ds7_t3_"))) << path;
  EXPECT_FALSE(FileExists(path));
  ASSERT_TRUE(spill->file->Append("7/3/0", {{Value("k"), Value("v")}},
                                  /*sorted=*/true)
                  .ok());
  EXPECT_TRUE(FileExists(path));
  spill.reset();  // an attempt that never kept its file leaves nothing
  EXPECT_FALSE(FileExists(path));
  RemoveTree(*parent);
}

TEST(SpillDirs, NamedDirectoryGetsADisabledContextWithoutABudget) {
  // Mock parallel names its tmpdir: its attempts get a spill file to keep
  // their rows in even with no budget, but the context never spills.
  MemoryBudget& process = MemoryBudget::Process();
  const int64_t saved = process.limit();
  auto parent = MakeTempDir("mrs_spill_parent_");
  ASSERT_TRUE(parent.ok());
  process.set_limit(0);
  std::optional<TaskSpillContext> spill =
      NewTaskSpillContext("test", 7, 3, *parent);
  const bool enabled = spill.has_value() && spill->enabled();
  process.set_limit(saved);
  ASSERT_TRUE(spill.has_value());
  EXPECT_FALSE(enabled);
  EXPECT_EQ(spill->id_prefix, "7/3");
  const std::string path = spill->file->path();
  EXPECT_TRUE(StartsWith(path, JoinPath(*parent, "test_ds7_t3_"))) << path;
  EXPECT_FALSE(FileExists(path));
  spill.reset();
  RemoveTree(*parent);
}

TEST(SpillDirs, SweepRemovesOnlyTheRootsOfExitedProcesses) {
  auto parent = MakeTempDir("mrs_sweep_");
  ASSERT_TRUE(parent.ok());
  // A root whose owner has exited without its atexit, as a SIGKILLed slave
  // does: a child takes the root's lock as SpillRoot does, and exits.
  const std::string dead = JoinPath(*parent, "mrs_spill_dead");
  ASSERT_TRUE(EnsureDir(dead).ok());
  ASSERT_TRUE(AppendToFile(JoinPath(dead, "slave1_ds2_t0_0.mrsk"), "r").ok());
  const std::string lock = JoinPath(dead, ".lock");
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int fd = ::open(lock.c_str(), O_RDWR | O_CREAT, 0600);
    ::_exit(fd >= 0 && ::flock(fd, LOCK_EX) == 0 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  // A directory with no lock file: a root of an older build, or a test's.
  const std::string unlocked = JoinPath(*parent, "mrs_spill_parent_x");
  ASSERT_TRUE(EnsureDir(unlocked).ok());
  ASSERT_TRUE(AppendToFile(JoinPath(unlocked, "a.mrsk"), "r").ok());

  RemoveDeadSpillRoots(*parent);
  EXPECT_FALSE(FileExists(dead));
  EXPECT_TRUE(FileExists(JoinPath(unlocked, "a.mrsk")));

  // The caller's own root is live: it holds the lock until it exits.
  auto own = SpillRoot();
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  EXPECT_TRUE(FileExists(JoinPath(*own, ".lock")));
  RemoveDeadSpillRoots(DirName(*own));
  EXPECT_TRUE(IsDirectory(*own));
  RemoveTree(*parent);
}

// ---- External merge property tests ---------------------------------------

// Splits `all` into `k` runs (round-robin with the given per-run weights),
// sorts each run, writes half of them to disk, and merges everything back.
// The result must be byte-identical to stable_sort of the concatenation.
void CheckMergeReproducesSort(const std::string& dir,
                              std::vector<KeyValue> all,
                              const std::vector<size_t>& run_sizes,
                              size_t buffer_bytes) {
  std::vector<std::vector<KeyValue>> runs(run_sizes.size());
  size_t pos = 0;
  for (size_t r = 0; r < run_sizes.size(); ++r) {
    for (size_t i = 0; i < run_sizes[r] && pos < all.size(); ++i) {
      runs[r].push_back(all[pos++]);
    }
  }
  // Leftovers go to the last run (weights need not sum exactly).
  while (pos < all.size() && !runs.empty()) runs.back().push_back(all[pos++]);

  std::vector<std::unique_ptr<MergeSource>> sources;
  for (size_t r = 0; r < runs.size(); ++r) {
    std::stable_sort(runs[r].begin(), runs[r].end(), KeyValueLess);
    if (r % 2 == 0) {
      auto run = WriteSpillRun(
          JoinPath(dir, "prop_run" + std::to_string(r) + ".mrsk"),
          "prop/" + std::to_string(r), runs[r], /*sorted=*/true);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      sources.push_back(std::make_unique<SpillRunSource>(*run, buffer_bytes));
    } else {
      sources.push_back(std::make_unique<VectorSource>(runs[r]));
    }
  }

  std::stable_sort(all.begin(), all.end(), KeyValueLess);
  auto merged = MergeToVector(std::move(sources));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(*merged == all)
      << "merge diverged from stable_sort: " << merged->size() << " vs "
      << all.size() << " records";
}

TEST_F(SpillDirTest, MergeRandomizedAgainstStableSort) {
  std::mt19937 rng(101);
  for (int trial = 0; trial < 12; ++trial) {
    std::uniform_int_distribution<size_t> total_dist(0, 400);
    std::uniform_int_distribution<size_t> fan_dist(1, 9);
    size_t total = total_dist(rng);
    size_t fan = fan_dist(rng);
    std::vector<size_t> sizes(fan);
    for (size_t& s : sizes) {
      s = std::uniform_int_distribution<size_t>(0, total)(rng);
    }
    // A tiny alphabet makes duplicates the common case, not the edge case.
    CheckMergeReproducesSort(dir_, MakeRecords(rng, total, /*alphabet=*/3),
                             sizes, /*buffer_bytes=*/32);
  }
}

TEST_F(SpillDirTest, MergeEdgeCases) {
  std::mt19937 rng(202);
  // No sources at all.
  auto none = MergeToVector({});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // One source, zero records; one source, one record.
  CheckMergeReproducesSort(dir_, {}, {0}, 16);
  CheckMergeReproducesSort(dir_, MakeRecords(rng, 1), {1}, 16);
  // Every source empty but one.
  CheckMergeReproducesSort(dir_, MakeRecords(rng, 40), {0, 0, 40, 0}, 16);
  // Wildly unequal runs: 1 record vs hundreds.
  CheckMergeReproducesSort(dir_, MakeRecords(rng, 301), {1, 299, 1}, 16);
}

TEST_F(SpillDirTest, MergeAllDuplicateKeysIsStableBySourceIndex) {
  // Every record has the same key; values mark their source so the
  // tie-break order (source index, then within-source order) is visible.
  std::vector<std::unique_ptr<MergeSource>> sources;
  std::vector<KeyValue> expected;
  for (int64_t s = 0; s < 4; ++s) {
    std::vector<KeyValue> run;
    for (int64_t i = 0; i < 5; ++i) {
      run.push_back({Value("same"), Value(s * 10 + i)});
    }
    // Each run is sorted (its values ascend); merging must interleave by
    // (key, value) — i.e. globally ascending values — exactly as
    // stable_sort over the concatenation would.
    for (const KeyValue& kv : run) expected.push_back(kv);
    sources.push_back(std::make_unique<VectorSource>(std::move(run)));
  }
  std::stable_sort(expected.begin(), expected.end(), KeyValueLess);
  auto merged = MergeToVector(std::move(sources));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(*merged == expected);
}

TEST_F(SpillDirTest, MergeAdversarialOrders) {
  std::mt19937 rng(303);
  // Identical runs: every head ties on every pull.
  std::vector<KeyValue> base = MakeRecords(rng, 60, /*alphabet=*/2);
  std::stable_sort(base.begin(), base.end(), KeyValueLess);
  std::vector<std::unique_ptr<MergeSource>> sources;
  std::vector<KeyValue> all;
  for (int r = 0; r < 5; ++r) {
    sources.push_back(std::make_unique<VectorSource>(base));
    all.insert(all.end(), base.begin(), base.end());
  }
  std::stable_sort(all.begin(), all.end(), KeyValueLess);
  auto merged = MergeToVector(std::move(sources));
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(*merged == all);

  // Disjoint key ranges in reverse source order: source 2 holds the
  // smallest keys, source 0 the largest — the winner must hop sources.
  std::vector<std::unique_ptr<MergeSource>> ranges;
  std::vector<KeyValue> range_all;
  for (int r = 2; r >= 0; --r) {
    std::vector<KeyValue> run;
    for (int64_t i = 0; i < 10; ++i) {
      run.push_back(
          {Value(std::string(1, static_cast<char>('a' + r)) +
                 std::to_string(i)),
           Value(i)});
    }
    std::stable_sort(run.begin(), run.end(), KeyValueLess);
    range_all.insert(range_all.end(), run.begin(), run.end());
    ranges.push_back(std::make_unique<VectorSource>(std::move(run)));
  }
  std::stable_sort(range_all.begin(), range_all.end(), KeyValueLess);
  auto range_merged = MergeToVector(std::move(ranges));
  ASSERT_TRUE(range_merged.ok());
  EXPECT_TRUE(*range_merged == range_all);
}

TEST_F(SpillDirTest, MergeCountsMetrics) {
  obs::Counter* merges =
      obs::Registry::Instance().GetCounter("mrs.spill.merges");
  int64_t before = merges->value();
  std::vector<std::unique_ptr<MergeSource>> sources;
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<KeyValue>{{Value("a"), Value(int64_t{1})}}));
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<KeyValue>{{Value("b"), Value(int64_t{2})}}));
  auto merged = MergeToVector(std::move(sources));
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->size(), 2u);
  EXPECT_EQ(merges->value() - before, 1);
}

// ---- Fault injection on run files ----------------------------------------

class SpillFaultTest : public SpillDirTest {
 protected:
  SpillRun MakeRun(const std::string& name) {
    std::mt19937 rng(404);
    std::vector<KeyValue> records = MakeRecords(rng, 120);
    std::stable_sort(records.begin(), records.end(), KeyValueLess);
    auto run = WriteSpillRun(Path(name), "fault/" + name, records,
                             /*sorted=*/true);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return *run;
  }

  static Status DrainSource(SpillRunSource* source, size_t* yielded) {
    KeyValue kv;
    *yielded = 0;
    while (true) {
      Result<bool> more = source->Next(&kv);
      if (!more.ok()) return more.status();
      if (!*more) return Status::Ok();
      ++*yielded;
    }
  }

  /// Three sorted runs of 120 records: one file each (standalone layout)
  /// or appended to one attempt file (shared layout).
  std::vector<SpillRun> MakeRuns(const std::string& name, bool shared) {
    std::unique_ptr<SpillFile> file;
    if (shared) file = std::make_unique<SpillFile>(Path(name));
    std::vector<SpillRun> runs;
    for (int i = 0; i < 3; ++i) {
      std::mt19937 rng(static_cast<unsigned>(404 + i));
      std::vector<KeyValue> records = MakeRecords(rng, 120);
      std::stable_sort(records.begin(), records.end(), KeyValueLess);
      std::string id = "fault/" + name + "/" + std::to_string(i);
      auto run = shared ? file->Append(id, records, /*sorted=*/true)
                        : WriteSpillRun(Path(name + std::to_string(i)), id,
                                        records, /*sorted=*/true);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      runs.push_back(*run);
    }
    if (shared) file->Keep();
    return runs;
  }

  /// Whole-run and streaming reads both fail with `code`, and the stream
  /// yields no record first.
  static void ExpectFault(const SpillRun& run, StatusCode code) {
    EXPECT_EQ(ReadSpillRun(run).status().code(), code);
    SpillRunSource source(run, /*buffer_bytes=*/16);
    size_t yielded = 0;
    EXPECT_EQ(DrainSource(&source, &yielded).code(), code);
    EXPECT_EQ(yielded, 0u) << "partial records leaked before the error";
  }

  static void ExpectReadable(const SpillRun& run) {
    auto back = ReadSpillRun(run);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->size(), run.records);
    SpillRunSource source(run, /*buffer_bytes=*/16);
    size_t yielded = 0;
    Status status = DrainSource(&source, &yielded);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(yielded, run.records);
  }
};

TEST_F(SpillFaultTest, TruncatedRunIsDataLossNotPartialData) {
  SpillRun run = MakeRun("trunc.mrsk");
  auto raw = ReadFileToString(run.path);
  ASSERT_TRUE(raw.ok());
  for (size_t keep : {raw->size() / 2, raw->size() - 1, size_t{3}}) {
    ASSERT_TRUE(WriteFileAtomic(run.path, raw->substr(0, keep)).ok());
    // Whole-run read.
    EXPECT_EQ(ReadSpillRun(run).status().code(), StatusCode::kDataLoss)
        << "keep=" << keep;
    // Streaming read: the up-front checksum pass means zero records are
    // emitted before the corruption is detected.
    SpillRunSource source(run, /*buffer_bytes=*/16);
    size_t yielded = 0;
    Status status = DrainSource(&source, &yielded);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "keep=" << keep;
    EXPECT_EQ(yielded, 0u) << "partial records leaked before the error";
  }
}

// SpillRunSource decodes each record straight into the caller's KeyValue.
// With a 4 KiB window, the records below put the end of the first key at
// the window's last byte (or a few bytes before it), so the key is decoded
// into the destination before the value's read runs out of window.
//   payload: "mrsb1\n" (6) + count (1) + key tag (1) + key length (2) + key
constexpr size_t kRefillWindow = 4096;
constexpr size_t kKeyEndsAtTheWindow = kRefillWindow - 10;

std::vector<KeyValue> RecordsStraddlingTheWindow(size_t key_len) {
  return {
      {Value(std::string(key_len, 'k')), Value(std::string(90, 'v'))},
      {Value("next"), Value(ValueList{Value(int64_t{1}), Value("x")})},
  };
}

TEST_F(SpillFaultTest, ValueCrossingTheRefillBoundaryAfterItsKeyDecodes) {
  for (size_t gap : {size_t{0}, size_t{1}, size_t{2}, size_t{50}}) {
    const std::vector<KeyValue> records =
        RecordsStraddlingTheWindow(kKeyEndsAtTheWindow - gap);
    const std::string payload = EncodeBinaryRecords(records);
    ASSERT_EQ(payload.find('v'), kRefillWindow - gap + 2) << gap;
    auto run = WriteSpillRun(Path("straddle" + std::to_string(gap)),
                             "boundary/" + std::to_string(gap), records,
                             /*sorted=*/false);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    SpillRunSource source(*run, kRefillWindow);
    // A destination of other types: a stale field would show.
    KeyValue kv{Value(ValueList{Value(3.5)}), Value(int64_t{9})};
    std::vector<KeyValue> streamed;
    while (true) {
      Result<bool> more = source.Next(&kv);
      ASSERT_TRUE(more.ok()) << "gap=" << gap << ": "
                             << more.status().ToString();
      if (!*more) break;
      streamed.push_back(kv);
    }
    EXPECT_TRUE(streamed == records) << "gap=" << gap;
  }
}

TEST_F(SpillFaultTest, RunCutJustAfterAKeyAtTheRefillBoundaryIsDataLoss) {
  const std::vector<KeyValue> records =
      RecordsStraddlingTheWindow(kKeyEndsAtTheWindow);
  const std::string payload = EncodeBinaryRecords(records);
  const std::string cut = payload.substr(0, kRefillWindow);
  ASSERT_EQ(cut.back(), 'k');
  // A file cut there fails the checksum pass before any record.
  auto whole = WriteSpillRun(Path("cut_file.mrsk"), "boundary/file", records,
                             /*sorted=*/false);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  auto raw = ReadFileToString(whole->path);
  ASSERT_TRUE(raw.ok());
  const size_t header = raw->size() - payload.size();
  ASSERT_TRUE(
      WriteFileAtomic(whole->path, raw->substr(0, header + cut.size())).ok());
  ExpectFault(*whole, StatusCode::kDataLoss);
  // A frame whose checksum covers the cut payload passes that pass; the
  // record decoder itself must then refuse the half record.
  auto framed = WriteEncodedSpillRun(Path("cut_frame.mrsk"), "boundary/frame",
                                     cut, ContentChecksum(cut),
                                     /*sorted=*/false);
  ASSERT_TRUE(framed.ok()) << framed.status().ToString();
  EXPECT_EQ(framed->records, records.size());
  ExpectFault(*framed, StatusCode::kDataLoss);
}

TEST_F(SpillFaultTest, BitFlippedRunIsDataLoss) {
  SpillRun run = MakeRun("flip.mrsk");
  auto raw = ReadFileToString(run.path);
  ASSERT_TRUE(raw.ok());
  // Flip one payload byte deep in the file (headers stay intact, so only
  // the checksum can catch it).
  std::string corrupt = *raw;
  corrupt[corrupt.size() * 3 / 4] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(run.path, corrupt).ok());
  EXPECT_EQ(ReadSpillRun(run).status().code(), StatusCode::kDataLoss);
  SpillRunSource source(run, /*buffer_bytes=*/32);
  size_t yielded = 0;
  EXPECT_EQ(DrainSource(&source, &yielded).code(), StatusCode::kDataLoss);
  EXPECT_EQ(yielded, 0u);
}

TEST_F(SpillFaultTest, DeletedRunIsNotFound) {
  SpillRun run = MakeRun("deleted.mrsk");
  RemoveSpillRun(run);
  EXPECT_EQ(ReadSpillRun(run).status().code(), StatusCode::kNotFound);
  SpillRunSource source(run);
  size_t yielded = 0;
  EXPECT_EQ(DrainSource(&source, &yielded).code(), StatusCode::kNotFound);
  EXPECT_EQ(yielded, 0u);
}

TEST_F(SpillFaultTest, CorruptRunAbortsAMidFlightMerge) {
  // One clean run plus one corrupted run: the merge must fail overall —
  // never return the clean run's records as if they were the whole input.
  SpillRun clean = MakeRun("merge_clean.mrsk");
  SpillRun bad = MakeRun("merge_bad.mrsk");
  auto raw = ReadFileToString(bad.path);
  ASSERT_TRUE(raw.ok());
  std::string corrupt = *raw;
  corrupt[corrupt.size() / 2] ^= 0x10;
  ASSERT_TRUE(WriteFileAtomic(bad.path, corrupt).ok());

  std::vector<std::unique_ptr<MergeSource>> sources;
  sources.push_back(std::make_unique<SpillRunSource>(clean));
  sources.push_back(std::make_unique<SpillRunSource>(bad));
  auto merged = MergeToVector(std::move(sources));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);
}

// The same faults over both layouts: a standalone run file, and a run
// inside an attempt's shared file, whose neighbours must stay readable.

TEST_F(SpillFaultTest, TruncationInsideALaterRunIsDataLossInBothLayouts) {
  for (bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared file" : "standalone files");
    std::vector<SpillRun> runs =
        MakeRuns(shared ? "trunc_shared" : "trunc_", shared);
    const SpillRun& victim = runs[2];
    auto raw = ReadFileToString(victim.path);
    ASSERT_TRUE(raw.ok());
    for (uint64_t keep : {victim.offset + victim.length / 2,
                          victim.offset + victim.length - 1,
                          victim.offset + 3}) {
      ASSERT_TRUE(WriteFileAtomic(victim.path,
                                  raw->substr(0, static_cast<size_t>(keep)))
                      .ok());
      ExpectFault(victim, StatusCode::kDataLoss);
      ExpectReadable(runs[0]);
      ExpectReadable(runs[1]);
    }
  }
}

TEST_F(SpillFaultTest, BitFlipInsideOneRunSparesItsNeighboursInBothLayouts) {
  for (bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared file" : "standalone files");
    std::vector<SpillRun> runs =
        MakeRuns(shared ? "flip_shared" : "flip_", shared);
    const SpillRun& victim = runs[1];
    auto raw = ReadFileToString(victim.path);
    ASSERT_TRUE(raw.ok());
    std::string corrupt = *raw;
    corrupt[static_cast<size_t>(victim.offset + victim.length * 3 / 4)] ^= 0x01;
    ASSERT_TRUE(WriteFileAtomic(victim.path, corrupt).ok());
    ExpectFault(victim, StatusCode::kDataLoss);
    ExpectReadable(runs[0]);
    ExpectReadable(runs[2]);
    // A merge that includes the damaged run fails as a whole.
    std::vector<std::unique_ptr<MergeSource>> sources;
    for (const SpillRun& run : runs) {
      sources.push_back(std::make_unique<SpillRunSource>(run));
    }
    EXPECT_EQ(MergeToVector(std::move(sources)).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST_F(SpillFaultTest, RangePastTheEndOfTheFileIsDataLossInBothLayouts) {
  for (bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared file" : "standalone files");
    std::vector<SpillRun> runs =
        MakeRuns(shared ? "range_shared" : "range_", shared);
    SpillRun longer = runs[2];
    longer.length += 64;
    ExpectFault(longer, StatusCode::kDataLoss);
    SpillRun beyond = runs[2];
    beyond.offset = *FileSize(beyond.path) + 10;
    ExpectFault(beyond, StatusCode::kDataLoss);
    ExpectReadable(runs[2]);
  }
}

TEST_F(SpillFaultTest, MissingFileIsNotFoundInBothLayouts) {
  for (bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared file" : "standalone files");
    std::vector<SpillRun> runs =
        MakeRuns(shared ? "gone_shared" : "gone_", shared);
    RemoveSpillRun(runs[1]);
    ExpectFault(runs[1], StatusCode::kNotFound);
    if (shared) {
      ExpectFault(runs[0], StatusCode::kNotFound);  // the same file
    } else {
      ExpectReadable(runs[0]);
    }
  }
}

TEST_F(SpillFaultTest, BucketLoadSurfacesRunFaults) {
  std::mt19937 rng(505);
  std::vector<KeyValue> records = MakeRecords(rng, 30);
  Bucket bucket(0, 0);
  for (KeyValue& kv : records) bucket.Append(kv);
  SpillFile file(Path("bucket_run.mrsk"));
  ASSERT_TRUE(bucket.SpillToRun(file, "b/0/0", /*sorted=*/true).ok());
  ASSERT_TRUE(bucket.spilled());
  SpillRun run = bucket.spill_runs()[0];

  // Delete: kNotFound, records stay empty.
  RemoveSpillRun(run);
  Status status = bucket.EnsureLoaded(nullptr);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(bucket.loaded());
  EXPECT_TRUE(bucket.records().empty());

  // Restore, then bit-flip: kDataLoss, still no partial records.
  std::stable_sort(records.begin(), records.end(), KeyValueLess);
  std::string payload = EncodeBinaryRecords(records);
  auto rewritten = WriteEncodedSpillRun(run.path, run.id, payload,
                                        ContentChecksum(payload),
                                        /*sorted=*/true);
  ASSERT_TRUE(rewritten.ok());
  auto raw = ReadFileToString(run.path);
  ASSERT_TRUE(raw.ok());
  std::string corrupt = *raw;
  corrupt[corrupt.size() - 2] ^= 0x80;
  ASSERT_TRUE(WriteFileAtomic(run.path, corrupt).ok());
  status = bucket.EnsureLoaded(nullptr);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(bucket.records().empty());
}

// ---- Bucket spill round trips --------------------------------------------

TEST_F(SpillDirTest, BucketSortedSpillRoundTripsWithUnflushedTail) {
  std::mt19937 rng(606);
  std::vector<KeyValue> all = MakeRecords(rng, 90, /*alphabet=*/4);
  Bucket bucket(1, 2);
  SpillFile file(Path("runs.mrsk"));
  // First 30 spill as run 0, next 30 as run 1, last 30 stay as the
  // in-memory tail — EnsureLoaded must merge all three.
  for (size_t i = 0; i < 30; ++i) bucket.Append(all[i]);
  ASSERT_TRUE(bucket.SpillToRun(file, "t/0", /*sorted=*/true).ok());
  EXPECT_TRUE(bucket.records().empty());
  for (size_t i = 30; i < 60; ++i) bucket.Append(all[i]);
  ASSERT_TRUE(bucket.SpillToRun(file, "t/1", /*sorted=*/true).ok());
  for (size_t i = 60; i < all.size(); ++i) bucket.Append(all[i]);
  EXPECT_EQ(bucket.spill_runs().size(), 2u);
  EXPECT_GT(bucket.ApproxMemoryBytes(), 0u);

  ASSERT_TRUE(bucket.EnsureLoaded(nullptr).ok());
  std::vector<KeyValue> expected = all;
  std::stable_sort(expected.begin(), expected.end(), KeyValueLess);
  EXPECT_TRUE(bucket.records() == expected);
}

TEST_F(SpillDirTest, BucketFifoSpillPreservesEmitOrder) {
  std::vector<KeyValue> all;
  for (int64_t i = 0; i < 40; ++i) {
    // Strictly decreasing keys: any accidental sort would be visible.
    all.push_back({Value(1000 - i), Value("v" + std::to_string(i))});
  }
  Bucket bucket(0, 0);
  SpillFile file(Path("fifo_runs.mrsk"));
  for (size_t i = 0; i < 25; ++i) bucket.Append(all[i]);
  ASSERT_TRUE(bucket.SpillToRun(file, "f/0", /*sorted=*/false).ok());
  for (size_t i = 25; i < all.size(); ++i) bucket.Append(all[i]);
  ASSERT_TRUE(bucket.SpillToRun(file, "f/1", /*sorted=*/false).ok());
  ASSERT_TRUE(bucket.EnsureLoaded(nullptr).ok());
  EXPECT_TRUE(bucket.records() == all);
}

/// Entries in /proc/self/fd: the descriptors this process holds open.
size_t OpenDescriptors() {
  auto entries = std::filesystem::directory_iterator("/proc/self/fd");
  return static_cast<size_t>(std::distance(begin(entries), end(entries)));
}

/// Counts the process's open descriptors at its first reduce call, while
/// the reduce task's merge is live, and the values it was handed.
class DescriptorCountingReduce : public MapReduce {
 public:
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    if (descriptors_in_merge == 0) descriptors_in_merge = OpenDescriptors();
    values_seen += static_cast<int64_t>(values.size());
    emit(Value(static_cast<int64_t>(values.size())));
  }
  size_t descriptors_in_merge = 0;
  int64_t values_seen = 0;
};

// Every run of a task attempt lives in its one spill file, so a reduce
// over K such buckets of M runs each opens K descriptors, not K x M.
TEST_F(SpillDirTest, ReduceMergeHoldsOneDescriptorPerSpillFile) {
  constexpr int kBuckets = 4;
  constexpr int kRunsPerBucket = 6;
  constexpr size_t kRecordsPerRun = 50;
  std::mt19937 rng(707);
  std::vector<Bucket> column;
  for (int b = 0; b < kBuckets; ++b) {
    Bucket bucket(b, 0);
    SpillFile file(Path("attempt" + std::to_string(b) + ".mrsk"));
    for (int r = 0; r < kRunsPerBucket; ++r) {
      for (KeyValue& kv : MakeRecords(rng, kRecordsPerRun, /*alphabet=*/8)) {
        bucket.Append(std::move(kv));
      }
      ASSERT_TRUE(bucket
                      .SpillToRun(file, "b" + std::to_string(b) + "/" +
                                            std::to_string(r),
                                  /*sorted=*/true)
                      .ok());
    }
    file.Keep();  // the writer's descriptor closes with `file`
    column.push_back(std::move(bucket));
  }

  DescriptorCountingReduce program;
  ASSERT_TRUE(program.Init(Options()).ok());
  const size_t before = OpenDescriptors();
  auto row = RunTaskOnBuckets(program, DataSetKind::kReduce, DataSetOptions(),
                              /*num_splits=*/1, std::move(column), LocalFetch,
                              /*spill=*/nullptr);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(program.values_seen,
            int64_t{kBuckets} * kRunsPerBucket *
                static_cast<int64_t>(kRecordsPerRun));
  EXPECT_EQ(program.descriptors_in_merge - before, size_t{kBuckets});
  EXPECT_EQ(OpenDescriptors(), before) << "the merge left a descriptor open";
}

// ---- DistSort invariants -------------------------------------------------

TEST(DistSort, PartitionIsMonotoneInTheKeyForAnySplitCount) {
  sort::DistSortProgram program;
  program.config.tasks = 4;
  program.config.records_per_task = 50;
  ASSERT_TRUE(program.Init(Options()).ok());
  // Probe keys spanning the alphanumeric keyspace, plus records the
  // program actually generates.
  std::vector<std::string> keys = {"", "0", "AAAA", "ZZZZ", "aaaa", "zzzz"};
  for (int t = 0; t < program.config.tasks; ++t) {
    for (const KeyValue& kv : program.TaskRecords(t)) {
      keys.push_back(kv.key.AsString());
    }
  }
  std::sort(keys.begin(), keys.end());
  for (int splits : {1, 2, 3, 7, 16}) {
    int prev = 0;
    for (const std::string& key : keys) {
      int p = program.Partition(Value(key), splits);
      EXPECT_GE(p, 0);
      EXPECT_LT(p, splits);
      EXPECT_GE(p, prev) << "splits=" << splits << " key=" << key
                         << ": range partition went backwards";
      prev = p;
    }
  }
}

TEST(DistSort, SeparateInstancesAgreeOnEverySplitter) {
  // A slave process builds its own program instance from the same config;
  // the partition function must agree everywhere without a broadcast.
  sort::DistSortProgram a;
  sort::DistSortProgram b;
  a.config.tasks = 6;
  b.config.tasks = 6;
  ASSERT_TRUE(a.Init(Options()).ok());
  ASSERT_TRUE(b.Init(Options()).ok());
  std::mt19937 rng(707);
  for (int i = 0; i < 500; ++i) {
    std::string key;
    int len = std::uniform_int_distribution<int>(0, 12)(rng);
    for (int j = 0; j < len; ++j) {
      key += static_cast<char>(
          std::uniform_int_distribution<int>('0', 'z')(rng));
    }
    for (int splits : {2, 5}) {
      EXPECT_EQ(a.Partition(Value(key), splits),
                b.Partition(Value(key), splits))
          << "key=" << key << " splits=" << splits;
    }
  }
}

TEST(DistSort, ExpectedOutputIsSortedAndComplete) {
  sort::DistSortProgram program;
  program.config.tasks = 3;
  program.config.records_per_task = 40;
  ASSERT_TRUE(program.Init(Options()).ok());
  std::vector<KeyValue> expected = program.ExpectedOutput();
  EXPECT_EQ(expected.size(), 3u * 40u);
  EXPECT_TRUE(std::is_sorted(expected.begin(), expected.end(), KeyValueLess));
  for (const KeyValue& kv : expected) {
    EXPECT_EQ(kv.key.AsString().size(),
              static_cast<size_t>(program.config.key_bytes));
  }
}

// ---- Budgeted end-to-end -------------------------------------------------

class SpillWordCount : public MapReduce {
 public:
  std::vector<KeyValue> result;

  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)key;
    for (std::string_view word : SplitWhitespace(value.AsString())) {
      emit(Value(word), Value(int64_t{1}));
    }
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    int64_t sum = 0;
    for (const Value& v : values) sum += v.AsInt();
    emit(Value(sum));
  }
  Status Run(Job& job) override {
    static const char* kWords[] = {"spill", "merge", "run", "budget",
                                   "sort",  "disk",  "mrs", "bucket"};
    std::vector<KeyValue> lines;
    for (int64_t i = 0; i < 80; ++i) {
      std::string line;
      for (int64_t j = 0; j < 5; ++j) {
        if (j) line += ' ';
        line += kWords[(i * 5 + j * 3) % 8];
      }
      lines.push_back({Value(i), Value(line)});
    }
    DataSetPtr input = job.LocalData(std::move(lines), /*num_splits=*/4);
    DataSetPtr mapped = job.MapData(input);
    DataSetOptions reduce_options;
    reduce_options.num_splits = 3;
    DataSetPtr reduced = job.ReduceData(mapped, reduce_options);
    MRS_ASSIGN_OR_RETURN(result, job.Collect(reduced));
    std::sort(result.begin(), result.end(), KeyValueLess);
    return Status::Ok();
  }
};

std::vector<KeyValue> RunSpillWordCount(const std::string& impl,
                                        int64_t budget) {
  MemoryBudget& process = MemoryBudget::Process();
  int64_t saved = process.limit();
  process.set_limit(budget);
  SpillWordCount program;
  EXPECT_TRUE(program.Init(Options()).ok());
  RunConfig config;
  config.impl = impl;
  config.num_slaves = 2;
  Status status = RunProgram(
      [] { return std::unique_ptr<MapReduce>(new SpillWordCount()); },
      &program, config);
  process.set_limit(saved);
  EXPECT_TRUE(status.ok()) << impl << ": " << status.ToString();
  return program.result;
}

TEST(SpillEndToEnd, TinyBudgetForcesSpillWithIdenticalAnswer) {
  obs::Counter* spilled =
      obs::Registry::Instance().GetCounter("mrs.spill.bytes_spilled");
  std::vector<KeyValue> unbudgeted = RunSpillWordCount("serial", 0);
  ASSERT_FALSE(unbudgeted.empty());
  int64_t before = spilled->value();
  std::vector<KeyValue> budgeted = RunSpillWordCount("serial", 1);
  EXPECT_GT(spilled->value() - before, 0)
      << "a 1-byte budget must force every bucket to disk";
  EXPECT_EQ(EncodeTextRecords(budgeted), EncodeTextRecords(unbudgeted));
}

// ---- One spill file per task attempt, gone with its dataset --------------

/// Pins the process budget for one scope; the explicit limit also shields
/// these tests from an ambient $MRS_MEMORY_BUDGET.
class ScopedBudget {
 public:
  explicit ScopedBudget(int64_t bytes)
      : prev_(MemoryBudget::Process().limit()) {
    MemoryBudget::Process().set_limit(bytes);
  }
  ~ScopedBudget() {
    MemoryBudget::Process().set_limit(prev_);
    MemoryBudget::Process().ResetForTest();
  }

 private:
  int64_t prev_;
};

int64_t CounterValue(const char* name) {
  return obs::Registry::Instance().GetCounter(name)->value();
}

const char* const kSpillRunners[] = {"serial", "mockparallel", "thread",
                                     "masterslave"};

/// A DistSort program small enough for a unit test: 4 map tasks and, at
/// parallelism 4, 4 reduce tasks.  With `fail_maps`, every map attempt
/// throws after it has emitted (and, under a budget, spilled) its records.
class SmallSort : public sort::DistSortProgram {
 public:
  explicit SmallSort(bool fail_maps = false) : fail_maps_(fail_maps) {
    config.tasks = 4;
    config.records_per_task = 300;
    config.reduce_splits = 3;
  }
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    sort::DistSortProgram::Map(key, value, emit);
    if (fail_maps_) throw std::runtime_error("map fails after spilling");
  }

 private:
  bool fail_maps_;
};

/// One runner of the sweep, with the directory its spill files go to.
struct SpillRunner {
  std::unique_ptr<ClusterLauncher> cluster;  // masterslave
  std::unique_ptr<Runner> runner;
  std::string spill_parent;
  std::string tmpdir;          // mockparallel
  const char* attempts = "";   // counter of task attempts
};

Result<SpillRunner> MakeSpillRunner(const std::string& impl,
                                    MapReduce* program, bool fail_maps) {
  SpillRunner r;
  if (impl == "mockparallel") {
    MRS_ASSIGN_OR_RETURN(r.tmpdir, MakeTempDir("mrs_spill_mock_"));
    r.spill_parent = r.tmpdir;
    r.runner = std::make_unique<SerialRunner>(program, r.tmpdir);
    r.attempts = "mrs.mock.tasks";
    return r;
  }
  MRS_ASSIGN_OR_RETURN(r.spill_parent, SpillRoot());
  if (impl == "serial") {
    r.runner = std::make_unique<SerialRunner>(program);
    r.attempts = "mrs.serial.tasks";
  } else if (impl == "thread") {
    r.runner = std::make_unique<ThreadRunner>(program, /*num_workers=*/2);
    r.attempts = "mrs.thread.tasks";
  } else {
    ClusterLauncher::Config config;
    config.num_slaves = 2;
    config.master.speculation_quantile = 0;  // attempts = tasks
    MRS_ASSIGN_OR_RETURN(
        r.cluster,
        ClusterLauncher::Start(
            [fail_maps] { return std::make_unique<SmallSort>(fail_maps); },
            Options(), config));
    r.runner = std::make_unique<MasterRunner>(&r.cluster->master());
    r.attempts = "mrs.master.tasks_assigned";
  }
  return r;
}

/// Spill files under `dir`, recursively.
std::set<std::string> SpillFilesUnder(const std::string& dir) {
  std::set<std::string> out;
  Result<std::vector<std::string>> files = ListFilesRecursive(dir);
  if (!files.ok()) return out;
  for (const std::string& f : *files) {
    if (EndsWith(f, ".mrsk")) out.insert(f);
  }
  return out;
}

/// Spill files under `dir` that are not in `before`.  Slaves learn of a
/// discard on their next poll, so this waits (bounded) for them to go.
std::vector<std::string> NewSpillFiles(const std::string& dir,
                                       const std::set<std::string>& before) {
  std::vector<std::string> added;
  for (int tries = 0; tries < 100; ++tries) {
    added.clear();
    for (const std::string& f : SpillFilesUnder(dir)) {
      if (before.count(f) == 0) added.push_back(f);
    }
    if (added.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return added;
}

TEST(SpillFiles, BudgetedDistSortWritesOneFilePerTaskAttemptAtMost) {
  ScopedBudget tiny(1);
  for (const std::string impl : kSpillRunners) {
    SCOPED_TRACE(impl);
    SmallSort program;
    ASSERT_TRUE(program.Init(Options()).ok());
    auto r = MakeSpillRunner(impl, &program, /*fail_maps=*/false);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const int64_t files_before = CounterValue("mrs.spill.files_created");
    const int64_t runs_before = CounterValue("mrs.spill.runs_written");
    const int64_t attempts_before = CounterValue(r->attempts);
    Job job(&program, std::move(r->runner));
    job.set_default_parallelism(4);
    DataSetPtr input;
    ASSERT_TRUE(program.InputData(job, &input).ok());
    DataSetPtr mapped = job.MapData(input);
    DataSetOptions reduce_options;
    reduce_options.num_splits = program.config.reduce_splits;
    DataSetPtr reduced = job.ReduceData(mapped, reduce_options);
    auto out = job.Collect(reduced);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(*out == program.ExpectedOutput());

    const int64_t files = CounterValue("mrs.spill.files_created") - files_before;
    const int64_t attempts = CounterValue(r->attempts) - attempts_before;
    EXPECT_EQ(attempts, 8);
    EXPECT_GT(files, 0);
    EXPECT_LE(files, attempts);
    if (impl == "mockparallel") {
      EXPECT_EQ(static_cast<int64_t>(SpillFilesUnder(r->tmpdir).size()),
                files);
    }
    // Fewer files, the same runs: a 1-byte budget makes every spill
    // decision regardless of scheduling, so this job writes exactly these
    // runs however they are packed into files (masterslave adds the 16
    // reduce inputs each slave stages as sorted runs).
    EXPECT_EQ(CounterValue("mrs.spill.runs_written") - runs_before,
              impl == "masterslave" ? 209 : 193);
    if (r->cluster) r->cluster->Shutdown();
    if (!r->tmpdir.empty()) RemoveTree(r->tmpdir);
  }
}

TEST(SpillFiles, DiscardLeavesNoSpillFileOnAnyRunner) {
  ScopedBudget tiny(1);
  for (const std::string impl : kSpillRunners) {
    SCOPED_TRACE(impl);
    SmallSort program;
    ASSERT_TRUE(program.Init(Options()).ok());
    auto r = MakeSpillRunner(impl, &program, /*fail_maps=*/false);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::set<std::string> before = SpillFilesUnder(r->spill_parent);
    Job job(&program, std::move(r->runner));
    job.set_default_parallelism(4);
    DataSetPtr input;
    ASSERT_TRUE(program.InputData(job, &input).ok());
    DataSetPtr mapped = job.MapData(input);
    DataSetPtr reduced = job.ReduceData(mapped);
    auto out = job.Collect(reduced);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_GT(SpillFilesUnder(r->spill_parent).size(), before.size())
        << "a 1-byte budget wrote no spill file";
    for (const DataSetPtr& ds : {input, mapped, reduced}) job.Discard(ds);
    std::vector<std::string> left = NewSpillFiles(r->spill_parent, before);
    EXPECT_TRUE(left.empty()) << left.front();
    if (r->cluster) r->cluster->Shutdown();
    if (!r->tmpdir.empty()) RemoveTree(r->tmpdir);
  }
  // Unbudgeted, mock parallel keeps its rows as runs of its task attempts'
  // spill files in the tmpdir: at most one per attempt, no other file, and
  // nothing once every dataset is discarded.
  ScopedBudget none(0);
  SmallSort program;
  ASSERT_TRUE(program.Init(Options()).ok());
  auto r = MakeSpillRunner("mockparallel", &program, /*fail_maps=*/false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const int64_t attempts_before = CounterValue(r->attempts);
  Job job(&program, std::move(r->runner));
  job.set_default_parallelism(4);
  DataSetPtr input;
  ASSERT_TRUE(program.InputData(job, &input).ok());
  DataSetPtr mapped = job.MapData(input);
  DataSetPtr reduced = job.ReduceData(mapped);
  auto out = job.Collect(reduced);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(*out == program.ExpectedOutput());
  const int64_t attempts = CounterValue(r->attempts) - attempts_before;
  auto files = ListFilesRecursive(r->tmpdir);
  ASSERT_TRUE(files.ok());
  EXPECT_FALSE(files->empty());
  EXPECT_LE(static_cast<int64_t>(files->size()), attempts);
  EXPECT_EQ(SpillFilesUnder(r->tmpdir).size(), files->size())
      << "a file that is not a spill file: " << files->front();
  for (const DataSetPtr& ds : {input, mapped, reduced}) job.Discard(ds);
  files = ListFilesRecursive(r->tmpdir);
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(files->empty()) << files->front();
  RemoveTree(r->tmpdir);
}

TEST(SpillFiles, FailedAttemptLeavesNoSpillFile) {
  ScopedBudget tiny(1);
  for (const std::string impl : kSpillRunners) {
    SCOPED_TRACE(impl);
    SmallSort program(/*fail_maps=*/true);
    ASSERT_TRUE(program.Init(Options()).ok());
    auto r = MakeSpillRunner(impl, &program, /*fail_maps=*/true);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::set<std::string> before = SpillFilesUnder(r->spill_parent);
    const int64_t files_before = CounterValue("mrs.spill.files_created");
    Job job(&program, std::move(r->runner));
    job.set_default_parallelism(4);
    DataSetPtr input;
    ASSERT_TRUE(program.InputData(job, &input).ok());
    DataSetPtr mapped = job.MapData(input);
    EXPECT_FALSE(job.Wait(mapped).ok());
    EXPECT_GT(CounterValue("mrs.spill.files_created") - files_before, 0)
        << "the failing attempts never spilled";
    // Every map attempt failed, so none of their spill files may remain.
    std::vector<std::string> left = NewSpillFiles(r->spill_parent, before);
    EXPECT_TRUE(left.empty()) << left.front();
    if (r->cluster) r->cluster->Shutdown();
    if (!r->tmpdir.empty()) RemoveTree(r->tmpdir);
  }
}

// ---- A failed task gives its budget charge back ---------------------------
//
// The budget is charged while a task produces, so a task that throws or
// fails mid-stream must release what it charged; a leak would make every
// later task in the process spill early.

/// Map: 100 emits, then a throw.  Reduce: every value re-emitted.
class EmitThenThrow : public MapReduce {
 public:
  void Map(const Value&, const Value&, const Emitter& emit) override {
    for (int64_t i = 0; i < 100; ++i) emit(Value(i), Value("payload"));
    throw std::runtime_error("map fails after 100 emits");
  }
  void Reduce(const Value&, const ValueList& values,
              const ValueEmitter& emit) override {
    for (const Value& v : values) emit(v);
  }
};

/// 100 sorted records, then the kDataLoss a corrupt run reports.
class FailsAfter100 : public MergeSource {
 public:
  Result<bool> Next(KeyValue* out) override {
    if (next_ == 100) return DataLossError("run corrupt after 100 records");
    *out = KeyValue{Value(next_), Value("payload")};
    ++next_;
    return true;
  }

 private:
  int64_t next_ = 0;
};

TEST(SpillBudget, ThrowingMapReleasesItsCharge) {
  ScopedBudget roomy(int64_t{1} << 30);  // active, never asks to spill
  MemoryBudget& budget = MemoryBudget::Process();
  budget.ResetForTest();
  EmitThenThrow program;
  ASSERT_TRUE(program.Init(Options()).ok());
  std::optional<TaskSpillContext> spill = NewTaskSpillContext("leak", 1, 0);
  ASSERT_TRUE(spill.has_value());
  Result<std::vector<Bucket>> row = CatchUserExceptions("task", [&] {
    return RunMapTask(program, DataSetOptions(), 4,
                      {{Value(int64_t{0}), Value("line")}}, &*spill);
  });
  ASSERT_FALSE(row.ok());
  EXPECT_GT(budget.high_water(), 0) << "the map never charged the budget";
  EXPECT_EQ(budget.usage(), 0);
}

TEST(SpillBudget, ReduceWhoseMergeFailsReleasesItsCharge) {
  ScopedBudget roomy(int64_t{1} << 30);
  MemoryBudget& budget = MemoryBudget::Process();
  budget.ResetForTest();
  EmitThenThrow program;
  ASSERT_TRUE(program.Init(Options()).ok());
  std::optional<TaskSpillContext> spill = NewTaskSpillContext("leak", 1, 0);
  ASSERT_TRUE(spill.has_value());
  std::vector<std::unique_ptr<MergeSource>> sources;
  sources.push_back(std::make_unique<FailsAfter100>());
  Result<std::vector<Bucket>> row = ReduceMergedSources(
      program, DataSetOptions(), 4, std::move(sources), &*spill);
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.status().code(), StatusCode::kDataLoss);
  EXPECT_GT(budget.high_water(), 0) << "the reduce never charged the budget";
  EXPECT_EQ(budget.usage(), 0);
}

// ---- Mixed-version data plane ----------------------------------------------
//
// A bucket request without the xxh64 token comes from a peer that predates
// XXH64, which checks a value v against data as Fnv1aChecksum(data) == v.
// Every value it receives must pass that check, and a current peer must
// receive XXH64 values only.  Run-backed buckets come from a 1-byte budget.

/// One map job's output hosted by the single slave of a cluster, or, with
/// a shared directory, written there.
struct HostedMapOutput {
  std::unique_ptr<ClusterLauncher> cluster;
  SmallSort program;
  std::unique_ptr<Job> job;
  std::string base;               // "http://host:port" of the slave
  std::vector<std::string> ids;   // "<dataset>/<source>/<split>"
  std::vector<std::string> urls;  // every bucket's
};

Result<std::unique_ptr<HostedMapOutput>> HostMapOutput(
    int64_t budget, int spill_corrupt = 0, std::string shared_dir = "") {
  auto hosted = std::make_unique<HostedMapOutput>();
  MRS_RETURN_IF_ERROR(hosted->program.Init(Options()));
  ClusterLauncher::Config config;
  config.num_slaves = 1;
  config.slave.shared_dir = std::move(shared_dir);
  config.fault_plans.resize(1);
  config.fault_plans[0].spill_corrupt = spill_corrupt;
  MRS_ASSIGN_OR_RETURN(
      hosted->cluster,
      ClusterLauncher::Start([] { return std::make_unique<SmallSort>(); },
                             Options(), config));
  hosted->job = std::make_unique<Job>(
      &hosted->program,
      std::make_unique<MasterRunner>(&hosted->cluster->master()));
  hosted->job->set_default_parallelism(4);
  DataSetPtr mapped;
  {
    // Map tasks may start at submission, so the budget covers it.
    ScopedBudget scoped(budget);
    DataSetPtr input;
    MRS_RETURN_IF_ERROR(hosted->program.InputData(*hosted->job, &input));
    mapped = hosted->job->MapData(input);
    MRS_RETURN_IF_ERROR(hosted->job->Wait(mapped));
  }
  for (int source = 0; source < mapped->num_sources(); ++source) {
    for (int split = 0; split < mapped->num_splits(); ++split) {
      const std::string& url = mapped->bucket(source, split).url();
      hosted->urls.push_back(url);
      if (!config.slave.shared_dir.empty()) continue;
      size_t at = url.find("/bucket/");
      if (at == std::string::npos) return InternalError("not served: " + url);
      hosted->base = url.substr(0, at);
      hosted->ids.push_back(url.substr(at + 8));
    }
  }
  return hosted;
}

/// Ask for `target` the way a peer of either version does.
Result<HttpResponse> RequestAs(bool new_peer, const std::string& base,
                               const std::string& target) {
  MRS_ASSIGN_OR_RETURN(HttpUrl url, HttpUrl::Parse(base));
  HttpClient client(SocketAddr{url.host, url.port});
  HttpRequest req;
  req.target = target;
  std::vector<std::string> tokens;
  if (StartsWith(target, "/bucket?")) {
    tokens.push_back(std::string(kBucketFramesFormat));
  }
  if (new_peer) tokens.push_back(std::string(kXxh64ChecksumFormat));
  if (!tokens.empty()) {
    req.headers.Set(std::string(kMrsFormatHeader), Join(tokens, ", "));
  }
  return client.Do(std::move(req));
}

/// GET `target` the way a peer of either version asks for it.
Result<HttpResponse> GetAs(bool new_peer, const std::string& base,
                           const std::string& target) {
  MRS_ASSIGN_OR_RETURN(HttpResponse resp, RequestAs(new_peer, base, target));
  if (resp.status_code != 200) {
    return InternalError("GET " + target + " -> " +
                         std::to_string(resp.status_code));
  }
  return resp;
}

/// A checksum value a response carried, with the bytes it guards.
struct Guarded {
  std::string what;
  std::string checksum;
  std::string data;
};

/// Every checksum in every single-bucket and batched response of `hosted`,
/// fetched as a peer of the given version.  Counts the run-backed buckets
/// (served as frame sets) in `*run_backed`.
std::vector<Guarded> ChecksumsServedTo(bool new_peer,
                                       const HostedMapOutput& hosted,
                                       int* run_backed) {
  std::vector<Guarded> out;
  auto add_frames = [&out](const std::string& what, const std::string& body) {
    // Parse without verifying, so that a value the peer could not verify
    // is reported here rather than hidden behind a decode error.
    ByteReader r(std::string_view(body).substr(kBucketFramesFormat.size()));
    uint64_t count = r.GetVarint().value();
    for (uint64_t i = 0; i < count; ++i) {
      std::string id = r.GetLengthPrefixed().value();
      std::string checksum = r.GetLengthPrefixed().value();
      out.push_back({what + " frame " + id, std::move(checksum),
                     r.GetLengthPrefixed().value()});
    }
  };
  for (const std::string& id : hosted.ids) {
    Result<HttpResponse> resp = GetAs(new_peer, hosted.base, "/bucket/" + id);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    if (!resp.ok()) continue;
    std::optional<std::string_view> header =
        resp->headers.Get(kMrsChecksumHeader);
    if (StartsWith(resp->body, kBucketFramesFormat)) {
      // A frame set carries no whole-body checksum.
      EXPECT_FALSE(header.has_value()) << id;
      add_frames(id, resp->body);
      ++*run_backed;
    } else {
      EXPECT_TRUE(header.has_value()) << id;
      if (header) out.push_back({id, std::string(*header), resp->body});
    }
  }
  Result<HttpResponse> batch =
      GetAs(new_peer, hosted.base, "/bucket?ids=" + Join(hosted.ids, ","));
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  if (batch.ok()) add_frames("batch", batch->body);
  return out;
}

std::vector<KeyValue> RecordsOf(const std::string& body) {
  Result<std::vector<KeyValue>> records = DecodeBucketBody(body);
  EXPECT_TRUE(records.ok()) << records.status().ToString();
  return records.ok() ? *records : std::vector<KeyValue>{};
}

TEST(MixedVersionDataPlane, OldPeerGetsOnlyFnv1aOnPlainRunBackedAndBatched) {
  for (bool run_backed : {false, true}) {
    SCOPED_TRACE(run_backed ? "run-backed" : "plain");
    auto hosted = HostMapOutput(run_backed ? 1 : 0);
    ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
    int served_run_backed = 0;
    std::vector<Guarded> served = ChecksumsServedTo(
        /*new_peer=*/false, **hosted, &served_run_backed);
    EXPECT_GT(served.size(), (*hosted)->ids.size());
    EXPECT_EQ(served_run_backed > 0, run_backed);
    for (const Guarded& g : served) {
      EXPECT_EQ(g.checksum, Fnv1aChecksum(g.data)) << g.what;
    }
    (*hosted)->cluster->Shutdown();
  }
}

TEST(MixedVersionDataPlane, NewPeerGetsOnlyXxh64AndTheSameRecords) {
  for (bool run_backed : {false, true}) {
    SCOPED_TRACE(run_backed ? "run-backed" : "plain");
    auto hosted = HostMapOutput(run_backed ? 1 : 0);
    ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
    const HostedMapOutput& h = **hosted;
    int served_run_backed = 0;
    for (const Guarded& g :
         ChecksumsServedTo(/*new_peer=*/true, h, &served_run_backed)) {
      EXPECT_EQ(g.checksum, ContentChecksum(g.data)) << g.what;
    }
    EXPECT_EQ(served_run_backed > 0, run_backed);
    // The client paths a current slave uses read the same records as a
    // peer that predates XXH64 reads.
    auto batch = FetchBucketBatch(h.base, h.ids);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), h.ids.size());
    for (const std::string& id : h.ids) {
      SCOPED_TRACE(id);
      auto fetched = HttpFetch(h.base + "/bucket/" + id);
      ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
      auto old_peer = GetAs(/*new_peer=*/false, h.base, "/bucket/" + id);
      ASSERT_TRUE(old_peer.ok());
      const std::vector<KeyValue> expected = RecordsOf(old_peer->body);
      EXPECT_EQ(RecordsOf(*fetched), expected);
      EXPECT_EQ(RecordsOf(batch->at(id)), expected);
    }
    (*hosted)->cluster->Shutdown();
  }
}

TEST(MixedVersionDataPlane, CorruptRunStaysDataLossForAnOldPeer) {
  // The slave flips one byte inside its first published run.  Re-hashing
  // that run for an old peer must not launder the flip: the frame keeps
  // its XXH64 value, which the old peer's FNV-1a check rejects.
  auto hosted = HostMapOutput(/*budget=*/1, /*spill_corrupt=*/1);
  ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
  for (bool new_peer : {false, true}) {
    SCOPED_TRACE(new_peer ? "new peer" : "old peer");
    int rejected = 0;
    int served_run_backed = 0;
    for (const Guarded& g :
         ChecksumsServedTo(new_peer, **hosted, &served_run_backed)) {
      const bool passes = new_peer ? ChecksumMatches(g.data, g.checksum)
                                   : g.checksum == Fnv1aChecksum(g.data);
      if (!passes) {
        ++rejected;
        EXPECT_TRUE(StartsWith(g.checksum, "xxh64:")) << g.what;
      }
    }
    // The run is served once on its own and once in the batch.
    EXPECT_EQ(rejected, 2);
  }
  (*hosted)->cluster->Shutdown();
}

TEST(MixedVersionDataPlane, AnyFlipOrCutOfARunBackedBodyIsDataLoss) {
  // With no whole-body checksum, the frame checksums and exact framing
  // alone must catch every damaged byte.  A flip inside a frame id changes
  // no record, so it may decode, but only to the same records.
  auto hosted = HostMapOutput(/*budget=*/1);
  ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
  auto resp = GetAs(/*new_peer=*/true, (*hosted)->base,
                    "/bucket/" + (*hosted)->ids.front());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  (*hosted)->cluster->Shutdown();
  const std::string& body = resp->body;
  const std::vector<KeyValue> expected = RecordsOf(body);
  ASSERT_FALSE(expected.empty());
  int decoded_same = 0;
  for (size_t at = 0; at < body.size(); ++at) {
    std::string flipped = body;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x20);
    Result<std::vector<KeyValue>> got = DecodeBucketBody(flipped);
    if (got.ok()) {
      EXPECT_EQ(*got, expected) << "flip at " << at;
      ++decoded_same;
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kDataLoss) << "flip at " << at;
    }
    // An empty body reads as an empty text bucket; HTTP framing (a short
    // body is "connection closed mid-response") covers that cut.
    if (at == 0) continue;
    EXPECT_EQ(DecodeBucketBody(body.substr(0, at)).status().code(),
              StatusCode::kDataLoss)
        << "cut at " << at;
  }
  // Only frame ids ("<dataset>/<source>/<split>#run<i>") may absorb a flip.
  EXPECT_LT(decoded_same, static_cast<int>(body.size() / 4));
}

TEST(RunBackedServing, UnreadableRunIsNotFoundOnBothRoutes) {
  auto root = SpillRoot();
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const std::set<std::string> before = SpillFilesUnder(*root);
  auto hosted = HostMapOutput(/*budget=*/1);
  ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
  const HostedMapOutput& h = **hosted;
  // Remove the spill file of the map task that wrote the first bucket.
  const std::string id = h.ids.front();
  const std::vector<std::string_view> part = SplitChar(id, '/');
  const std::string attempt = "_ds" + std::string(part[0]) + "_t" +
                              std::string(part[1]) + "_";
  int removed = 0;
  for (const std::string& file : SpillFilesUnder(*root)) {
    if (before.count(file) > 0 || file.find(attempt) == std::string::npos) {
      continue;
    }
    ASSERT_EQ(std::remove(file.c_str()), 0) << file;
    ++removed;
  }
  ASSERT_EQ(removed, 1);
  for (const std::string& target :
       {"/bucket/" + id, "/bucket?ids=" + Join(h.ids, ",")}) {
    SCOPED_TRACE(target);
    auto resp = RequestAs(/*new_peer=*/true, h.base, target);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status_code, 404);
    EXPECT_NE(resp->body.find("bucket " + id), std::string::npos)
        << resp->body;
  }
  EXPECT_FALSE(FetchBucketBatch(h.base, h.ids).ok());
  // The peer is alive but the data is gone: lineage repairs it, never a
  // retry.
  EXPECT_EQ(HttpFetch(h.base + "/bucket/" + id).status().code(),
            StatusCode::kNotFound);
  // The other map tasks' buckets still serve.
  EXPECT_TRUE(GetAs(/*new_peer=*/true, h.base, "/bucket/" + h.ids.back()).ok());
  (*hosted)->cluster->Shutdown();
}

TEST(SharedDirectory, EveryPayloadFlipOfABucketFileIsDataLoss) {
  // In memory (budget 0) or run-backed (budget 1), a bucket published to
  // the shared directory is a frame set, so a checksum guards every
  // payload byte a reader decodes.
  for (int64_t budget : {0, 1}) {
    SCOPED_TRACE(budget == 0 ? "in-memory buckets" : "run-backed buckets");
    auto dir = MakeTempDir("mrs_shared_flip_");
    ASSERT_TRUE(dir.ok());
    auto hosted = HostMapOutput(budget, /*spill_corrupt=*/0, *dir);
    ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
    (*hosted)->cluster->Shutdown();
    const std::string url = (*hosted)->urls.front();
    ASSERT_TRUE(StartsWith(url, "file://")) << url;
    const std::string path = url.substr(7);
    auto body = ReadFileToString(path);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    Bucket clean;
    clean.set_url(url);
    ASSERT_TRUE(clean.EnsureLoaded(LocalFetch).ok());
    ASSERT_FALSE(clean.records().empty());
    // The payload bytes: each frame's data, or all of a bare record
    // stream, which carries no checksum.
    std::vector<std::string_view> payloads = {*body};
    if (auto frames = DecodeBucketFrameViews(*body); frames.ok()) {
      payloads.clear();
      for (const BucketFrameView& f : *frames) payloads.push_back(f.data);
    }
    // Each flipped file is read as LocalFetch would read it, from memory.
    std::string flipped = *body;
    auto read_flipped = [&flipped](const std::string&) -> Result<std::string> {
      return flipped;
    };
    int flips = 0;
    int not_data_loss = 0;
    for (std::string_view payload : payloads) {
      const size_t begin = static_cast<size_t>(payload.data() - body->data());
      for (size_t at = begin; at < begin + payload.size(); ++at) {
        flipped[at] = static_cast<char>(flipped[at] ^ 0x20);
        Bucket bucket;
        bucket.set_url(url);
        if (bucket.EnsureLoaded(read_flipped).code() !=
            StatusCode::kDataLoss) {
          ++not_data_loss;
        }
        flipped[at] = (*body)[at];
        ++flips;
      }
    }
    EXPECT_GT(flips, 0);
    EXPECT_EQ(not_data_loss, 0) << "of " << flips << " payload flips";
    RemoveTree(*dir);
  }
}

/// A data server as peers that predate XXH64 run it: bare-hex FNV-1a in
/// X-Mrs-Checksum (on frame sets too) and in every frame.
HttpResponse ServeAsOldPeer(const HttpRequest& req,
                            const std::vector<KeyValue>& records) {
  const std::string payload = EncodeBinaryRecords(records);
  auto frame = [&payload](const std::string& id) {
    return BucketFrame{id, Fnv1aChecksum(payload), payload};
  };
  auto [path, query] = SplitTarget(req.target);
  if (path == "/bucket" && FormatAccepted(req.headers, kBucketFramesFormat)) {
    EXPECT_EQ(query, "ids=1/0/0,1/0/1");
    HttpResponse resp = HttpResponse::Ok(
        EncodeBucketFrames({frame("1/0/0"), frame("1/0/1#run0"),
                            frame("1/0/1#run1")}),
        "application/octet-stream");
    resp.headers.Set(std::string(kMrsFormatHeader),
                     std::string(kBucketFramesFormat));
    return resp;
  }
  std::string body;
  if (path == "/bucket/1/0/0") {
    body = payload;
  } else if (path == "/bucket/1/0/1") {
    body = EncodeBucketFrames({frame("1/0/1#run0"), frame("1/0/1#run1")});
  } else {
    return HttpResponse::NotFound();
  }
  HttpResponse resp = HttpResponse::Ok(body, "application/octet-stream");
  resp.headers.Set(std::string(kMrsChecksumHeader), Fnv1aChecksum(body));
  return resp;
}

TEST(MixedVersionDataPlane, NewClientReadsAnOldServer) {
  const std::vector<KeyValue> records = {{Value("k1"), Value(int64_t{1})},
                                         {Value("k2"), Value(2.5)}};
  std::vector<KeyValue> twice = records;
  twice.insert(twice.end(), records.begin(), records.end());
  auto server = HttpServer::Start(
      "127.0.0.1", 0,
      [&records](const HttpRequest& req) {
        return ServeAsOldPeer(req, records);
      });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::string base = "http://" + (*server)->addr().ToString();

  // Plain and run-backed single-bucket GETs, through the bucket loader.
  for (const auto& [id, expected] :
       {std::pair{std::string("1/0/0"), records},
        std::pair{std::string("1/0/1"), twice}}) {
    Bucket bucket;
    bucket.set_url(base + "/bucket/" + id);
    Status loaded = bucket.EnsureLoaded(HttpFetch);
    ASSERT_TRUE(loaded.ok()) << id << ": " << loaded.ToString();
    EXPECT_EQ(bucket.records(), expected) << id;
  }
  // Batched, through the client a current slave uses.
  auto batch = FetchBucketBatch(base, {"1/0/0", "1/0/1"});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_EQ(RecordsOf(batch->at("1/0/0")), records);
  EXPECT_EQ(RecordsOf(batch->at("1/0/1")), twice);
  (*server)->Shutdown();
}

}  // namespace
}  // namespace mrs
