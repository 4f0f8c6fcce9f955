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
//      through Bucket::EnsureLoaded.
// Plus DistSort invariants (partition monotonicity, cross-instance
// splitter agreement) and a budgeted end-to-end WordCount.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/task.h"
#include "fs/bucket.h"
#include "fs/file_io.h"
#include "fs/merge.h"
#include "fs/spill.h"
#include "http/message.h"
#include "obs/metrics.h"
#include "rt/mrs_main.h"
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

TEST_F(SpillDirTest, RemoveSpillRunDeletesTheFile) {
  auto run = WriteSpillRun(Path("gone.mrsk"), "ds3/0/0",
                           {{Value("k"), Value("v")}}, /*sorted=*/true);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(FileExists(run->path));
  RemoveSpillRun(*run);
  EXPECT_FALSE(FileExists(run->path));
  EXPECT_EQ(ReadSpillRun(*run).status().code(), StatusCode::kNotFound);
}

TEST(SpillDirs, NewSpillDirNeverReusesADirectory) {
  auto a = NewSpillDir("test_label");
  auto b = NewSpillDir("test_label");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NE(*a, *b);  // a re-executed task never clobbers stale run files
  EXPECT_TRUE(IsDirectory(*a));
  EXPECT_TRUE(IsDirectory(*b));
}

TEST(SpillDirs, TaskSpillContextExistsOnlyUnderAnActiveBudget) {
  MemoryBudget& process = MemoryBudget::Process();
  const int64_t saved = process.limit();
  auto parent = MakeTempDir("mrs_spill_parent_");
  ASSERT_TRUE(parent.ok());
  process.set_limit(0);
  EXPECT_FALSE(NewTaskSpillContext("test", 7, 3, *parent).has_value());
  process.set_limit(1 << 20);
  std::optional<TaskSpillContext> spill =
      NewTaskSpillContext("test", 7, 3, *parent);
  ASSERT_TRUE(spill.has_value());
  EXPECT_TRUE(spill->enabled());
  process.set_limit(saved);
  EXPECT_EQ(spill->id_prefix, "7/3");  // frames are "<dataset>/<source>/..."
  EXPECT_TRUE(StartsWith(spill->dir, JoinPath(*parent, "test_ds7_t3_")))
      << spill->dir;
  EXPECT_TRUE(IsDirectory(spill->dir));
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

TEST_F(SpillFaultTest, BucketLoadSurfacesRunFaults) {
  std::mt19937 rng(505);
  std::vector<KeyValue> records = MakeRecords(rng, 30);
  Bucket bucket(0, 0);
  for (KeyValue& kv : records) bucket.Append(kv);
  ASSERT_TRUE(
      bucket.SpillToRun(Path("bucket_run.mrsk"), "b/0/0", /*sorted=*/true)
          .ok());
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
  // First 30 spill as run 0, next 30 as run 1, last 30 stay as the
  // in-memory tail — EnsureLoaded must merge all three.
  for (size_t i = 0; i < 30; ++i) bucket.Append(all[i]);
  ASSERT_TRUE(bucket.SpillToRun(Path("r0.mrsk"), "t/0", /*sorted=*/true).ok());
  EXPECT_TRUE(bucket.records().empty());
  for (size_t i = 30; i < 60; ++i) bucket.Append(all[i]);
  ASSERT_TRUE(bucket.SpillToRun(Path("r1.mrsk"), "t/1", /*sorted=*/true).ok());
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
  for (size_t i = 0; i < 25; ++i) bucket.Append(all[i]);
  ASSERT_TRUE(bucket.SpillToRun(Path("f0.mrsk"), "f/0", /*sorted=*/false).ok());
  for (size_t i = 25; i < all.size(); ++i) bucket.Append(all[i]);
  ASSERT_TRUE(bucket.SpillToRun(Path("f1.mrsk"), "f/1", /*sorted=*/false).ok());
  ASSERT_TRUE(bucket.EnsureLoaded(nullptr).ok());
  EXPECT_TRUE(bucket.records() == all);
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

}  // namespace
}  // namespace mrs
