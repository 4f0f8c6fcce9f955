// Tests for the core MapReduce engine: programs, datasets, the shared task
// executor (sort/group, combiner, partitioning), and the local runner in
// its serial, mock-parallel and thread forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/strings.h"
#include "core/job.h"
#include "core/serial_runner.h"
#include "core/thread_runner.h"
#include "fs/file_io.h"
#include "fs/spill.h"
#include "obs/metrics.h"

namespace mrs {
namespace {

class CountProgram : public MapReduce {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)key;
    for (std::string_view word : SplitWhitespace(value.AsString())) {
      emit(Value(word), Value(int64_t{1}));
    }
    ++map_calls;
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    int64_t sum = 0;
    for (const Value& v : values) sum += v.AsInt();
    emit(Value(sum));
    ++reduce_calls;
  }
  int map_calls = 0;
  int reduce_calls = 0;
};

std::map<std::string, int64_t> ToCounts(const std::vector<KeyValue>& records) {
  std::map<std::string, int64_t> counts;
  for (const KeyValue& kv : records) {
    counts[kv.key.AsString()] += kv.value.AsInt();
  }
  return counts;
}

// ---- Program registry --------------------------------------------------------

TEST(Program, DefaultOpsAreRegistered) {
  CountProgram p;
  EXPECT_TRUE(p.FindMap("map").ok());
  EXPECT_TRUE(p.FindReduce("reduce").ok());
  EXPECT_TRUE(p.FindReduce("combine").ok());
  EXPECT_FALSE(p.FindMap("nope").ok());
  EXPECT_FALSE(p.FindReduce("nope").ok());
}

TEST(Program, CustomNamedOps) {
  CountProgram p;
  p.RegisterMap("extract", [](const Value&, const Value&, const Emitter& e) {
    e(Value("x"), Value(int64_t{1}));
  });
  ASSERT_TRUE(p.FindMap("extract").ok());
}

TEST(Program, PartitionIsDeterministicAndInRange) {
  CountProgram p;
  for (int splits : {1, 2, 7, 64}) {
    for (int i = 0; i < 100; ++i) {
      Value key("key" + std::to_string(i));
      int a = p.Partition(key, splits);
      int b = p.Partition(key, splits);
      EXPECT_EQ(a, b);
      EXPECT_GE(a, 0);
      EXPECT_LT(a, splits);
    }
  }
}

TEST(Program, RandomStreamsSeededFromOptions) {
  OptionParser parser;
  AddStandardMrsOptions(&parser);
  auto opts = parser.Parse(std::vector<std::string>{"--mrs-seed", "7"});
  ASSERT_TRUE(opts.ok());
  CountProgram p;
  ASSERT_TRUE(p.Init(*opts).ok());
  EXPECT_EQ(p.seed(), 7u);
  MT19937_64 a = p.Random({1, 2});
  MT19937_64 b = p.Random({1, 2});
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Program, DefaultBypassUnimplemented) {
  CountProgram p;
  EXPECT_EQ(p.Bypass().code(), StatusCode::kUnimplemented);
}

// ---- SortGroupApply ------------------------------------------------------------

TEST(SortGroupApply, GroupsByKeySortedOrder) {
  std::vector<KeyValue> records = {
      {Value("b"), Value(int64_t{1})},
      {Value("a"), Value(int64_t{2})},
      {Value("b"), Value(int64_t{3})},
  };
  ReduceFn sum = [](const Value&, const ValueList& values,
                    const ValueEmitter& emit) {
    int64_t s = 0;
    for (const Value& v : values) s += v.AsInt();
    emit(Value(s));
  };
  auto out = SortGroupApply(std::move(records), sum);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0].key.AsString(), "a");
  EXPECT_EQ((*out)[0].value.AsInt(), 2);
  EXPECT_EQ((*out)[1].key.AsString(), "b");
  EXPECT_EQ((*out)[1].value.AsInt(), 4);
}

TEST(SortGroupApply, ValuesArriveSortedWithinKey) {
  std::vector<KeyValue> records = {
      {Value("k"), Value(int64_t{3})},
      {Value("k"), Value(int64_t{1})},
      {Value("k"), Value(int64_t{2})},
  };
  ValueList seen;
  ReduceFn capture = [&](const Value&, const ValueList& values,
                         const ValueEmitter& emit) {
    seen = values;
    emit(Value(int64_t{0}));
  };
  ASSERT_TRUE(SortGroupApply(std::move(records), capture).ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].AsInt(), 1);
  EXPECT_EQ(seen[2].AsInt(), 3);
}

TEST(SortGroupApply, EmptyInputYieldsEmptyOutput) {
  ReduceFn noop = [](const Value&, const ValueList&, const ValueEmitter&) {};
  auto out = SortGroupApply({}, noop);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

// ---- Task executor -------------------------------------------------------------

TEST(Tasks, MapTaskPartitionsEmittedPairs) {
  CountProgram p;
  ASSERT_TRUE(p.Init(Options()).ok());
  std::vector<KeyValue> input = LinesToRecords("a b a\nc\n");
  DataSetOptions options;
  options.op_name = "map";
  auto row = RunMapTask(p, options, 4, input);
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->size(), 4u);
  // All 4 emissions present, each in the partition its key hashes to.
  int total = 0;
  for (int split = 0; split < 4; ++split) {
    for (const KeyValue& kv : (*row)[split].records()) {
      EXPECT_EQ(p.Partition(kv.key, 4), split);
      ++total;
    }
  }
  EXPECT_EQ(total, 4);
}

TEST(Tasks, CombinerCollapsesMapOutput) {
  CountProgram p;
  ASSERT_TRUE(p.Init(Options()).ok());
  std::vector<KeyValue> input = LinesToRecords("x x x x\n");
  DataSetOptions options;
  options.op_name = "map";
  options.use_combiner = true;
  auto row = RunMapTask(p, options, 2, input);
  ASSERT_TRUE(row.ok());
  int total_records = 0;
  int64_t total_count = 0;
  for (const Bucket& b : *row) {
    for (const KeyValue& kv : b.records()) {
      ++total_records;
      total_count += kv.value.AsInt();
    }
  }
  EXPECT_EQ(total_records, 1);  // one combined record for "x"
  EXPECT_EQ(total_count, 4);
}

TEST(Tasks, ReduceTaskGroupsAndPartitions) {
  CountProgram p;
  ASSERT_TRUE(p.Init(Options()).ok());
  std::vector<KeyValue> input = {
      {Value("a"), Value(int64_t{1})},
      {Value("a"), Value(int64_t{1})},
      {Value("b"), Value(int64_t{5})},
  };
  DataSetOptions options;
  options.op_name = "reduce";
  auto row = RunReduceTask(p, options, 3, std::move(input));
  ASSERT_TRUE(row.ok());
  std::map<std::string, int64_t> counts;
  for (const Bucket& b : *row) {
    for (const KeyValue& kv : b.records()) {
      counts[kv.key.AsString()] = kv.value.AsInt();
    }
  }
  EXPECT_EQ(counts.at("a"), 2);
  EXPECT_EQ(counts.at("b"), 5);
}

TEST(Tasks, UnknownOpNameFailsCleanly) {
  CountProgram p;
  ASSERT_TRUE(p.Init(Options()).ok());
  DataSetOptions options;
  options.op_name = "no_such_op";
  EXPECT_FALSE(RunMapTask(p, options, 1, {}).ok());
  EXPECT_FALSE(RunReduceTask(p, options, 1, {}).ok());
}

// ---- DataSet bookkeeping ---------------------------------------------------------

TEST(DataSet, TaskClaimingIsExclusive) {
  DataSet ds(1, DataSetKind::kMap, 3, 2);
  EXPECT_TRUE(ds.TryClaimTask(1));
  EXPECT_FALSE(ds.TryClaimTask(1));  // already running
  ds.ResetTask(1);
  EXPECT_TRUE(ds.TryClaimTask(1));
}

TEST(DataSet, CompleteRequiresAllSources) {
  DataSet ds(1, DataSetKind::kMap, 2, 1);
  EXPECT_FALSE(ds.Complete());
  std::vector<Bucket> row;
  row.emplace_back(0, 0);
  ds.SetRow(0, std::move(row));
  EXPECT_FALSE(ds.Complete());
  EXPECT_EQ(ds.NumCompleteTasks(), 1);
  std::vector<Bucket> row2;
  row2.emplace_back(0, 0);
  ds.SetRow(1, std::move(row2));
  EXPECT_TRUE(ds.Complete());
}

TEST(DataSet, SetRowNormalizesBucketAddressing) {
  DataSet ds(1, DataSetKind::kMap, 2, 2);
  std::vector<Bucket> row;
  row.emplace_back(0, 0);
  row.emplace_back(0, 1);
  row[0].Append(Value("k"), Value(int64_t{1}));
  row[0].MarkLoaded();
  row[1].MarkLoaded();
  ds.SetRow(1, std::move(row));
  EXPECT_EQ(ds.bucket(1, 0).source(), 1);
  EXPECT_EQ(ds.bucket(1, 0).split(), 0);
  EXPECT_EQ(ds.bucket(1, 0).records().size(), 1u);
}

// ---- Job + runners ---------------------------------------------------------------

std::vector<KeyValue> WordInput() {
  return LinesToRecords(
      "one fish two fish\nred fish blue fish\ntwo if by sea\n");
}

std::map<std::string, int64_t> RunWithRunner(std::unique_ptr<Runner> runner,
                                             MapReduce* program,
                                             int parallelism,
                                             bool use_combiner = false) {
  Job job(program, std::move(runner));
  job.set_default_parallelism(parallelism);
  DataSetPtr input = job.LocalData(WordInput());
  DataSetOptions map_options;
  map_options.use_combiner = use_combiner;
  DataSetPtr mapped = job.MapData(input, map_options);
  DataSetPtr reduced = job.ReduceData(mapped);
  auto out = job.Collect(reduced);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return ToCounts(out.ValueOr({}));
}

TEST(Runners, SerialComputesCorrectCounts) {
  CountProgram p;
  ASSERT_TRUE(p.Init(Options()).ok());
  auto counts = RunWithRunner(std::make_unique<SerialRunner>(&p), &p, 3);
  EXPECT_EQ(counts.at("fish"), 4);
  EXPECT_EQ(counts.at("two"), 2);
  EXPECT_EQ(counts.at("sea"), 1);
  EXPECT_EQ(counts.size(), 8u);
}

TEST(Runners, ParallelismDoesNotChangeResults) {
  for (int parallelism : {1, 2, 5, 13}) {
    CountProgram p;
    ASSERT_TRUE(p.Init(Options()).ok());
    auto counts =
        RunWithRunner(std::make_unique<SerialRunner>(&p), &p, parallelism);
    EXPECT_EQ(counts.at("fish"), 4) << "parallelism=" << parallelism;
    EXPECT_EQ(counts.size(), 8u) << "parallelism=" << parallelism;
  }
}

TEST(Runners, CombinerDoesNotChangeResults) {
  CountProgram with;
  CountProgram without;
  ASSERT_TRUE(with.Init(Options()).ok());
  ASSERT_TRUE(without.Init(Options()).ok());
  auto counts_with =
      RunWithRunner(std::make_unique<SerialRunner>(&with), &with, 3, true);
  auto counts_without = RunWithRunner(
      std::make_unique<SerialRunner>(&without), &without, 3, false);
  EXPECT_EQ(counts_with, counts_without);
  // The default Combine delegates to Reduce, so the combined run performs
  // *more* reduce-function invocations (map-side pre-reductions) while
  // producing identical results.
  EXPECT_GT(with.reduce_calls, without.reduce_calls);
}

TEST(Runners, MockParallelPersistsIntermediateData) {
  CountProgram p;
  ASSERT_TRUE(p.Init(Options()).ok());
  auto tmpdir = MakeTempDir("mrs_core_mock_");
  ASSERT_TRUE(tmpdir.ok());
  {
    auto runner = std::make_unique<SerialRunner>(&p, *tmpdir);
    Job job(&p, std::move(runner));
    job.set_default_parallelism(3);
    DataSetPtr input = job.LocalData(WordInput());
    DataSetPtr mapped = job.MapData(input);
    DataSetPtr reduced = job.ReduceData(mapped);
    auto out = job.Collect(reduced);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(ToCounts(*out).at("fish"), 4);
    // Intermediate files exist on disk for both computed datasets.
    auto files = ListFilesRecursive(*tmpdir);
    ASSERT_TRUE(files.ok());
    EXPECT_GE(files->size(), 6u);
    // Spot-check file content decodes as records.
    auto raw = ReadFileToString(files->front());
    ASSERT_TRUE(raw.ok());
    EXPECT_TRUE(DecodeRecords(*raw).ok());
  }
  RemoveTree(*tmpdir);
}

TEST(Runners, MockParallelMatchesSerialExactly) {
  CountProgram p1, p2;
  ASSERT_TRUE(p1.Init(Options()).ok());
  ASSERT_TRUE(p2.Init(Options()).ok());
  auto tmpdir = MakeTempDir("mrs_core_mock2_");
  ASSERT_TRUE(tmpdir.ok());
  auto serial = RunWithRunner(std::make_unique<SerialRunner>(&p1), &p1, 4);
  auto mock = RunWithRunner(
      std::make_unique<SerialRunner>(&p2, *tmpdir), &p2, 4);
  EXPECT_EQ(serial, mock);
  RemoveTree(*tmpdir);
}

TEST(Runners, DiscardFreesMockParallelFiles) {
  // Unbudgeted, a finished row is persisted as bucket files; under a
  // 1-byte budget its buckets spill to the task attempts' spill files in
  // the dataset's directory instead.  Either way Discard leaves the tmpdir
  // empty.
  std::string text;
  for (int i = 0; i < 20; ++i) {
    text += "one fish two fish\nred fish blue fish\ntwo if by sea\n";
  }
  MemoryBudget& process = MemoryBudget::Process();
  const int64_t saved_limit = process.limit();
  for (int64_t budget : {0, 1}) {
    process.set_limit(budget);
    CountProgram p;
    ASSERT_TRUE(p.Init(Options()).ok());
    auto tmpdir = MakeTempDir("mrs_core_discard_");
    ASSERT_TRUE(tmpdir.ok());
    Job job(&p, std::make_unique<SerialRunner>(&p, *tmpdir));
    job.set_default_parallelism(2);
    DataSetPtr input = job.LocalData(LinesToRecords(text));
    DataSetPtr mapped = job.MapData(input);
    ASSERT_TRUE(job.Wait(mapped).ok()) << "budget=" << budget;
    auto files = ListFilesRecursive(*tmpdir);
    ASSERT_TRUE(files.ok());
    EXPECT_FALSE(files->empty()) << "budget=" << budget;
    if (budget > 0) {
      EXPECT_TRUE(std::any_of(files->begin(), files->end(),
                              [](const std::string& f) {
                                return EndsWith(f, ".mrsk");
                              }))
          << "no spill runs under a 1-byte budget";
    }
    job.Discard(mapped);
    EXPECT_TRUE(ListFilesRecursive(*tmpdir)->empty()) << "budget=" << budget;
    RemoveTree(*tmpdir);
  }
  process.set_limit(saved_limit);
  process.ResetForTest();
}

// A task that failed in one Wait runs again in the next, on every local
// runner, so a Wait that returns OK leaves every row complete.
TEST(Runners, FailedTaskRunsAgainOnTheNextWait) {
  auto tmpdir = MakeTempDir("mrs_core_rerun_mock_");
  ASSERT_TRUE(tmpdir.ok());
  const struct {
    const char* label;
    std::function<std::unique_ptr<Runner>(MapReduce*)> make;
  } runners[] = {
      {"serial",
       [](MapReduce* p) { return std::make_unique<SerialRunner>(p); }},
      {"mockparallel",
       [&](MapReduce* p) {
         return std::make_unique<SerialRunner>(p, *tmpdir);
       }},
      {"thread W1",
       [](MapReduce* p) { return std::make_unique<ThreadRunner>(p, 1); }},
      {"thread W4",
       [](MapReduce* p) { return std::make_unique<ThreadRunner>(p, 4); }},
  };
  for (const auto& runner : runners) {
    SCOPED_TRACE(runner.label);
    CountProgram p;
    ASSERT_TRUE(p.Init(Options()).ok());
    auto dir = MakeTempDir("mrs_core_rerun_");
    ASSERT_TRUE(dir.ok());
    const std::string missing = JoinPath(*dir, "b.txt");
    ASSERT_TRUE(WriteFileAtomic(JoinPath(*dir, "a.txt"), "alpha beta\n").ok());
    ASSERT_TRUE(WriteFileAtomic(missing, "gamma\n").ok());

    Job job(&p, runner.make(&p));
    auto input = job.FileData({*dir});
    ASSERT_TRUE(input.ok());
    DataSetPtr mapped = job.MapData(*input);
    ASSERT_EQ(std::remove(missing.c_str()), 0);
    EXPECT_FALSE(job.Wait(mapped).ok());

    ASSERT_TRUE(WriteFileAtomic(missing, "gamma\n").ok());
    ASSERT_TRUE(job.Wait(mapped).ok());
    EXPECT_TRUE(mapped->Complete());
    auto out = job.Collect(mapped);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->size(), 3u);
    RemoveTree(*dir);
  }
  RemoveTree(*tmpdir);
}

// Records the thread every map and reduce call runs on.
class ThreadRecordingProgram : public CountProgram {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    Record();
    CountProgram::Map(key, value, emit);
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    Record();
    CountProgram::Reduce(key, values, emit);
  }
  std::set<std::thread::id> threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  void Record() {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
  }
  std::mutex mu_;
  std::set<std::thread::id> threads_;
};

// Serial and mock parallel have no workers: every task runs on the thread
// that calls Wait.
TEST(Runners, SerialAndMockParallelRunEveryTaskOnTheWaitingThread) {
  auto tmpdir = MakeTempDir("mrs_core_thread_id_");
  ASSERT_TRUE(tmpdir.ok());
  for (bool mock : {false, true}) {
    SCOPED_TRACE(mock ? "mockparallel" : "serial");
    ThreadRecordingProgram p;
    ASSERT_TRUE(p.Init(Options()).ok());
    auto counts = RunWithRunner(
        std::make_unique<SerialRunner>(&p, mock ? *tmpdir : ""), &p, 4);
    EXPECT_EQ(counts.at("fish"), 4);
    EXPECT_GT(p.map_calls, 0);
    EXPECT_GT(p.reduce_calls, 0);
    EXPECT_EQ(p.threads(),
              std::set<std::thread::id>{std::this_thread::get_id()});
  }
  RemoveTree(*tmpdir);
}

// Stands in for the master's lineage recovery: once a Wait has completed
// the reduce dataset, row 0 is invalidated, as the master does when the
// host of a finished row dies.  The serial runner re-derives the row at
// the next Wait.
class InvalidateAfterWaitRunner final : public Runner {
 public:
  explicit InvalidateAfterWaitRunner(MapReduce* program) : inner_(program) {}

  void Submit(const DataSetPtr& dataset) override { inner_.Submit(dataset); }
  Status Wait(const DataSetPtr& dataset) override {
    Status status = inner_.Wait(dataset);
    if (status.ok() && dataset->kind() == DataSetKind::kReduce) {
      if (++reduce_waits == 1) dataset->InvalidateTask(0);
    }
    return status;
  }
  UrlFetcher fetcher() override { return inner_.fetcher(); }
  std::string name() const override { return "invalidate-after-wait"; }

  int reduce_waits = 0;

 private:
  SerialRunner inner_;
};

TEST(Runners, CollectWaitsAgainForARowInvalidatedAfterWait) {
  CountProgram serial;
  ASSERT_TRUE(serial.Init(Options()).ok());
  auto want =
      RunWithRunner(std::make_unique<SerialRunner>(&serial), &serial, 3);

  CountProgram p;
  ASSERT_TRUE(p.Init(Options()).ok());
  auto runner = std::make_unique<InvalidateAfterWaitRunner>(&p);
  InvalidateAfterWaitRunner* invalidating = runner.get();
  Job job(&p, std::move(runner));
  job.set_default_parallelism(3);
  DataSetPtr reduced =
      job.ReduceData(job.MapData(job.LocalData(WordInput())));
  auto out = job.Collect(reduced);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Read as empty, the invalidated row would drop words from the counts.
  EXPECT_EQ(ToCounts(*out), want);
  EXPECT_EQ(invalidating->reduce_waits, 2);
}

TEST(Runners, FileDataReadsNestedDirectories) {
  CountProgram p;
  ASSERT_TRUE(p.Init(Options()).ok());
  auto dir = MakeTempDir("mrs_core_files_");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(EnsureDir(JoinPath(*dir, "sub/deep")).ok());
  ASSERT_TRUE(WriteFileAtomic(JoinPath(*dir, "a.txt"), "alpha beta\n").ok());
  ASSERT_TRUE(
      WriteFileAtomic(JoinPath(*dir, "sub/deep/b.txt"), "beta gamma\n").ok());

  Job job(&p, std::make_unique<SerialRunner>(&p));
  auto input = job.FileData({*dir});
  ASSERT_TRUE(input.ok());
  EXPECT_EQ((*input)->num_splits(), 2);  // one split per file
  DataSetPtr mapped = job.MapData(*input);
  DataSetPtr reduced = job.ReduceData(mapped);
  auto out = job.Collect(reduced);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(ToCounts(*out).at("beta"), 2);
  RemoveTree(*dir);
}

TEST(Runners, FileDataMissingInputIsError) {
  CountProgram p;
  Job job(&p, std::make_unique<SerialRunner>(&p));
  EXPECT_FALSE(job.FileData({"/no/such/path/zzz"}).ok());
}

TEST(Runners, NamedOperationsViaDataSetOptions) {
  CountProgram p;
  ASSERT_TRUE(p.Init(Options()).ok());
  p.RegisterMap("shout", [](const Value& k, const Value& v, const Emitter& e) {
    (void)k;
    e(Value(ToUpperAscii(v.AsString())), Value(int64_t{1}));
  });
  Job job(&p, std::make_unique<SerialRunner>(&p));
  job.set_default_parallelism(2);
  DataSetPtr input = job.LocalData(LinesToRecords("abc\n"));
  DataSetOptions options;
  options.op_name = "shout";
  DataSetPtr mapped = job.MapData(input, options);
  auto out = job.Collect(mapped);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].key.AsString(), "ABC");
}

// A Partition() override that strays outside [0, num_splits) must not
// drop or crash: every site (LocalData, map output, reduce output) remaps
// to split 0 and counts the stray in mrs.partition.out_of_range.
class RoguePartitionProgram : public CountProgram {
 public:
  int Partition(const Value& key, int num_splits) const override {
    (void)key;
    (void)num_splits;
    return rogue_split;
  }
  int rogue_split = 99;
};

TEST(Runners, OutOfRangePartitionRemapsToSplitZeroAndCounts) {
  for (int rogue : {99, -3}) {
    RoguePartitionProgram p;
    p.rogue_split = rogue;
    ASSERT_TRUE(p.Init(Options()).ok());
    int64_t before = obs::Registry::Instance()
                         .CounterValues()["mrs.partition.out_of_range"];
    auto counts = RunWithRunner(std::make_unique<SerialRunner>(&p), &p, 3);
    int64_t after = obs::Registry::Instance()
                        .CounterValues()["mrs.partition.out_of_range"];
    // The answer is intact — only the layout collapsed to one split.
    EXPECT_EQ(counts.at("fish"), 4) << "rogue=" << rogue;
    EXPECT_EQ(counts.size(), 8u) << "rogue=" << rogue;
    EXPECT_GT(after - before, 0) << "rogue=" << rogue;
  }
}

TEST(Runners, FailingOpSurfacesError) {
  CountProgram p;
  ASSERT_TRUE(p.Init(Options()).ok());
  Job job(&p, std::make_unique<SerialRunner>(&p));
  DataSetPtr input = job.LocalData(WordInput());
  DataSetOptions options;
  options.op_name = "missing_op";
  DataSetPtr mapped = job.MapData(input, options);
  EXPECT_FALSE(job.Collect(mapped).ok());
}

}  // namespace
}  // namespace mrs
