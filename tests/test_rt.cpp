// Integration tests for the distributed runtime: protocol round trips,
// master/slave execution over real loopback TCP + XML-RPC, implementation
// equivalence, fault injection and recovery, affinity scheduling, and the
// shared-filesystem data path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "common/clock.h"
#include "common/strings.h"
#include "fs/file_io.h"
#include "http/client.h"
#include "obs/metrics.h"
#include "rt/cluster.h"
#include "rt/mrs_main.h"
#include "rt/protocol.h"
#include "ser/record.h"
#include "xmlrpc/client.h"

namespace mrs {
namespace {

// ---- Protocol -----------------------------------------------------------

TEST(Protocol, TaskAssignmentRoundTrip) {
  TaskAssignment a;
  a.dataset_id = 7;
  a.kind = DataSetKind::kReduce;
  a.source = 3;
  a.num_splits = 5;
  a.options.op_name = "best";
  a.options.use_combiner = true;
  a.options.combine_name = "combine";
  a.inputs.push_back(TaskInputPart::Url("http://h:1/bucket/1/0/3"));
  a.inputs.push_back(TaskInputPart::Inline(
      {{Value("k"), Value(int64_t{1})}, {Value(2.5), Value()}}));

  auto back = TaskAssignment::FromRpc(a.ToRpc());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->dataset_id, 7);
  EXPECT_EQ(back->kind, DataSetKind::kReduce);
  EXPECT_EQ(back->source, 3);
  EXPECT_EQ(back->num_splits, 5);
  EXPECT_EQ(back->options.op_name, "best");
  EXPECT_TRUE(back->options.use_combiner);
  ASSERT_EQ(back->inputs.size(), 2u);
  EXPECT_EQ(back->inputs[0].url, "http://h:1/bucket/1/0/3");
  ASSERT_TRUE(back->inputs[1].inline_records);
  EXPECT_EQ(back->inputs[1].records.size(), 2u);
  EXPECT_EQ(back->inputs[1].records[0].key.AsString(), "k");
}

TEST(Protocol, RecordsRpcRoundTrip) {
  std::vector<KeyValue> records = {{Value("a"), Value(int64_t{1})}};
  auto back = RecordsFromRpc(RecordsToRpc(records));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, records);
}

// ---- A test program -------------------------------------------------------

class SquareSum : public MapReduce {
 public:
  // map: (i, n) -> (n % 3, n*n); reduce: sum.
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)key;
    int64_t n = value.AsInt();
    emit(Value(n % 3), Value(n * n));
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    int64_t sum = 0;
    for (const Value& v : values) sum += v.AsInt();
    emit(Value(sum));
  }

  Status Run(Job& job) override {
    std::vector<KeyValue> input;
    for (int64_t i = 1; i <= 30; ++i) {
      input.push_back(KeyValue{Value(i), Value(i)});
    }
    DataSetPtr data = job.LocalData(std::move(input));
    DataSetPtr mapped = job.MapData(data);
    DataSetPtr reduced = job.ReduceData(mapped);
    MRS_ASSIGN_OR_RETURN(result, job.Collect(reduced));
    std::sort(result.begin(), result.end(), KeyValueLess);
    return Status::Ok();
  }

  std::vector<KeyValue> result;
};

std::vector<KeyValue> RunSquareSum(const std::string& impl, int num_slaves,
                                   bool shared_files = false,
                                   int faults = 0) {
  auto factory = [] { return std::make_unique<SquareSum>(); };
  SquareSum program;
  EXPECT_TRUE(program.Init(Options()).ok());
  RunConfig config;
  config.impl = impl;
  config.num_slaves = num_slaves;
  config.shared_files = shared_files;
  config.first_slave_faults = faults;
  Status status = RunProgram(
      [] { return std::unique_ptr<MapReduce>(new SquareSum()); }, &program,
      config);
  EXPECT_TRUE(status.ok()) << impl << ": " << status.ToString();
  (void)factory;
  return program.result;
}

// ---- Equivalence across implementations ------------------------------------

TEST(MasterSlave, MatchesSerialAndMock) {
  auto serial = RunSquareSum("serial", 2);
  auto mock = RunSquareSum("mockparallel", 2);
  auto distributed = RunSquareSum("masterslave", 2);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, mock);
  EXPECT_EQ(serial, distributed);
  // Spot-check math: keys 0,1,2; sum of squares of 1..30 = 9455.
  int64_t total = 0;
  for (const KeyValue& kv : serial) total += kv.value.AsInt();
  EXPECT_EQ(total, 9455);
}

TEST(MasterSlave, SlaveCountDoesNotChangeAnswer) {
  auto one = RunSquareSum("masterslave", 1);
  auto four = RunSquareSum("masterslave", 4);
  EXPECT_EQ(one, four);
}

TEST(MasterSlave, SharedFilesystemModeMatchesDirect) {
  auto direct = RunSquareSum("masterslave", 2, /*shared_files=*/false);
  auto shared = RunSquareSum("masterslave", 2, /*shared_files=*/true);
  EXPECT_EQ(direct, shared);
}

// ---- Fault tolerance ----------------------------------------------------------

TEST(MasterSlave, RecoversFromInjectedTaskFailures) {
  // The first slave fails its first two tasks; the master must retry them
  // (on any slave) and still produce the right answer.
  auto with_faults = RunSquareSum("masterslave", 2, false, /*faults=*/2);
  auto clean = RunSquareSum("serial", 2);
  EXPECT_EQ(with_faults, clean);
}

TEST(MasterSlave, TooManyFailuresFailsTheJob) {
  SquareSum program;
  ASSERT_TRUE(program.Init(Options()).ok());
  ClusterLauncher::Config config;
  config.num_slaves = 1;
  // One slave that always fails: attempts exhaust.
  config.first_slave_faults = 1000000;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new SquareSum()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  job.set_default_parallelism(2);
  DataSetPtr data = job.LocalData({{Value(int64_t{1}), Value(int64_t{1})}});
  DataSetPtr mapped = job.MapData(data);
  Status status = job.Wait(mapped);
  ASSERT_FALSE(status.ok());
  // The error must identify the task, the attempt budget, and the last
  // underlying failure — enough to debug without grepping logs.
  EXPECT_NE(status.message().find("failed"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("max_task_attempts"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("injected task fault"), std::string::npos)
      << status.ToString();
  (*cluster)->Shutdown();
}

// ---- Scheduler behaviour ---------------------------------------------------------

class IterativeProgram : public MapReduce {
 public:
  // Each round: map increments every value; reduce passes through.
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    emit(key, Value(value.AsInt() + 1));
  }
  Status Run(Job& job) override {
    std::vector<KeyValue> input;
    for (int64_t i = 0; i < records; ++i) {
      input.push_back(KeyValue{Value(i), Value(int64_t{0})});
    }
    DataSetPtr data = job.LocalData(std::move(input), splits);
    for (int round = 0; round < rounds; ++round) {
      DataSetOptions options;
      options.num_splits = splits;
      DataSetPtr mapped = job.MapData(data, options);
      DataSetPtr reduced = job.ReduceData(mapped, options);
      data = reduced;
    }
    MRS_ASSIGN_OR_RETURN(result, job.Collect(data));
    return Status::Ok();
  }
  int rounds = 5;
  int records = 8;
  int splits = 4;
  std::vector<KeyValue> result;
};

TEST(MasterSlave, IterativePipelineCompletesAndUsesAffinity) {
  IterativeProgram program;
  ASSERT_TRUE(program.Init(Options()).ok());
  ClusterLauncher::Config config;
  config.num_slaves = 2;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new IterativeProgram()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  job.set_default_parallelism(4);
  Status status = program.Run(job);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(program.result.size(), 8u);
  for (const KeyValue& kv : program.result) {
    EXPECT_EQ(kv.value.AsInt(), 5);  // 5 rounds of +1
  }
  Master::Stats stats = (*cluster)->master().stats();
  // 5 rounds x (4 map + 4 reduce tasks) = 40 tasks.
  EXPECT_EQ(stats.tasks_completed, 40);
  // With a stable task grid, iterations 2..5 should mostly hit affinity.
  EXPECT_GT(stats.affinity_hits, 0);
  (*cluster)->Shutdown();
}

TEST(MasterSlave, DiscardPropagatesToSlaves) {
  IterativeProgram program;
  program.rounds = 3;
  ASSERT_TRUE(program.Init(Options()).ok());
  ClusterLauncher::Config config;
  config.num_slaves = 1;
  auto cluster = ClusterLauncher::Start(
      [] {
        auto p = std::make_unique<IterativeProgram>();
        p->rounds = 3;
        return std::unique_ptr<MapReduce>(std::move(p));
      },
      Options(), config);
  ASSERT_TRUE(cluster.ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  job.set_default_parallelism(2);

  std::vector<KeyValue> input = {{Value(int64_t{0}), Value(int64_t{0})}};
  DataSetPtr data = job.LocalData(std::move(input), 2);
  DataSetPtr mapped = job.MapData(data);
  ASSERT_TRUE(job.Wait(mapped).ok());
  job.Discard(mapped);
  // A dataset discarded from the master cannot be collected afterwards
  // (records evicted and urls point at possibly pruned slave stores); we
  // only assert that the runtime stays healthy and a new operation works.
  DataSetPtr data2 = job.LocalData({{Value(int64_t{1}), Value(int64_t{1})}}, 2);
  DataSetPtr mapped2 = job.MapData(data2);
  auto out = job.Collect(mapped2);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  (*cluster)->Shutdown();
}

// On the shared-directory path a discarded dataset's bucket files go with
// the discard the slaves collect on their next poll, and its directory
// with the last of them; a dataset that was not discarded keeps its files.
TEST(MasterSlave, DiscardDeletesSharedDirectoryBuckets) {
  Result<std::string> shared = MakeTempDir("mrs_shared_discard_");
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  IterativeProgram program;
  ASSERT_TRUE(program.Init(Options()).ok());
  ClusterLauncher::Config config;
  config.num_slaves = 2;
  config.slave.shared_dir = *shared;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new IterativeProgram()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  job.set_default_parallelism(4);

  std::vector<KeyValue> input;
  for (int64_t i = 0; i < 16; ++i) input.push_back({Value(i), Value(i)});
  DataSetPtr data = job.LocalData(std::move(input), 4);
  DataSetPtr discarded = job.MapData(data);
  DataSetPtr kept = job.MapData(data);
  ASSERT_TRUE(job.Wait(discarded).ok());
  ASSERT_TRUE(job.Wait(kept).ok());
  const std::string discarded_dir =
      JoinPath(*shared, std::to_string(discarded->id()));
  const std::string kept_dir = JoinPath(*shared, std::to_string(kept->id()));
  Result<std::vector<std::string>> discarded_files =
      ListFilesRecursive(discarded_dir);
  ASSERT_TRUE(discarded_files.ok()) << discarded_files.status().ToString();
  ASSERT_EQ(discarded_files->size(), 16u);  // 4 sources x 4 splits
  Result<std::vector<std::string>> kept_files = ListFilesRecursive(kept_dir);
  ASSERT_TRUE(kept_files.ok()) << kept_files.status().ToString();
  ASSERT_EQ(kept_files->size(), 16u);

  job.Discard(discarded);
  // Discards ride on get_task replies, and an idle slave polls at least
  // every quarter second.
  for (int i = 0; i < 400 && IsDirectory(discarded_dir); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_FALSE(IsDirectory(discarded_dir));
  for (const std::string& file : *discarded_files) {
    EXPECT_FALSE(FileExists(file)) << file;
  }
  Result<std::vector<std::string>> still_kept = ListFilesRecursive(kept_dir);
  ASSERT_TRUE(still_kept.ok()) << still_kept.status().ToString();
  EXPECT_EQ(*still_kept, *kept_files);
  Result<std::vector<KeyValue>> out = job.Collect(kept);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 16u);
  (*cluster)->Shutdown();
  RemoveTree(*shared);
}

// /status names each dataset by its kind.  The master registers a job's
// source datasets too, and they must not read as reduces.
TEST(MasterSlave, StatusNamesEveryDatasetKind) {
  IterativeProgram program;
  ASSERT_TRUE(program.Init(Options()).ok());
  ClusterLauncher::Config config;
  config.num_slaves = 2;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new IterativeProgram()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  job.set_default_parallelism(2);
  DataSetPtr data =
      job.LocalData({{Value(int64_t{0}), Value(int64_t{0})}}, 2);
  DataSetPtr mapped = job.MapData(data);
  ASSERT_TRUE(job.Wait(mapped).ok());

  HttpClient probe((*cluster)->master().addr());
  auto status = probe.Get("/status");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  ASSERT_EQ(status->status_code, 200);
  auto entry = [](const DataSetPtr& ds, const char* kind) {
    return "{\"id\":" + std::to_string(ds->id()) + ",\"kind\":\"" + kind +
           "\"";
  };
  EXPECT_NE(status->body.find(entry(data, "local")), std::string::npos)
      << status->body;
  EXPECT_NE(status->body.find(entry(mapped, "map")), std::string::npos)
      << status->body;
  EXPECT_EQ(status->body.find("\"kind\":\"reduce\""), std::string::npos)
      << status->body;
  (*cluster)->Shutdown();
}

// ---- Wide clusters -----------------------------------------------------------

std::unique_ptr<MapReduce> WideIterativeProgram() {
  auto p = std::make_unique<IterativeProgram>();
  p->records = 256;
  p->splits = 64;
  return p;
}

TEST(MasterSlave, SixteenSlavesMatchSerialAndShutDownPromptly) {
  // Sixteen slaves keep dozens of keep-alive connections open to the
  // master and to each other's data servers, and every one must be
  // served.  A stall here ends in test_rt's ctest TIMEOUT.  Stopping the
  // cluster wakes every accept loop and ping thread at once, so it takes
  // milliseconds; a 50 ms poll slice per server or ping thread would not
  // fit under the bound.
  std::unique_ptr<MapReduce> serial = WideIterativeProgram();
  ASSERT_TRUE(serial->Init(Options()).ok());
  RunConfig serial_config;
  serial_config.impl = "serial";
  ASSERT_TRUE(
      RunProgram(WideIterativeProgram, serial.get(), serial_config).ok());

  ClusterLauncher::Config config;
  config.num_slaves = 16;
  auto cluster = ClusterLauncher::Start(WideIterativeProgram, Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  std::unique_ptr<MapReduce> program = WideIterativeProgram();
  ASSERT_TRUE(program->Init(Options()).ok());
  Job job(program.get(),
          std::make_unique<MasterRunner>(&(*cluster)->master()));
  Status status = program->Run(job);
  ASSERT_TRUE(status.ok()) << status.ToString();
  Stopwatch shutdown;
  (*cluster)->Shutdown();
  EXPECT_LT(shutdown.ElapsedSeconds(), 0.15);

  auto& got = static_cast<IterativeProgram&>(*program).result;
  auto& want = static_cast<IterativeProgram&>(*serial).result;
  ASSERT_EQ(got.size(), 256u);
  EXPECT_EQ(EncodeTextRecords(got), EncodeTextRecords(want));
}

// ---- Run-script handshake (port file) ------------------------------------------

TEST(Master, WritesPortFileEquivalent) {
  // The paper's Program 3 waits for the master's port file.  Simulate
  // using the Master API directly: start, write, read back, connect.
  auto master = Master::Start(Master::Config{});
  ASSERT_TRUE(master.ok());
  auto dir = MakeTempDir("mrs_rt_portfile_");
  ASSERT_TRUE(dir.ok());
  std::string port_file = JoinPath(*dir, "master.port");
  ASSERT_TRUE(
      WriteFileAtomic(port_file, (*master)->addr().ToString() + "\n").ok());

  auto content = ReadFileToString(port_file);
  ASSERT_TRUE(content.ok());
  auto addr = SocketAddr::Parse(Trim(*content));
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr->port, (*master)->addr().port);

  SquareSum slave_program;
  ASSERT_TRUE(slave_program.Init(Options()).ok());
  Slave::Config slave_config;
  slave_config.master = *addr;
  auto slave = Slave::Start(&slave_program, slave_config);
  ASSERT_TRUE(slave.ok()) << slave.status().ToString();
  EXPECT_EQ((*master)->num_slaves(), 1);
  (*master)->Shutdown();
  RemoveTree(*dir);
}

TEST(Master, ShutdownServesASlaveThatPollsLateItsQuit) {
  // A handshake: a signed-in slave that polls only after Shutdown has begun
  // (it was running a task, or retrying a fetch) still gets "quit", not a
  // closed port, and Shutdown returns once it has, inside its grace.
  auto master = Master::Start(Master::Config{});
  ASSERT_TRUE(master.ok());
  SquareSum program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Slave::Config slave_config;
  slave_config.master = (*master)->addr();
  auto slave = Slave::Start(&program, slave_config);
  ASSERT_TRUE(slave.ok()) << slave.status().ToString();

  Stopwatch watch;
  std::atomic<bool> returned{false};
  std::thread stopper([&] {
    (*master)->Shutdown();
    returned.store(true);
  });
  while ((*master)->StatusJson().find("\"shutdown\":true") ==
         std::string::npos) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(returned.load());
  Status run = (*slave)->Run();  // its first poll
  stopper.join();
  EXPECT_TRUE(run.ok()) << run.ToString();
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

TEST(Master, WaitForSlavesTimesOut) {
  auto master = Master::Start(Master::Config{});
  ASSERT_TRUE(master.ok());
  Status status = (*master)->WaitForSlaves(1, 0.2);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  (*master)->Shutdown();
}

// ---- Failure-report idempotency ---------------------------------------------

// Report a task failure straight over the control channel, as a slave
// whose task_failed response was lost in transit would on redelivery.
Status ReportFailure(XmlRpcClient& rpc, int attempt) {
  XmlRpcArray params = {XmlRpcValue(int64_t{1}), XmlRpcValue(int64_t{7}),
                        XmlRpcValue(int64_t{0}), XmlRpcValue("boom"),
                        XmlRpcValue("")};
  if (attempt > 0) params.push_back(XmlRpcValue(int64_t{attempt}));
  return rpc.Call("task_failed", params).status();
}

bool JobOk(Master& master) {
  return master.StatusJson().find("\"ok\":true") != std::string::npos;
}

TEST(Master, DuplicateTaskFailedReportIsNotDoubleCharged) {
  Master::Config config;
  config.max_task_attempts = 3;
  auto master = Master::Start(config);
  ASSERT_TRUE(master.ok());
  XmlRpcClient rpc((*master)->addr());

  // Five deliveries, but only attempts 1 and 2 — redelivering an
  // attempt-numbered report moves the charge counter to max(charged,
  // attempt), so duplicates are no-ops and the job survives.  (Before
  // attempt numbering, each delivery charged ++, so the third delivery
  // here would already have killed the job.)
  ASSERT_TRUE(ReportFailure(rpc, 1).ok());
  ASSERT_TRUE(ReportFailure(rpc, 1).ok());  // duplicate
  ASSERT_TRUE(ReportFailure(rpc, 2).ok());
  ASSERT_TRUE(ReportFailure(rpc, 2).ok());  // duplicate
  ASSERT_TRUE(ReportFailure(rpc, 2).ok());  // triplicate
  EXPECT_TRUE(JobOk(**master));

  // A genuinely new attempt still counts: the third exhausts the budget.
  ASSERT_TRUE(ReportFailure(rpc, 3).ok());
  EXPECT_FALSE(JobOk(**master));
  (*master)->Shutdown();
}

TEST(Master, LegacyTaskFailedReportsChargePerDelivery) {
  // Old slaves send no attempt number; the master keeps the historical
  // charge-per-delivery behaviour for them.
  Master::Config config;
  config.max_task_attempts = 3;
  auto master = Master::Start(config);
  ASSERT_TRUE(master.ok());
  XmlRpcClient rpc((*master)->addr());
  ASSERT_TRUE(ReportFailure(rpc, 0).ok());
  ASSERT_TRUE(ReportFailure(rpc, 0).ok());
  EXPECT_TRUE(JobOk(**master));
  ASSERT_TRUE(ReportFailure(rpc, 0).ok());
  EXPECT_FALSE(JobOk(**master));
  (*master)->Shutdown();
}

// ---- Batched bucket fetch ---------------------------------------------------

TEST(MasterSlave, ReduceInputsArriveBatchedPerPeer) {
  // One slave, 4-way parallelism: every reduce task pulls four map-output
  // buckets, all hosted by the same peer, so the slave should fetch them
  // with batched GET /bucket?ids=... round trips instead of four separate
  // GETs — and the answer must not change.
  obs::Registry& reg = obs::Registry::Instance();
  int64_t fetches_before = reg.GetCounter("mrs.slave.batch_fetches")->value();
  int64_t buckets_before = reg.GetCounter("mrs.slave.batch_buckets")->value();

  IterativeProgram program;
  program.rounds = 2;
  ASSERT_TRUE(program.Init(Options()).ok());
  ClusterLauncher::Config config;
  config.num_slaves = 1;
  auto cluster = ClusterLauncher::Start(
      [] {
        auto p = std::make_unique<IterativeProgram>();
        p->rounds = 2;
        return std::unique_ptr<MapReduce>(std::move(p));
      },
      Options(), config);
  ASSERT_TRUE(cluster.ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  job.set_default_parallelism(4);
  ASSERT_TRUE(program.Run(job).ok());
  ASSERT_EQ(program.result.size(), 8u);
  for (const KeyValue& kv : program.result) {
    EXPECT_EQ(kv.value.AsInt(), 2);
  }
  (*cluster)->Shutdown();

  int64_t fetches = reg.GetCounter("mrs.slave.batch_fetches")->value() -
                    fetches_before;
  int64_t buckets = reg.GetCounter("mrs.slave.batch_buckets")->value() -
                    buckets_before;
  EXPECT_GT(fetches, 0);
  // Each batched round trip carried more than one bucket.
  EXPECT_GT(buckets, fetches);
}

}  // namespace
}  // namespace mrs

// Appended: the CheckEquivalence library utility (paper §IV-A as a
// feature).
#include "rt/equivalence.h"
#include "ser/record.h"

namespace mrs {
namespace {

class EquivCount : public MapReduce {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    emit(Value(value.AsInt() % 5), Value(key.AsInt()));
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    int64_t sum = 0;
    for (const Value& v : values) sum += v.AsInt();
    emit(Value(sum));
  }
  Status Run(Job& job) override {
    std::vector<KeyValue> input;
    for (int64_t i = 0; i < 40; ++i) input.push_back({Value(i), Value(i)});
    DataSetPtr reduced = job.ReduceData(job.MapData(job.LocalData(input)));
    MRS_ASSIGN_OR_RETURN(result, job.Collect(reduced));
    std::sort(result.begin(), result.end(), KeyValueLess);
    return Status::Ok();
  }
  Status Bypass() override {
    // Equivalent plain loop.
    std::map<int64_t, int64_t> sums;
    for (int64_t i = 0; i < 40; ++i) sums[i % 5] += i;
    for (const auto& [k, v] : sums) result.push_back({Value(k), Value(v)});
    return Status::Ok();
  }
  std::vector<KeyValue> result;
};

class EquivBuggy : public EquivCount {
 public:
  // A deliberately nondeterministic "bug": Bypass disagrees with Run.
  Status Bypass() override {
    result.push_back({Value(int64_t{0}), Value(int64_t{-1})});
    return Status::Ok();
  }
};

std::string Fingerprint(MapReduce& program) {
  return EncodeTextRecords(static_cast<EquivCount&>(program).result);
}

TEST(CheckEquivalence, AcceptsEquivalentProgram) {
  auto report = CheckEquivalence(
      [] { return std::unique_ptr<MapReduce>(new EquivCount()); }, Options(),
      {"bypass", "serial", "mockparallel", "masterslave"}, Fingerprint);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->identical) << report->details;
  EXPECT_EQ(report->fingerprints.size(), 4u);
}

TEST(CheckEquivalence, FlagsDivergingImplementation) {
  auto report = CheckEquivalence(
      [] { return std::unique_ptr<MapReduce>(new EquivBuggy()); }, Options(),
      {"bypass", "serial"}, Fingerprint);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->identical);
  EXPECT_NE(report->details.find("serial differs from bypass"),
            std::string::npos);
}

TEST(CheckEquivalence, RejectsEmptyImplList) {
  EXPECT_FALSE(CheckEquivalence(
                   [] { return std::unique_ptr<MapReduce>(new EquivCount()); },
                   Options(), {}, Fingerprint)
                   .ok());
}

}  // namespace
}  // namespace mrs
