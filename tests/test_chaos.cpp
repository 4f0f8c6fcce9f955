// Chaos tests for lineage-based fault recovery (paper §I: "a job
// scheduler may kill processes at any time").
//
// Each test assembles an in-process cluster, injects faults through
// Slave::FaultPlan — hard crashes, dropped heartbeats, probabilistic
// fetch failures, stragglers — and asserts that the job still completes
// with results byte-identical to the serial runner, plus that the
// master's recovery counters actually moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/retry.h"
#include "common/strings.h"
#include "fs/spill.h"
#include "halton/pi_program.h"
#include "http/client.h"
#include "http/server.h"
#include "rt/cluster.h"
#include "rt/mrs_main.h"
#include "ser/record.h"

namespace mrs {
namespace {

// ---- Retry / backoff unit coverage --------------------------------------

TEST(Retry, BackoffIsBoundedAndGrows) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.01;
  policy.max_backoff_seconds = 0.1;
  policy.backoff_multiplier = 2.0;
  policy.jitter_fraction = 0.25;
  double prev_nominal = 0;
  for (int failures = 1; failures <= 10; ++failures) {
    double d = BackoffDelaySeconds(policy, failures);
    EXPECT_GE(d, 0.01 * 0.75 - 1e-9);
    EXPECT_LE(d, 0.1 * 1.25 + 1e-9);
    double nominal = std::min(0.01 * (1 << (failures - 1)), 0.1);
    EXPECT_GE(nominal, prev_nominal);
    prev_nominal = nominal;
  }
}

TEST(Retry, OnlyTransportErrorsAreRetryable) {
  EXPECT_TRUE(IsTransportRetryable(UnavailableError("x")));
  EXPECT_TRUE(IsTransportRetryable(DeadlineExceededError("x")));
  EXPECT_TRUE(IsTransportRetryable(IoError("x")));
  EXPECT_TRUE(IsTransportRetryable(DataLossError("x")));
  EXPECT_FALSE(IsTransportRetryable(NotFoundError("x")));
  EXPECT_FALSE(IsTransportRetryable(InternalError("x")));
  EXPECT_FALSE(IsTransportRetryable(InvalidArgumentError("x")));
  EXPECT_FALSE(IsTransportRetryable(Status::Ok()));
}

TEST(Retry, CallWithRetryRecoversAndCounts) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 0.001;
  policy.max_backoff_seconds = 0.002;
  int64_t before = FetchRetryCount();
  int calls = 0;
  Result<std::string> r = CallWithRetry(
      policy, &CountFetchRetry, [&]() -> Result<std::string> {
        if (++calls < 3) return UnavailableError("flaky");
        return std::string("ok");
      });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "ok");
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(FetchRetryCount() - before, 2);
}

TEST(Retry, CallWithRetryStopsOnPermanentError) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 0.001;
  int calls = 0;
  Result<std::string> r = CallWithRetry(
      policy, nullptr, [&]() -> Result<std::string> {
        ++calls;
        return NotFoundError("gone for good");
      });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(calls, 1);  // not retried
}

TEST(Retry, CallWithRetryExhaustsBudget) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.001;
  policy.max_backoff_seconds = 0.002;
  int calls = 0;
  Result<std::string> r = CallWithRetry(
      policy, nullptr, [&]() -> Result<std::string> {
        ++calls;
        return UnavailableError("always down");
      });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
}

// ---- Checksum guard on bucket transfers ---------------------------------

TEST(ChecksumGuard, CorruptBodyIsDataLoss) {
  auto server = HttpServer::Start(
      "127.0.0.1", 0,
      [](const HttpRequest& req) {
        HttpResponse resp = HttpResponse::Ok("payload", "application/octet-stream");
        if (req.target == "/good") {
          resp.headers.Set(std::string(kMrsChecksumHeader),
                           ContentChecksum("payload"));
        } else {
          // Header advertises different content than the body carries —
          // what a truncated or bit-flipped transfer looks like.
          resp.headers.Set(std::string(kMrsChecksumHeader),
                           ContentChecksum("other payload"));
        }
        return resp;
      });
  ASSERT_TRUE(server.ok());
  std::string base = "http://" + (*server)->addr().ToString();

  auto good = HttpFetch(base + "/good");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(*good, "payload");

  auto bad = HttpFetch(base + "/corrupt");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);  // retryable
  EXPECT_NE(bad.status().message().find("checksum mismatch"),
            std::string::npos);
  (*server)->Shutdown();
}

// ---- A WordCount-style chaos workload -----------------------------------

class ChaosWordCount : public MapReduce {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)key;
    emit(value, Value(int64_t{1}));
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    int64_t sum = 0;
    for (const Value& v : values) sum += v.AsInt();
    emit(Value(sum));
  }

  /// Submit the map and reduce; returns the reduce dataset.
  static DataSetPtr Submit(Job& job) {
    static const char* kWords[] = {"map", "reduce", "python", "cluster",
                                   "halton", "pi", "mrs", "slave"};
    std::vector<KeyValue> input;
    for (int64_t i = 0; i < 160; ++i) {
      input.push_back(KeyValue{Value(i), Value(std::string(kWords[i % 8]))});
    }
    DataSetPtr data = job.LocalData(std::move(input), /*num_splits=*/8);
    DataSetOptions options;
    options.num_splits = 4;
    DataSetPtr mapped = job.MapData(data, options);
    return job.ReduceData(mapped, options);
  }

  Status Run(Job& job) override {
    MRS_ASSIGN_OR_RETURN(result, job.Collect(Submit(job)));
    std::sort(result.begin(), result.end(), KeyValueLess);
    return Status::Ok();
  }

  std::vector<KeyValue> result;
};

std::vector<KeyValue> SerialWordCount() {
  ChaosWordCount program;
  EXPECT_TRUE(program.Init(Options()).ok());
  RunConfig config;
  config.impl = "serial";
  Status status = RunProgram(
      [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
      &program, config);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return program.result;
}

ClusterLauncher::Config FastFailoverConfig(int num_slaves) {
  ClusterLauncher::Config config;
  config.num_slaves = num_slaves;
  config.master.slave_timeout = 1.0;
  config.slave.ping_interval = 0.2;
  return config;
}

// The ISSUE's acceptance scenario: 4 slaves; one hard-crashes right after
// its first completed map task (the master now holds URLs pointing at a
// corpse), and the survivors drop 10% of their fetch attempts.  The job
// must finish with results byte-identical to the serial runner, having
// actually exercised lineage recovery.
TEST(Chaos, WordCountSurvivesCrashAndFlakyFetches) {
  ClusterLauncher::Config config = FastFailoverConfig(4);
  config.fault_plans.resize(4);
  config.fault_plans[0].crash_after_n_tasks = 1;
  for (int i = 1; i < 4; ++i) {
    config.fault_plans[static_cast<size_t>(i)].fail_fetch_probability = 0.1;
  }
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  Status status = program.Run(job);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(SerialWordCount()));
  EXPECT_TRUE((*cluster)->slave(0).crashed());

  Master::Stats stats = (*cluster)->master().stats();
  EXPECT_GE(stats.slaves_lost, 1);
  EXPECT_GE(stats.lineage_recoveries, 1);
  EXPECT_GE(stats.tasks_invalidated, 1);
  (*cluster)->Shutdown();
}

// The slave hosting a finished reduce bucket dies after Wait returned but
// before Collect fetched the bucket.  Collect must hand the dead URL to
// lineage recovery, wait for the re-run, and read the re-derived bucket.
TEST(Chaos, CollectRederivesBucketWhoseHostDiedAfterWait) {
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
      Options(), FastFailoverConfig(4));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  DataSetPtr reduced = ChaosWordCount::Submit(job);
  ASSERT_TRUE(job.Wait(reduced).ok());

  std::string url = reduced->bucket(0, 0).url();
  int host = -1;
  for (int i = 0; i < (*cluster)->num_slaves(); ++i) {
    std::string base =
        "http://" + (*cluster)->slave(i).data_addr().ToString() + "/";
    if (StartsWith(url, base)) host = i;
  }
  ASSERT_GE(host, 0) << "no slave serves " << url;
  (*cluster)->slave(host).Crash();

  auto collected = job.Collect(reduced);
  ASSERT_TRUE(collected.ok()) << collected.status().ToString();
  std::sort(collected->begin(), collected->end(), KeyValueLess);
  EXPECT_EQ(EncodeTextRecords(*collected),
            EncodeTextRecords(SerialWordCount()));
  EXPECT_GE((*cluster)->master().stats().lineage_recoveries, 1);
  (*cluster)->Shutdown();
}

// Same scenario for the paper's π estimator: numeric output must be
// bit-identical to the serial run despite a mid-job crash.
TEST(Chaos, PiEstimationSurvivesSlaveCrash) {
  PiEstimatorProgram serial;
  ASSERT_TRUE(serial.Init(Options()).ok());
  serial.samples = 200000;
  serial.tasks = 8;
  RunConfig serial_config;
  serial_config.impl = "serial";
  ASSERT_TRUE(RunProgram(
                  [] {
                    auto p = std::make_unique<PiEstimatorProgram>();
                    p->samples = 200000;
                    p->tasks = 8;
                    return std::unique_ptr<MapReduce>(std::move(p));
                  },
                  &serial, serial_config)
                  .ok());

  ClusterLauncher::Config config = FastFailoverConfig(4);
  config.fault_plans.resize(4);
  config.fault_plans[0].crash_after_n_tasks = 1;
  for (int i = 1; i < 4; ++i) {
    config.fault_plans[static_cast<size_t>(i)].fail_fetch_probability = 0.1;
  }
  auto cluster = ClusterLauncher::Start(
      [] {
        auto p = std::make_unique<PiEstimatorProgram>();
        p->samples = 200000;
        p->tasks = 8;
        return std::unique_ptr<MapReduce>(std::move(p));
      },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  PiEstimatorProgram program;
  ASSERT_TRUE(program.Init(Options()).ok());
  program.samples = 200000;
  program.tasks = 8;
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  Status status = program.Run(job);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(program.inside, serial.inside);
  EXPECT_EQ(program.estimate, serial.estimate);

  Master::Stats stats = (*cluster)->master().stats();
  EXPECT_GE(stats.slaves_lost, 1);
  EXPECT_GE(stats.lineage_recoveries, 1);
  (*cluster)->Shutdown();
}

// A slave that stops pinging while stuck in slow tasks is declared lost
// (its completed outputs invalidated), then revives when it polls again.
// The job must complete correctly either way.
TEST(Chaos, PingDropSlaveIsDeclaredLostAndMayRevive) {
  ClusterLauncher::Config config = FastFailoverConfig(2);
  config.master.slave_timeout = 0.4;
  // Pin the adaptive death threshold at 0.4s (2 * the 0.2s ping interval)
  // and disable speculation: a backup attempt would let the fast slave
  // absorb the straggler's work, finishing the job before the silent
  // slave accrues enough quiet time to be declared lost.
  config.master.missed_ping_limit = 2;
  config.master.speculation_quantile = 0;
  config.fault_plans.resize(2);
  config.fault_plans[0].drop_pings_after_n_tasks = 1;
  config.fault_plans[0].drop_pings_for_seconds = 2.0;
  // 1 s per task, with no get_task traffic either: the silence of its
  // second task outlasts the 0.4 s threshold by far more than the 0.2 s
  // between the other slave's pings, so the loss is declared before the
  // task reports.
  config.fault_plans[0].slow_task_seconds = 1.0;
  // The slow slave must win a second task inside its ping-drop window.
  // Every reduce needs the slow slave's first map, so four reduces fall
  // due the moment that map reports; taking 0.1 s per task, the other
  // slave can claim at most one before the slow slave asks for its next.
  config.fault_plans[1].slow_task_seconds = 0.1;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  Status status = program.Run(job);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(SerialWordCount()));
  // The loss is declared at the first event past the silence threshold
  // (the fast slave's next poll); the job can finish before it lands.
  // Wait on the observable stats state (cv-signalled) instead of sampling
  // once.
  EXPECT_TRUE((*cluster)->master().WaitUntilStats(
      [](const Master::Stats& s) { return s.slaves_lost >= 1; },
      /*timeout_seconds=*/10.0));
  (*cluster)->Shutdown();
}

// A straggler never blocks completion: the fast slave picks up the slack
// and the answer is unchanged.
TEST(Chaos, StragglerDoesNotChangeTheAnswer) {
  ClusterLauncher::Config config = FastFailoverConfig(2);
  config.fault_plans.resize(2);
  config.fault_plans[1].slow_task_seconds = 0.2;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  ASSERT_TRUE(program.Run(job).ok());
  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(SerialWordCount()));
  (*cluster)->Shutdown();
}

// Flaky fetches alone (no crash): the retry layer absorbs them and the
// master's stats surface that retries actually happened.
TEST(Chaos, FlakyFetchesAreAbsorbedByRetries) {
  ClusterLauncher::Config config = FastFailoverConfig(2);
  config.fault_plans.resize(2);
  config.fault_plans[0].fail_fetch_probability = 0.3;
  config.fault_plans[1].fail_fetch_probability = 0.3;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  ASSERT_TRUE(program.Run(job).ok());
  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(SerialWordCount()));
  // 8 map rows x 4 splits = 32 bucket fetches feeding the reduces at 30%
  // injected failure each: statistically certain to trip at least one
  // retry (P[no fault] < 1e-4 even before collect-side fetches).
  EXPECT_GE((*cluster)->master().stats().fetch_retries, 1);
  (*cluster)->Shutdown();
}

// ---- Elastic membership -------------------------------------------------

// Mid-job join: the cluster starts with a single slow slave; a second,
// fast slave signs in while the map phase is underway and must be
// health-checked, admitted, and actually scheduled.
TEST(Chaos, SlaveJoinsMidMapAndIsScheduled) {
  ClusterLauncher::Config config = FastFailoverConfig(1);
  config.fault_plans.resize(1);
  config.fault_plans[0].slow_task_seconds = 0.15;  // keeps the job alive
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  Status run_status;
  std::thread runner([&] { run_status = program.Run(job); });

  // Wait until the job has demonstrably started, then bring up the joiner.
  ASSERT_TRUE((*cluster)->master().WaitUntilStats(
      [](const Master::Stats& s) { return s.tasks_assigned >= 1; },
      /*timeout_seconds=*/10.0));
  Result<int> joined = (*cluster)->AddSlave();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();

  runner.join();
  ASSERT_TRUE(run_status.ok()) << run_status.ToString();
  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(SerialWordCount()));
  Master::Stats stats = (*cluster)->master().stats();
  EXPECT_GE(stats.mid_job_joins, 1);
  // The joiner really participated: with ~0.15s per task on the original
  // slave and ~10 tasks outstanding at join time, the fast joiner wins
  // the pull race for at least one of them.
  EXPECT_GE((*cluster)->slave(*joined).tasks_executed(), 1);
  (*cluster)->Shutdown();
}

// Graceful drain mid-job: once the reduce phase is reachable, slave 0 is
// asked to retire.  The master re-executes its hosted map buckets through
// lineage on the survivor and the answer is unchanged.
TEST(Chaos, GracefulDrainDuringReduceReExecutesHostedBuckets) {
  ClusterLauncher::Config config = FastFailoverConfig(2);
  config.fault_plans.resize(2);
  config.fault_plans[0].slow_task_seconds = 0.15;
  config.fault_plans[1].slow_task_seconds = 0.15;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  Status run_status;
  std::thread runner([&] { run_status = program.Run(job); });

  // All 8 maps done: slave 0 hosts roughly half the map buckets the
  // reduces are about to consume.  Drain it now.
  ASSERT_TRUE((*cluster)->master().WaitUntilStats(
      [](const Master::Stats& s) { return s.tasks_completed >= 8; },
      /*timeout_seconds=*/20.0));
  (*cluster)->DrainSlave(0);

  runner.join();
  ASSERT_TRUE(run_status.ok()) << run_status.ToString();
  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(SerialWordCount()));
  Master::Stats stats = (*cluster)->master().stats();
  EXPECT_GE(stats.slaves_drained, 1);
  EXPECT_GE(stats.tasks_invalidated, 1);
  EXPECT_EQ(stats.slaves_lost, 0);  // a drain is not a death
  (*cluster)->Shutdown();
}

// A slave that crashes right after requesting its drain (SIGTERM grace
// period cut short) is reaped by the drain deadline; the job still ends
// with the serial answer.
TEST(Chaos, DrainThenCrashIsSurvived) {
  ClusterLauncher::Config config = FastFailoverConfig(2);
  config.master.drain_timeout = 0.5;
  config.fault_plans.resize(2);
  config.fault_plans[0].slow_task_seconds = 0.15;
  config.fault_plans[0].drain_then_crash = true;
  config.fault_plans[1].slow_task_seconds = 0.15;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  Status run_status;
  std::thread runner([&] { run_status = program.Run(job); });

  ASSERT_TRUE((*cluster)->master().WaitUntilStats(
      [](const Master::Stats& s) { return s.tasks_completed >= 4; },
      /*timeout_seconds=*/20.0));
  (*cluster)->DrainSlave(0);

  runner.join();
  ASSERT_TRUE(run_status.ok()) << run_status.ToString();
  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(SerialWordCount()));
  EXPECT_TRUE((*cluster)->slave(0).crashed());
  EXPECT_GE((*cluster)->master().stats().slaves_drained, 1);
  (*cluster)->Shutdown();
}

// Quarantine + probation: a slave that fails its first three tasks is
// quarantined (the ledger's consecutive-failure threshold), re-admitted
// after probation, and participates again in a second job on the same
// cluster.
TEST(Chaos, QuarantineThenProbationRecovery) {
  ClusterLauncher::Config config = FastFailoverConfig(3);
  config.master.quarantine_failure_threshold = 3;
  config.master.probation_seconds = 0.5;
  // Affinity off so the re-admitted slave competes for job 2's tasks on
  // equal footing instead of losing every task to job 1's placements.
  config.master.enable_affinity = false;
  config.fault_plans.resize(3);
  config.fault_plans[0].fail_first_n_tasks = 3;
  config.fault_plans[1].slow_task_seconds = 0.05;
  config.fault_plans[2].slow_task_seconds = 0.05;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  ASSERT_TRUE(program.Run(job).ok());
  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(SerialWordCount()));

  ASSERT_TRUE((*cluster)->master().WaitUntilStats(
      [](const Master::Stats& s) { return s.slaves_quarantined >= 1; },
      /*timeout_seconds=*/10.0));
  ASSERT_TRUE((*cluster)->master().WaitUntilStats(
      [](const Master::Stats& s) { return s.probation_returns >= 1; },
      /*timeout_seconds=*/10.0));

  // Second job on the same cluster: the recovered slave (its injected
  // faults spent, and now the only fast one) must take part.
  int64_t executed_before = (*cluster)->slave(0).tasks_executed();
  ChaosWordCount second;
  ASSERT_TRUE(second.Init(Options()).ok());
  Job job2(&second, std::make_unique<MasterRunner>(&(*cluster)->master()));
  ASSERT_TRUE(second.Run(job2).ok());
  EXPECT_EQ(EncodeTextRecords(second.result),
            EncodeTextRecords(SerialWordCount()));
  EXPECT_GT((*cluster)->slave(0).tasks_executed(), executed_before);
  (*cluster)->Shutdown();
}

// slow_everything is a latency multiplier, not a correctness hazard: a
// limping slave changes nothing about the answer.
TEST(Chaos, SlowEverythingKeepsAnswerIdentical) {
  ClusterLauncher::Config config = FastFailoverConfig(2);
  config.fault_plans.resize(2);
  config.fault_plans[1].slow_task_seconds = 0.02;  // give the tasks mass
  config.fault_plans[1].slow_everything = 5.0;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  ASSERT_TRUE(program.Run(job).ok());
  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(SerialWordCount()));
  (*cluster)->Shutdown();
}

// The ISSUE's speculation acceptance bound: with a severe straggler on one
// slave, speculative backups keep end-to-end time within max(2x the
// no-straggler baseline, 2s) — previously unbounded (the job waited the
// full straggler delay per held task).
TEST(Chaos, SpeculationBoundsStragglerDelay) {
  auto run_once = [](double straggler_seconds, bool speculate) {
    ClusterLauncher::Config config = FastFailoverConfig(2);
    config.master.speculation_quantile = speculate ? 0.5 : 0;
    config.master.speculation_min_samples = 3;
    config.master.speculation_min_seconds = 0.05;
    config.fault_plans.resize(2);
    config.fault_plans[0].slow_task_seconds = straggler_seconds;
    auto cluster = ClusterLauncher::Start(
        [] { return std::unique_ptr<MapReduce>(new ChaosWordCount()); },
        Options(), config);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();

    ChaosWordCount program;
    EXPECT_TRUE(program.Init(Options()).ok());
    Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
    Stopwatch watch;
    Status status = program.Run(job);
    double elapsed = watch.ElapsedSeconds();
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(EncodeTextRecords(program.result),
              EncodeTextRecords(SerialWordCount()));
    Master::Stats stats = (*cluster)->master().stats();
    (*cluster)->Shutdown();
    return std::make_pair(elapsed, stats);
  };

  // Baseline: no straggler, speculation off.
  auto [baseline, baseline_stats] = run_once(0.0, false);
  EXPECT_EQ(baseline_stats.tasks_speculated, 0);

  // 1.5s per task held by slave 0 (~10x a generous per-task baseline):
  // each held task must be rescued by a backup on the fast slave, or the
  // job serializes behind the straggler (~10+ seconds).
  auto [with_straggler, stats] = run_once(1.5, true);
  EXPECT_GE(stats.tasks_speculated, 1);
  EXPECT_GE(stats.speculative_wins, 1);
  EXPECT_LT(with_straggler, std::max(2 * baseline, 2.0));
}

// ---- Out-of-core spill faults -------------------------------------------
//
// With a process memory budget active, every bucket a slave publishes is
// backed by spill-run files on its local disk.  These tests corrupt and
// destroy that state mid-job: the damage must surface through the same
// kDataLoss -> retry-exhaust -> bad_url -> lineage-re-execution path a
// truncated network transfer takes, and the answer must stay
// byte-identical to the serial runner.

/// Pins the process budget for one scope; restores on the way out and
/// zeroes any accounting a crashed slave leaked (its datasets never get
/// to release their charges).
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

// ChaosWordCount's map tasks emit ~20 records each — below the budget
// checker's 32-record charge interval, so they never spill.  The spill
// chaos tests need map tasks heavy enough that every one of them pushes
// multiple sorted runs to disk under a 1-byte budget.
class SpillChaosWordCount : public MapReduce {
 public:
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
    static const char* kWords[] = {"spill",  "merge", "run", "budget",
                                   "bucket", "disk",  "mrs", "sort"};
    std::vector<KeyValue> lines;
    for (int64_t i = 0; i < 240; ++i) {
      std::string line;
      for (int64_t j = 0; j < 6; ++j) {
        if (j) line += ' ';
        line += kWords[(i * 7 + j * 3 + i * j) % 8];
      }
      lines.push_back({Value(i), Value(line)});
    }
    // 8 map tasks x 30 lines x 6 words = 180 emits per task: several
    // charge intervals, several spill flushes.
    DataSetPtr data = job.LocalData(std::move(lines), /*num_splits=*/8);
    DataSetOptions options;
    options.num_splits = 4;
    DataSetPtr mapped = job.MapData(data, options);
    DataSetPtr reduced = job.ReduceData(mapped, options);
    MRS_ASSIGN_OR_RETURN(result, job.Collect(reduced));
    std::sort(result.begin(), result.end(), KeyValueLess);
    return Status::Ok();
  }

  std::vector<KeyValue> result;
};

std::vector<KeyValue> SerialSpillWordCount() {
  SpillChaosWordCount program;
  EXPECT_TRUE(program.Init(Options()).ok());
  RunConfig config;
  config.impl = "serial";
  Status status = RunProgram(
      [] { return std::unique_ptr<MapReduce>(new SpillChaosWordCount()); },
      &program, config);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return program.result;
}

// A slave silently corrupts runs under its published buckets.  The server
// deliberately does NOT verify checksums when serving (a re-read would
// only move the detection point); the fetching peer's frame-checksum check
// catches it, and after retries exhaust, the master re-executes the
// producing task — whose fresh attempt writes its runs to a new spill
// file, never reusing the corrupt ones.
TEST(Chaos, SpillCorruptionIsCaughtAndRecoveredByLineage) {
  ScopedBudget tiny(1);  // every charge interval spills: buckets run-backed
  ClusterLauncher::Config config = FastFailoverConfig(3);
  config.fault_plans.resize(1);
  config.fault_plans[0].spill_corrupt = 2;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new SpillChaosWordCount()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  SpillChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  Status status = program.Run(job);
  ASSERT_TRUE(status.ok()) << status.ToString();

  // The serial reference runs under the same budget — the answer must not
  // depend on spilling, and the comparison must not depend on the mode.
  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(SerialSpillWordCount()));

  Master::Stats stats = (*cluster)->master().stats();
  EXPECT_GE(stats.lineage_recoveries, 1)
      << "corrupt run files never drove a re-execution";
  EXPECT_GE(stats.tasks_invalidated, 1);
  (*cluster)->Shutdown();
}

// A slave hard-crashes mid-job while the budget forces all buckets to
// disk: its spill files die with it (they are slave-local state), and the
// master must re-derive every lost bucket from lineage on the survivors.
TEST(Chaos, SlaveCrashWithSpilledBucketsRecovers) {
  ScopedBudget tiny(1);
  ClusterLauncher::Config config = FastFailoverConfig(4);
  config.fault_plans.resize(4);
  config.fault_plans[0].crash_after_n_tasks = 1;
  for (int i = 1; i < 4; ++i) {
    config.fault_plans[static_cast<size_t>(i)].fail_fetch_probability = 0.05;
  }
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new SpillChaosWordCount()); },
      Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  SpillChaosWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  Status status = program.Run(job);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(SerialSpillWordCount()));
  EXPECT_TRUE((*cluster)->slave(0).crashed());
  Master::Stats stats = (*cluster)->master().stats();
  EXPECT_GE(stats.slaves_lost, 1);
  EXPECT_GE(stats.lineage_recoveries, 1);
  (*cluster)->Shutdown();
}

}  // namespace
}  // namespace mrs
