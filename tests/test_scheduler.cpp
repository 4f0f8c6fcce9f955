// Deterministic tests of the master's scheduler (rt/scheduler.h).
//
// Every membership, speculation and lineage rule is driven here with
// explicit times: no sockets, threads or sleeps.  Each step calls
// Tick(now) and then the event, exactly as Master does on every RPC.  The
// last test runs a 1024-slave cluster on the hadoopsim discrete-event
// queue, with three slaves crashing mid-job, and requires output
// byte-identical to the serial runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/strings.h"
#include "core/job.h"
#include "core/serial_runner.h"
#include "hadoopsim/des.h"
#include "rt/scheduler.h"
#include "ser/record.h"

namespace mrs {
namespace {

using Kind = Scheduler::PollResult::Kind;

class WordCount : public MapReduce {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)key;
    for (std::string_view word : SplitWhitespace(value.AsString())) {
      emit(Value(std::string(word)), Value(int64_t{1}));
    }
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    int64_t sum = 0;
    for (const Value& v : values) sum += v.AsInt();
    emit(Value(sum));
  }

  /// `lines` synthetic lines over a small vocabulary, so every reduce
  /// split sees many keys.
  static std::vector<KeyValue> Lines(int lines) {
    std::vector<KeyValue> out;
    for (int64_t i = 0; i < lines; ++i) {
      std::string line;
      for (int64_t w = 0; w < 5; ++w) {
        line += 'w';
        line += std::to_string((i * 7 + w * 13) % 509);
        line += ' ';
      }
      out.push_back(KeyValue{Value(i), Value(line)});
    }
    return out;
  }
};

/// Hands every submitted dataset to the scheduler under test; nothing
/// ever runs unless a test plays the slave.
class SubmitOnly final : public Runner {
 public:
  explicit SubmitOnly(Scheduler* scheduler) : scheduler_(scheduler) {}
  void Submit(const DataSetPtr& dataset) override {
    scheduler_->Submit(dataset);
  }
  Status Wait(const DataSetPtr& dataset) override {
    (void)dataset;
    return Status::Ok();
  }
  UrlFetcher fetcher() override { return LocalFetch; }
  std::string name() const override { return "submit-only"; }

 private:
  Scheduler* scheduler_;
};

std::string BaseUrl(int slave) {
  return "http://slave" + std::to_string(slave) + ":80";
}

std::string BucketUrl(int slave, TaskId task, int split) {
  return BaseUrl(slave) + "/bucket/" + std::to_string(task.dataset) + "/" +
         std::to_string(task.source) + "/" + std::to_string(split);
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() {
    config.speculation_quantile = 0;  // tests that speculate turn it on
    config.quarantine_failure_threshold = 0;
    EXPECT_TRUE(program.Init(Options()).ok());
  }

  /// Build the scheduler, sign in `num_slaves` slaves at t=0 (ids 1..n),
  /// and submit a map of `map_tasks` tasks with two output splits.
  void Start(int num_slaves, int map_tasks) {
    scheduler = std::make_unique<Scheduler>(config);
    job = std::make_unique<Job>(&program,
                                std::make_unique<SubmitOnly>(scheduler.get()));
    for (int i = 1; i <= num_slaves; ++i) {
      EXPECT_EQ(scheduler->SignIn(BaseUrl(i), /*ping_interval=*/0, 0), i);
    }
    DataSetOptions options;
    options.num_splits = 2;
    map = job->MapData(job->LocalData(WordCount::Lines(8), map_tasks),
                       options);
  }

  /// One get_task: the tick every Master entry point makes, then the poll.
  Scheduler::PollResult Poll(int slave, double now) {
    scheduler->Tick(now);
    Result<Scheduler::PollResult> poll = scheduler->Poll(slave, now);
    EXPECT_TRUE(poll.ok()) << poll.status().ToString();
    return poll.ok() ? std::move(*poll) : Scheduler::PollResult{};
  }

  /// Poll and require an assignment; returns its task.
  TaskId Assign(int slave, double now) {
    Scheduler::PollResult poll = Poll(slave, now);
    EXPECT_EQ(poll.kind, Kind::kTask) << "slave " << slave << " at " << now;
    return TaskId{poll.assignment.dataset_id, poll.assignment.source};
  }

  /// Report `task` complete with every bucket hosted on `slave`.
  void Done(int slave, TaskId task, double now) {
    std::vector<std::string> urls;
    for (int p = 0; p < 2; ++p) urls.push_back(BucketUrl(slave, task, p));
    scheduler->Tick(now);
    EXPECT_TRUE(scheduler->TaskDone(slave, task, urls, now).ok());
  }

  /// A heartbeat, after the tick.
  void Ping(int slave, double now) {
    scheduler->Tick(now);
    EXPECT_TRUE(scheduler->Ping(slave, now).ok());
  }

  void Fail(int slave, TaskId task, const std::string& bad_url,
            int64_t attempt, double now) {
    scheduler->Tick(now);
    scheduler->TaskFailed(slave, task, "boom", bad_url, attempt, now);
  }

  SlaveState State(int slave) const {
    return scheduler->slaves().at(slave).state;
  }
  TaskState Task(TaskId task) const {
    return scheduler->datasets().at(task.dataset)->task_state(task.source);
  }
  const Scheduler::Stats& stats() const { return scheduler->stats(); }

  Scheduler::Config config;
  WordCount program;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Job> job;
  DataSetPtr map;
};

// ---- Loss, revival, requeue -----------------------------------------------

TEST_F(SchedulerTest, SilencePastTheDeathTimeoutIsLossAtTheNextEvent) {
  config.slave_timeout = 10;
  config.missed_ping_limit = 5;
  Start(/*num_slaves=*/2, /*map_tasks=*/4);
  // Slave 3 reports a 3 s heartbeat: its threshold is max(10, 5 * 3) = 15.
  ASSERT_EQ(scheduler->SignIn(BaseUrl(3), /*ping_interval=*/3, 0), 3);
  TaskId t0 = Assign(1, 0);
  TaskId t1 = Assign(2, 0);
  TaskId t3 = Assign(3, 0);
  Done(2, t1, 1);  // hosted on slave 2
  TaskId t2 = Assign(2, 1);
  Ping(1, 9);

  // Slave 2 has been silent for 10 s: not yet past the threshold.
  EXPECT_FALSE(scheduler->Tick(11));
  EXPECT_EQ(State(2), SlaveState::kHealthy);
  // Past it: the next event decides.
  EXPECT_TRUE(scheduler->Tick(11.5));
  EXPECT_EQ(State(2), SlaveState::kGone);
  EXPECT_EQ(stats().slaves_lost, 1);
  // Its running task is requeued and its hosted row invalidated.
  EXPECT_EQ(Task(t2), TaskState::kPending);
  EXPECT_EQ(Task(t1), TaskState::kPending);
  EXPECT_EQ(stats().tasks_invalidated, 1);
  EXPECT_EQ(stats().lineage_recoveries, 1);
  // Slave 1 pinged at 9; slave 3's own threshold is 15.
  EXPECT_EQ(State(1), SlaveState::kHealthy);
  EXPECT_EQ(State(3), SlaveState::kHealthy);
  EXPECT_EQ(Task(t0), TaskState::kRunning);
  EXPECT_EQ(Task(t3), TaskState::kRunning);

  EXPECT_FALSE(scheduler->Tick(14.9));
  EXPECT_TRUE(scheduler->Tick(15.1));
  EXPECT_EQ(State(3), SlaveState::kGone);
  EXPECT_EQ(Task(t3), TaskState::kPending);
  EXPECT_EQ(stats().slaves_lost, 2);
}

TEST_F(SchedulerTest, GoneSlaveThatPollsIsHealthyAgain) {
  config.slave_timeout = 1;
  Start(2, 4);
  TaskId t0 = Assign(1, 0);
  Ping(2, 0.9);
  EXPECT_TRUE(scheduler->Tick(1.5));
  ASSERT_EQ(State(1), SlaveState::kGone);
  EXPECT_EQ(Task(t0), TaskState::kPending);
  Ping(2, 1.9);

  // The revived slave is schedulable at once: it gets work on this poll.
  TaskId again = Assign(1, 2);
  EXPECT_EQ(State(1), SlaveState::kHealthy);
  EXPECT_EQ(Task(again), TaskState::kRunning);
  EXPECT_EQ(stats().slaves_lost, 1);
}

TEST_F(SchedulerTest, LostAttemptWithASurvivingTwinIsNotRequeued) {
  config.slave_timeout = 5;
  config.speculation_quantile = 0.9;
  config.speculation_min_samples = 1;
  Start(3, 2);
  TaskId straggler = Assign(1, 0);
  TaskId quick = Assign(2, 0);
  Done(2, quick, 1);
  // The backup goes to slave 3 (slave 1 runs the original).
  EXPECT_EQ(Poll(1, 4).kind, Kind::kWait);
  EXPECT_EQ(stats().tasks_speculated, 1);
  ASSERT_EQ(Assign(3, 4), straggler);
  EXPECT_EQ(Poll(2, 4).kind, Kind::kWait);
  // The backup's slave goes silent.  The original keeps running on slave
  // 1, so the task is not requeued, but it may be backed up again.
  Ping(1, 8);
  Ping(2, 8);
  EXPECT_TRUE(scheduler->Tick(9.5));
  EXPECT_EQ(State(3), SlaveState::kGone);
  EXPECT_EQ(Task(straggler), TaskState::kRunning);
  EXPECT_EQ(stats().tasks_speculated, 2);
  EXPECT_EQ(Assign(2, 9.6), straggler);
  EXPECT_EQ(Task(straggler), TaskState::kRunning);
}

// ---- Drain ----------------------------------------------------------------

TEST_F(SchedulerTest, DrainStopsWorkRerunsHostedRowsAndReleasesOnPoll) {
  Start(2, 4);
  TaskId t0 = Assign(1, 0);
  Done(1, t0, 1);
  TaskId t1 = Assign(1, 1);
  scheduler->Tick(2);
  ASSERT_TRUE(scheduler->Drain(1, 2).ok());
  EXPECT_EQ(State(1), SlaveState::kDraining);
  EXPECT_EQ(stats().slaves_drained, 1);
  // Hosted row re-runs and the running task requeues.
  EXPECT_EQ(Task(t0), TaskState::kPending);
  EXPECT_EQ(Task(t1), TaskState::kPending);
  EXPECT_EQ(stats().tasks_invalidated, 1);
  // The next poll answers quit instead of work.
  EXPECT_EQ(Poll(1, 2.1).kind, Kind::kQuit);
  EXPECT_EQ(State(1), SlaveState::kGone);
  EXPECT_EQ(stats().slaves_lost, 0);  // a drain is not a death
  EXPECT_EQ(Poll(2, 2.2).kind, Kind::kTask);
}

TEST_F(SchedulerTest, DrainedSlaveThatNeverPollsIsReapedAtTheDeadline) {
  config.drain_timeout = 1;
  Start(2, 4);
  scheduler->Tick(3);
  ASSERT_TRUE(scheduler->Drain(1, 3).ok());
  Ping(2, 3.9);
  EXPECT_FALSE(scheduler->Tick(3.9));
  EXPECT_EQ(State(1), SlaveState::kDraining);
  EXPECT_TRUE(scheduler->Tick(4));
  EXPECT_EQ(State(1), SlaveState::kGone);
  EXPECT_EQ(stats().slaves_lost, 0);
}

// ---- Quarantine and probation ----------------------------------------------

TEST_F(SchedulerTest, FailureStreakQuarantinesButNeverTheLastHealthySlave) {
  config.quarantine_failure_threshold = 3;
  config.probation_seconds = 5;
  config.max_task_attempts = 100;
  config.slave_timeout = 100;
  Start(2, 4);
  for (int i = 0; i < 3; ++i) Fail(1, Assign(1, i), "", 0, i + 0.5);
  EXPECT_EQ(State(1), SlaveState::kQuarantined);
  EXPECT_EQ(stats().slaves_quarantined, 1);
  // Quarantined: it keeps polling but gets no work.
  EXPECT_EQ(Poll(1, 4).kind, Kind::kWait);

  // Slave 2 is now the only healthy slave: its streak does not bench it.
  for (int i = 0; i < 3; ++i) Fail(2, Assign(2, 4 + i), "", 0, 4.5 + i);
  EXPECT_EQ(State(2), SlaveState::kHealthy);
  EXPECT_EQ(stats().slaves_quarantined, 1);

  // Probation ends probation_seconds after the third failure (t = 2.5).
  EXPECT_FALSE(scheduler->Tick(7.4));
  EXPECT_EQ(State(1), SlaveState::kQuarantined);
  EXPECT_TRUE(scheduler->Tick(7.5));
  EXPECT_EQ(State(1), SlaveState::kHealthy);
  EXPECT_EQ(stats().probation_returns, 1);
  EXPECT_EQ(scheduler->slaves().at(1).consecutive_failures, 0);
  EXPECT_EQ(Poll(1, 7.6).kind, Kind::kTask);
}

// ---- Speculation ----------------------------------------------------------

TEST_F(SchedulerTest, StragglerGetsExactlyOneBackupElsewhereAndLoserIsDropped) {
  config.speculation_quantile = 0.9;
  config.speculation_min_samples = 1;
  config.slave_timeout = 100;
  Start(2, 2);
  TaskId straggler = Assign(1, 0);
  TaskId quick = Assign(2, 0);
  Done(2, quick, 1);  // one 1 s sample: threshold max(0.25, 2 * ~1.05)
  EXPECT_EQ(Poll(2, 1).kind, Kind::kWait);
  EXPECT_FALSE(scheduler->Tick(2));
  EXPECT_EQ(stats().tasks_speculated, 0);

  // Past the threshold: one backup, which the original's slave never gets.
  EXPECT_EQ(Poll(1, 5).kind, Kind::kWait);
  EXPECT_EQ(stats().tasks_speculated, 1);
  EXPECT_EQ(Assign(2, 5), straggler);
  EXPECT_FALSE(scheduler->Tick(6));
  EXPECT_EQ(Poll(2, 6).kind, Kind::kWait);
  EXPECT_EQ(stats().tasks_speculated, 1);

  // The backup wins; the original's late completion is dropped.
  Done(2, straggler, 7);
  EXPECT_EQ(stats().speculative_wins, 1);
  EXPECT_EQ(stats().tasks_completed, 2);
  Done(1, straggler, 8);
  EXPECT_EQ(stats().tasks_completed, 2);
  EXPECT_EQ(map->bucket(straggler.source, 0).url(),
            BucketUrl(2, straggler, 0));
  EXPECT_TRUE(map->Complete());
}

// ---- Failure charging and bad URLs -----------------------------------------

TEST_F(SchedulerTest, AttemptNumberedFailureChargesOnce) {
  config.max_task_attempts = 3;
  Start(1, 1);
  TaskId task = Assign(1, 0);
  Fail(1, task, "", /*attempt=*/1, 1);
  Fail(1, task, "", 1, 1.1);  // redelivery
  Fail(1, task, "", 2, 2);
  Fail(1, task, "", 2, 2.1);
  EXPECT_TRUE(scheduler->job_status().ok());
  Fail(1, task, "", 3, 3);
  EXPECT_FALSE(scheduler->job_status().ok());
  EXPECT_EQ(stats().tasks_failed, 5);
}

TEST_F(SchedulerTest, CurrentBadUrlRerunsItsHostStaleOneChargesNothing) {
  config.max_task_attempts = 1;  // any charged failure would end the job
  Start(2, 2);
  DataSetOptions options;
  options.num_splits = 1;
  DataSetPtr reduce = job->ReduceData(map, options);
  Done(1, Assign(1, 0), 1);
  Done(1, Assign(1, 1), 1);  // both map rows live on slave 1
  Scheduler::PollResult poll = Poll(2, 2);
  ASSERT_EQ(poll.kind, Kind::kTask);
  ASSERT_FALSE(poll.assignment.inputs.empty());
  TaskId r0{poll.assignment.dataset_id, poll.assignment.source};
  ASSERT_EQ(r0.dataset, reduce->id());
  std::string bad_url = poll.assignment.inputs[0].url;
  ASSERT_TRUE(StartsWith(bad_url, BaseUrl(1) + "/"));

  Fail(2, r0, bad_url, poll.assignment.attempt, 3);
  EXPECT_TRUE(scheduler->job_status().ok());
  EXPECT_EQ(State(1), SlaveState::kGone);
  EXPECT_EQ(stats().slaves_lost, 1);
  EXPECT_EQ(stats().tasks_invalidated, 2);
  EXPECT_FALSE(map->Complete());
  EXPECT_EQ(Task(r0), TaskState::kPending);

  // The same report again: the URL is stale now.  Nothing is charged or
  // re-invalidated.
  Fail(2, r0, bad_url, poll.assignment.attempt + 1, 3.5);
  EXPECT_TRUE(scheduler->job_status().ok());
  EXPECT_EQ(stats().slaves_lost, 1);
  EXPECT_EQ(stats().tasks_invalidated, 2);
  EXPECT_EQ(stats().lineage_recoveries, 1);
}

TEST_F(SchedulerTest, EventsForUnknownSlavesOrTasksChangeNothing) {
  Start(1, 2);
  EXPECT_EQ(scheduler->Poll(7, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler->Ping(7, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler->Drain(7, 0).code(), StatusCode::kNotFound);
  // A source past the dataset's range is dropped, not indexed.
  EXPECT_TRUE(scheduler
                  ->TaskDone(1, TaskId{map->id(), 99},
                             {BucketUrl(1, {map->id(), 99}, 0),
                              BucketUrl(1, {map->id(), 99}, 1)},
                             1)
                  .ok());
  scheduler->TaskFailed(1, TaskId{map->id(), -1}, "boom", "", 0, 1);
  EXPECT_EQ(stats().tasks_completed, 0);
  EXPECT_EQ(scheduler->num_runnable(), 2u);
}

// ---- A simulated 1024-slave cluster ----------------------------------------

/// A test-only Runner: Submit hands datasets to a real Scheduler, and Wait
/// runs a simulated cluster on the hadoopsim event queue until the dataset
/// is complete.  Each simulated slave long-polls every 0.25 simulated
/// seconds, runs what it is assigned inline through the task functions a
/// real slave uses (InputColumn, RunTaskOnBuckets), and serves its
/// buckets from a URL map.  A crashed slave stops polling and its URLs
/// vanish; lineage must recover everything it held.
class SimulatedCluster final : public Runner {
 public:
  /// Crash triggers, counted over the whole run: the slave handed the
  /// assignment numbered `crash_at_assignment` dies before running it; the
  /// slaves completing map number `crash_after_map` and reduce number
  /// `crash_after_reduce` die right after reporting it.
  struct Crashes {
    int at_assignment = 0;
    int after_map = 0;
    int after_reduce = 0;
  };

  SimulatedCluster(MapReduce* program, int num_slaves,
                   Scheduler::Config config, Crashes crashes)
      : program_(program), scheduler_(std::move(config)), crashes_(crashes) {
    for (int id = 1; id <= num_slaves; ++id) {
      EXPECT_EQ(scheduler_.SignIn(BaseUrl(id), /*ping_interval=*/0, 0), id);
      slaves_.push_back(SimSlave{id});
    }
  }

  void Submit(const DataSetPtr& dataset) override {
    scheduler_.Tick(sim_.now());
    scheduler_.Submit(dataset);
  }

  Status Wait(const DataSetPtr& dataset) override {
    target_ = dataset;
    for (size_t i = 0; i < slaves_.size(); ++i) {
      if (slaves_[i].crashed || !slaves_[i].parked) continue;
      slaves_[i].parked = false;
      sim_.After(0, [this, i] { Poll(i); });
    }
    sim_.Run(sim_.now() + 600);  // runaway guard, in simulated seconds
    target_ = nullptr;
    MRS_RETURN_IF_ERROR(scheduler_.job_status());
    if (!dataset->Complete()) return InternalError("simulation stalled");
    return Status::Ok();
  }

  UrlFetcher fetcher() override {
    return [this](const std::string& url) -> Result<std::string> {
      auto it = buckets_.find(url);
      if (it == buckets_.end()) {
        return UnavailableError("no bucket at " + url + " (host down)");
      }
      return it->second;
    };
  }

  bool RecoverLostUrl(const std::string& url) override {
    scheduler_.Tick(sim_.now());
    return scheduler_.RecoverLostUrl(url);
  }

  void Discard(const DataSetPtr& dataset) override {
    scheduler_.Tick(sim_.now());
    scheduler_.Discard(dataset);
  }

  std::string name() const override { return "simulated"; }

  const Scheduler& scheduler() const { return scheduler_; }
  int crashed() const {
    return static_cast<int>(std::count_if(
        slaves_.begin(), slaves_.end(),
        [](const SimSlave& s) { return s.crashed; }));
  }
  double now() const { return sim_.now(); }

 private:
  static constexpr double kLongPoll = 0.25;
  static constexpr double kMapSeconds = 0.02;
  static constexpr double kReduceSeconds = 0.05;

  struct SimSlave {
    int id = 0;
    bool parked = true;  // not polling: no Wait in progress
    bool crashed = false;
  };

  bool Done() const {
    return target_ == nullptr || target_->Complete() ||
           !scheduler_.job_status().ok();
  }

  void Poll(size_t i) {
    SimSlave& slave = slaves_[i];
    scheduler_.Tick(sim_.now());
    if (Done()) {
      // Park until the next Wait.  A real slave would keep long-polling,
      // so it stays as alive as a poll would keep it.
      ASSERT_TRUE(scheduler_.Ping(slave.id, sim_.now()).ok());
      slave.parked = true;
      return;
    }
    Result<Scheduler::PollResult> poll = scheduler_.Poll(slave.id, sim_.now());
    ASSERT_TRUE(poll.ok()) << poll.status().ToString();
    if (poll->kind != Kind::kTask) {
      sim_.After(kLongPoll, [this, i] { Poll(i); });
      return;
    }
    if (++assignments_ == crashes_.at_assignment) {
      Crash(slave);  // dies holding the assignment
      return;
    }
    bool map = poll->assignment.kind == DataSetKind::kMap;
    sim_.After(map ? kMapSeconds : kReduceSeconds,
               [this, i, assignment = std::move(poll->assignment)] {
                 Execute(i, assignment);
               });
  }

  /// Run the task, publish its buckets, report, and poll again.
  void Execute(size_t i, const TaskAssignment& assignment) {
    SimSlave& slave = slaves_[i];
    TaskId task{assignment.dataset_id, assignment.source};
    Result<std::vector<Bucket>> row = RunTaskOnBuckets(
        *program_, assignment.kind, assignment.options, assignment.num_splits,
        InputColumn(assignment.inputs), fetcher(), nullptr);
    scheduler_.Tick(sim_.now());
    if (!row.ok()) {
      // As a real slave does: name the unreachable input for lineage.
      std::string bad_url;
      for (const TaskInputPart& part : assignment.inputs) {
        if (!part.inline_records &&
            row.status().message().find(part.url) != std::string::npos) {
          bad_url = part.url;
        }
      }
      EXPECT_FALSE(bad_url.empty()) << row.status().ToString();
      scheduler_.TaskFailed(slave.id, task, row.status().ToString(), bad_url,
                            assignment.attempt, sim_.now());
      Poll(i);
      return;
    }
    std::vector<std::string> urls;
    for (int p = 0; p < assignment.num_splits; ++p) {
      urls.push_back(BucketUrl(slave.id, task, p));
      buckets_[urls.back()] =
          EncodeBinaryRecords((*row)[static_cast<size_t>(p)].records());
    }
    ASSERT_TRUE(
        scheduler_.TaskDone(slave.id, task, urls, sim_.now()).ok());
    int& done = assignment.kind == DataSetKind::kMap ? maps_done_
                                                     : reduces_done_;
    int crash_after = assignment.kind == DataSetKind::kMap
                          ? crashes_.after_map
                          : crashes_.after_reduce;
    if (++done == crash_after) {
      Crash(slave);
      return;
    }
    Poll(i);
  }

  void Crash(SimSlave& slave) {
    slave.crashed = true;
    std::string prefix = BaseUrl(slave.id) + "/";
    std::erase_if(buckets_, [&](const auto& entry) {
      return StartsWith(entry.first, prefix);
    });
  }

  MapReduce* program_;
  Scheduler scheduler_;
  Crashes crashes_;
  hadoopsim::Simulation sim_;
  std::vector<SimSlave> slaves_;
  std::map<std::string, std::string> buckets_;  // url -> encoded records
  DataSetPtr target_;
  int assignments_ = 0;
  int maps_done_ = 0;
  int reduces_done_ = 0;
};

/// WordCount over `kMapSplits` LocalData splits into `kReduceSplits`.
class SimWordCount : public WordCount {
 public:
  static constexpr int kMapSplits = 1024;
  static constexpr int kReduceSplits = 64;

  Status Run(Job& job) override {
    DataSetOptions options;
    options.num_splits = kReduceSplits;
    DataSetPtr words =
        job.MapData(job.LocalData(Lines(8 * kMapSplits), kMapSplits), options);
    MRS_ASSIGN_OR_RETURN(result, job.Collect(job.ReduceData(words, options)));
    return Status::Ok();
  }

  std::vector<KeyValue> result;
};

TEST(SimulatedCluster, ThousandSlavesSurviveThreeCrashesByteIdentical) {
  SimWordCount serial;
  ASSERT_TRUE(serial.Init(Options()).ok());
  Job serial_job(&serial, std::make_unique<SerialRunner>(&serial));
  ASSERT_TRUE(serial.Run(serial_job).ok());

  // Live slaves poll every 0.25 s and finish tasks within 0.05 s, so a
  // 0.5 s silence threshold only ever catches the crashed.
  Scheduler::Config config;
  config.slave_timeout = 0.5;
  SimWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  // One slave dies holding a map (a backup finishes it, and the silence
  // threshold declares the slave lost), one after its map output is done
  // (the reducers' failed fetches report it), and one after the last
  // reduce (Collect's failed fetch reports it).
  auto owned = std::make_unique<SimulatedCluster>(
      &program, /*num_slaves=*/1024, config,
      SimulatedCluster::Crashes{/*at_assignment=*/700, /*after_map=*/900,
                                /*after_reduce=*/64});
  SimulatedCluster& cluster = *owned;
  Job job(&program, std::move(owned));
  Stopwatch wall;
  ASSERT_TRUE(program.Run(job).ok());

  EXPECT_EQ(EncodeTextRecords(program.result),
            EncodeTextRecords(serial.result));
  EXPECT_EQ(cluster.crashed(), 3);
  const Scheduler::Stats& stats = cluster.scheduler().stats();
  EXPECT_EQ(stats.slaves_lost, 3);
  EXPECT_GE(stats.tasks_speculated, 1);
  EXPECT_GE(stats.lineage_recoveries, 2);
  EXPECT_GE(stats.tasks_invalidated, 2);
  EXPECT_GE(stats.tasks_assigned, SimWordCount::kMapSplits +
                                      SimWordCount::kReduceSplits);
  std::printf("1024-slave simulation: %.2f simulated s, %.3f wall s, "
              "%lld tasks assigned, %lld lost, %lld invalidated\n",
              cluster.now(), wall.ElapsedSeconds(),
              static_cast<long long>(stats.tasks_assigned),
              static_cast<long long>(stats.slaves_lost),
              static_cast<long long>(stats.tasks_invalidated));
}

}  // namespace
}  // namespace mrs
