// Tests for the thread implementation: the FIFO pool's scheduling and
// drain semantics, and ThreadRunner's determinism, multi-stage chains, and
// failure behavior (an exception on a worker must surface as a Status; a
// failed chain must not hang Wait).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/job.h"
#include "core/serial_runner.h"
#include "core/thread_runner.h"
#include "obs/metrics.h"
#include "ser/record.h"

namespace mrs {
namespace {

void SpinUntil(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

// ---- ThreadPool ----------------------------------------------------------
// The cases that predate the FIFO pool keep their suite name, the pool's
// former name WorkStealingPool, so their test names stay stable.

TEST(WorkStealingPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkStealingPool, ShutdownDrainsQueuedTasksAndRejectsNewOnes) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  // Tasks slow enough that most are still queued when Shutdown is called
  // mid-job: Shutdown must run them all before joining, not drop them.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.Submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 20);
  EXPECT_FALSE(pool.Submit([&] { ran.fetch_add(1); }));
  pool.Shutdown();  // idempotent
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, TasksQueuedBehindAPinnedWorkerRunOnTheOther) {
  ThreadPool pool(2);
  // Pin one worker in a long task, then queue quick tasks behind it: the
  // other worker must run every one of them while the first stays pinned.
  std::atomic<bool> pinned{false}, release{false};
  std::thread::id pinned_worker;
  ASSERT_TRUE(pool.Submit([&] {
    pinned_worker = std::this_thread::get_id();
    pinned.store(true, std::memory_order_release);
    SpinUntil(release);
  }));
  SpinUntil(pinned);

  constexpr int kTasks = 8;
  std::vector<std::thread::id> ran_on(kTasks);
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.Submit([&, i] {
      ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
      done.fetch_add(1);
    }));
  }
  while (done.load() < kTasks) std::this_thread::yield();
  for (const std::thread::id& id : ran_on) {
    EXPECT_NE(id, pinned_worker);
    EXPECT_EQ(id, ran_on[0]);
  }
  release.store(true, std::memory_order_release);
  pool.Shutdown();
}

TEST(ThreadPool, OneWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  // Hold the worker until every task is queued, so the order it runs them
  // in is the queue's order alone.
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit([&] { SpinUntil(release); }));
  std::vector<int> order;  // written by the one worker only
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit([&order, i] { order.push_back(i); }));
  }
  release.store(true, std::memory_order_release);
  pool.Shutdown();
  std::vector<int> submitted(50);
  std::iota(submitted.begin(), submitted.end(), 0);
  EXPECT_EQ(order, submitted);
}

TEST(WorkStealingPool, QueueDepthGaugeTracksOutstandingTasks) {
  // The mrs.pool.queue_depth gauge must count every submitted-but-not-
  // finished task, queued AND executing.
  obs::Gauge* gauge =
      obs::Registry::Instance().GetGauge("mrs.pool.queue_depth");
  ThreadPool pool(2);
  std::atomic<bool> gate_a_running{false}, gate_b_running{false};
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit([&] {
    gate_a_running.store(true, std::memory_order_release);
    SpinUntil(release);
  }));
  ASSERT_TRUE(pool.Submit([&] {
    gate_b_running.store(true, std::memory_order_release);
    SpinUntil(release);
  }));
  SpinUntil(gate_a_running);
  SpinUntil(gate_b_running);
  // Both workers are pinned executing a gate, so nothing can finish:
  // outstanding = 2 executing + everything queued behind them.
  EXPECT_EQ(pool.OutstandingTasks(), 2u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pool.Submit([] {}));
  }
  EXPECT_EQ(pool.OutstandingTasks(), 7u);
  EXPECT_EQ(gauge->value(), 7);
  release.store(true, std::memory_order_release);
  pool.Shutdown();
  EXPECT_EQ(pool.OutstandingTasks(), 0u);
  EXPECT_EQ(gauge->value(), 0);
}

TEST(WorkStealingPool, TasksSubmittedFromWorkersRun) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.Submit([&, i] {
      // Submitted from a worker; the pool is still open (Shutdown comes
      // after the spin below).
      if (i % 2 == 0) {
        EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
      }
      ran.fetch_add(1);
    }));
  }
  while (ran.load() < 12) std::this_thread::yield();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 12);
}

// ---- ThreadRunner workloads ----------------------------------------------

class ThreadedWordCount : public MapReduce {
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
};

std::vector<KeyValue> WordInput(int lines) {
  static const char* kWords[] = {"steal", "queue",  "worker", "split",
                                 "merge", "bucket", "deque",  "task"};
  std::vector<KeyValue> records;
  for (int64_t i = 0; i < lines; ++i) {
    std::string line;
    for (int64_t j = 0; j < 5; ++j) {
      if (j) line += ' ';
      line += kWords[(i * 5 + j * 3) % 8];
    }
    records.push_back({Value(i), Value(line)});
  }
  return records;
}

/// Sorted text encoding of a map→reduce run under `runner`.
template <typename RunnerT, typename... Args>
std::string RunWordCount(ThreadedWordCount* program, int parallelism,
                         Args&&... args) {
  Job job(program,
          std::make_unique<RunnerT>(program, std::forward<Args>(args)...));
  job.set_default_parallelism(parallelism);
  DataSetPtr input = job.LocalData(WordInput(60));
  DataSetPtr mapped = job.MapData(input);
  DataSetPtr reduced = job.ReduceData(mapped);
  auto out = job.Collect(reduced);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return "<error>";
  std::sort(out->begin(), out->end(), KeyValueLess);
  return EncodeTextRecords(*out);
}

TEST(ThreadRunner, MatchesSerialForEveryWorkerCount) {
  ThreadedWordCount serial_program;
  ASSERT_TRUE(serial_program.Init(Options()).ok());
  std::string expected =
      RunWordCount<SerialRunner>(&serial_program, /*parallelism=*/6);
  for (int workers : {1, 2, 4, 7}) {
    ThreadedWordCount program;
    ASSERT_TRUE(program.Init(Options()).ok());
    EXPECT_EQ(RunWordCount<ThreadRunner>(&program, /*parallelism=*/6, workers),
              expected)
        << "workers=" << workers;
  }
}

TEST(ThreadRunner, MultiStageChainRunsInOneWait) {
  // map → reduce → map, all lazy, resolved by a single Collect: Wait must
  // run all three stages in dependency order.
  ThreadedWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  program.RegisterMap("tag", [](const Value& k, const Value& v,
                                const Emitter& e) {
    e(Value(k.AsString() + "!"), v);
  });

  auto run = [&](std::unique_ptr<Runner> runner) {
    Job job(&program, std::move(runner));
    job.set_default_parallelism(5);
    DataSetPtr input = job.LocalData(WordInput(40));
    DataSetPtr mapped = job.MapData(input);
    DataSetPtr reduced = job.ReduceData(mapped);
    DataSetOptions tag;
    tag.op_name = "tag";
    DataSetPtr tagged = job.MapData(reduced, tag);
    auto out = job.Collect(tagged);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    std::sort(out->begin(), out->end(), KeyValueLess);
    return EncodeTextRecords(*out);
  };

  std::string expected = run(std::make_unique<SerialRunner>(&program));
  EXPECT_NE(expected.find("task!"), std::string::npos);
  EXPECT_EQ(run(std::make_unique<ThreadRunner>(&program, 4)), expected);
}

// A map whose cost is wildly skewed: the "blocker" record spins until
// every other map task has finished, so the worker that claims it is
// pinned and the remaining tasks can only proceed on the other workers.
// Completion proves the pool schedules around a pinned worker.
class SkewedMap : public MapReduce {
 public:
  std::atomic<int> quick_done{0};
  int num_quick = 0;

  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)key;
    if (value.AsString() == "blocker") {
      while (quick_done.load(std::memory_order_acquire) < num_quick) {
        std::this_thread::yield();
      }
    } else {
      quick_done.fetch_add(1, std::memory_order_acq_rel);
    }
    emit(value, Value(int64_t{1}));
  }
  // Route key i to split i so each record is its own map task.
  int Partition(const Value& key, int num_splits) const override {
    if (key.is_int()) return static_cast<int>(key.AsInt() % num_splits);
    return MapReduce::Partition(key, num_splits);
  }
};

TEST(ThreadRunner, SkewedTaskCostsDoNotStallTheJob) {
  SkewedMap program;
  ASSERT_TRUE(program.Init(Options()).ok());
  constexpr int kTasks = 8;
  program.num_quick = kTasks - 1;
  std::vector<KeyValue> records;
  for (int64_t i = 0; i < kTasks; ++i) {
    records.push_back({Value(i), Value(i == 3 ? "blocker" : "quick")});
  }
  Job job(&program, std::make_unique<ThreadRunner>(&program, 2));
  DataSetPtr input = job.LocalData(std::move(records), kTasks);
  DataSetPtr mapped = job.MapData(input);
  auto out = job.Collect(mapped);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), static_cast<size_t>(kTasks));
  EXPECT_EQ(program.quick_done.load(), kTasks - 1);
}

// ---- Failure propagation -------------------------------------------------

class ThrowingMap : public ThreadedWordCount {
 public:
  std::atomic<bool> armed{true};

  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    if (armed.load(std::memory_order_acquire)) {
      throw std::runtime_error("map exploded");
    }
    ThreadedWordCount::Map(key, value, emit);
  }
};

TEST(ThreadRunner, WorkerExceptionSurfacesAsStatus) {
  ThrowingMap program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<ThreadRunner>(&program, 4));
  job.set_default_parallelism(4);
  DataSetPtr input = job.LocalData(WordInput(20));
  DataSetPtr mapped = job.MapData(input);
  // Chain through a reduce: downstream tasks must still drain (not hang)
  // when every upstream map fails.
  DataSetPtr reduced = job.ReduceData(mapped);
  Status status = job.Wait(reduced);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("map exploded"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("uncaught exception"), std::string::npos)
      << status.ToString();

  // Disarm and Wait again: failed tasks are reset and re-executed.
  program.armed.store(false, std::memory_order_release);
  auto out = job.Collect(reduced);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->empty());
}

class ThrowingNonStdMap : public ThreadedWordCount {
 public:
  void Map(const Value&, const Value&, const Emitter&) override {
    throw 42;  // not derived from std::exception
  }
};

TEST(ThreadRunner, NonStandardExceptionAlsoBecomesStatus) {
  ThrowingNonStdMap program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<ThreadRunner>(&program, 2));
  job.set_default_parallelism(2);
  DataSetPtr mapped = job.MapData(job.LocalData(WordInput(4)));
  Status status = job.Wait(mapped);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("non-standard exception"),
            std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace mrs
