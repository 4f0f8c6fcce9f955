// The local runner: the serial, mock parallel and thread implementations,
// one stage loop.
//
// Serial "performs all work sequentially on a single processor and makes
// all work deterministic" (paper §IV-A).  It executes the identical task
// decomposition the parallel implementations use — one task per
// (dataset, source) — just one task at a time, in dependency order,
// entirely in memory.
//
// Given a tmpdir, the same loop is mock parallel, which "splits work into
// the same tasks as would be run in the master/slave implementation but
// performs all computation on a single processor.  Intermediate data
// between tasks is saved to files which can be helpful for debugging"
// (paper §IV-A).  Two things change:
//  * every completed task row is persisted into the tmpdir and evicted
//    from memory, so all downstream reads exercise the file path — the
//    data movement a fault-tolerant distributed run performs, minus the
//    network;
//  * tasks within a dataset execute in a seeded shuffled order (derived
//    from the program seed and dataset id), approximating the out-of-order
//    completion of a real cluster while staying fully reproducible.
//
// Given a pool (ThreadRunner, core/thread_runner.h), the same loop is the
// thread implementation: each dataset's tasks run at once on the pool's
// workers.  Serial and mock parallel run every task on the thread that
// calls Wait.
//
// Wait completes the input dataset first, then runs every incomplete task
// of this dataset and blocks until all of them finish, so each dataset
// ends in a barrier.  The barrier costs the thread runner no overlap: a
// MapReduce round is a BSP superstep, and every downstream task reads a
// bucket of every upstream task, so none could start before the last
// upstream task finished anyway.  Its output is the serial runner's, byte
// for byte (paper §IV-A: all implementations "produce identical answers"):
//  * a task reads its column only once every upstream row is stored, in
//    source-index order, so an order-sensitive map sees its input exactly
//    as the serial runner produces it;
//  * the `random(...)` streams depend only on argument tuples, never on
//    scheduling;
//  * a dataset's bucket grid is only written via DataSet::SetRow (one row
//    per task, internally locked).
// On the thread runner, Map/Reduce/Combine/Partition functions run
// concurrently on one shared program instance; like a Mrs slave's forked
// workers they must not mutate shared program state (the stock workloads
// — WordCount, π, PSO, k-means — are pure).
//
// Once a task of a stage fails, the stage's unstarted tasks stay pending
// and Wait returns the failure; the next Wait runs the failed task again.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "core/runner.h"

namespace mrs {

class MapReduce;

class SerialRunner : public Runner {
 public:
  /// An empty `tmpdir` selects serial.  Otherwise `tmpdir` must exist and
  /// the runner is mock parallel: intermediate data goes to
  /// `<tmpdir>/dataset_<id>/source_<s>_split_<p>.mrsb`, and each task
  /// attempt's spill file sits beside those files.
  explicit SerialRunner(MapReduce* program, std::string tmpdir = "")
      : program_(program), tmpdir_(std::move(tmpdir)) {}

  void Submit(const DataSetPtr& dataset) override { (void)dataset; }
  Status Wait(const DataSetPtr& dataset) override;
  UrlFetcher fetcher() override { return LocalFetch; }
  std::string name() const override {
    return pool_ ? "thread" : mock_parallel() ? "mockparallel" : "serial";
  }
  void Discard(const DataSetPtr& dataset) override;

 protected:
  /// The thread runner: tasks run on a pool of `num_workers` threads.
  SerialRunner(MapReduce* program, size_t num_workers)
      : program_(program),
        pool_(std::make_unique<ThreadPool>(num_workers)) {}

 private:
  struct Stage;

  bool mock_parallel() const { return !tmpdir_.empty(); }
  /// `<tmpdir>/dataset_<id>` under mock parallel; empty otherwise.
  std::string DataSetDir(const DataSet& dataset) const;
  /// Run task `source` of `dataset` and store its row, unless a task of
  /// the same stage has failed: then the task stays pending.
  void RunTask(DataSet& dataset, int source, Stage* stage);
  /// Run claimed task `source` of `dataset`, persist and evict its
  /// buckets under mock parallel, and store its row.  User exceptions
  /// come back as a Status.
  Status ExecuteTask(DataSet& dataset, int source);

  MapReduce* program_;
  std::string tmpdir_;
  std::unique_ptr<ThreadPool> pool_;  // the thread runner's workers
};

}  // namespace mrs
