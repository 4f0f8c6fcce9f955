// The thread implementation: the serial runner's stage loop, with each
// dataset's tasks running at once on a work-stealing pool.
//
// Same task decomposition as every other implementation — one task per
// (dataset, source) — and the same task body as serial: a task reads its
// column of the completed input dataset through RunTaskOnDataSet and
// stores its row with DataSet::SetRow.  Wait completes the input dataset
// first, then submits every incomplete task of this dataset to the pool
// and blocks until all of them finish, so each dataset ends in a barrier.
// Determinism (paper §IV-A: all implementations "produce identical
// answers") follows from that shape:
//
//  * a task reads its column only once every upstream row is stored, in
//    source-index order, so an order-sensitive map sees its input exactly
//    as the serial runner produces it;
//  * the `random(...)` streams depend only on argument tuples, never on
//    scheduling;
//  * a dataset's bucket grid is only written via DataSet::SetRow (one row
//    per task, internally locked).
//
// The barrier costs no overlap: a MapReduce round is a BSP superstep, and
// every downstream task reads a bucket of every upstream task, so none
// could start before the last upstream task finished anyway.
//
// Map/Reduce/Combine/Partition functions run concurrently on one shared
// program instance; like a Mrs slave's forked workers they must not
// mutate shared program state (the stock workloads — WordCount, π, PSO,
// k-means — are pure).
#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/runner.h"

namespace mrs {

class MapReduce;

class ThreadRunner final : public Runner {
 public:
  /// `num_workers` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadRunner(MapReduce* program, int num_workers = 0);
  ~ThreadRunner() override;

  void Submit(const DataSetPtr& dataset) override { (void)dataset; }
  Status Wait(const DataSetPtr& dataset) override;
  UrlFetcher fetcher() override { return LocalFetch; }
  std::string name() const override { return "thread"; }

 private:
  struct Stage;

  /// Run task `source` of `dataset` and store its row, unless a task of
  /// the same stage has failed: then the task stays pending.
  void RunTask(DataSet& dataset, int source, Stage* stage);

  MapReduce* program_;
  std::unique_ptr<WorkStealingPool> pool_;
};

}  // namespace mrs
