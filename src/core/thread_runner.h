// The thread implementation: a true shared-memory parallel runner.
//
// Same task decomposition as every other implementation — one task per
// (dataset, source) — but map and reduce tasks execute concurrently on a
// work-stealing pool of N threads.  Determinism (paper §IV-A: all
// implementations "produce identical answers") is preserved structurally:
//
//  * the computation itself is the shared task funnel (core/task.h), and
//    the `random(...)` streams depend only on argument tuples, never on
//    scheduling;
//  * shuffle output destined for a *map* stage is deposited into
//    per-split buckets under striped locks and merged in *source-index
//    order* before the downstream task reads it, so an order-sensitive
//    map sees its input exactly as the serial runner would produce it;
//  * shuffle output destined for a *reduce* stage only needs the right
//    input multiset (a reduce groups its column (key, value)-sorted,
//    whether it sorts it in memory or merges sorted runs), which is what
//    licenses the two scaling optimizations below;
//  * a dataset's bucket grid is only written via DataSet::SetRow (one row
//    per task, internally locked).
//
// Scheduling (v2) is pipelined per split rather than barriered per
// stage: the shuffle board keeps a per-split count of outstanding
// deposits, and the downstream task for split s is submitted the moment
// its count reaches zero — arrivals are recorded right after a task (or
// morsel) deposits, not when its body finishes bookkeeping, so reduce
// work starts while upstream tasks are still combining and publishing
// their own rows.
//
// Per-worker combiners: when a map stage has a combine function and its
// downstream is a reduce (and no memory budget is active), each pool
// worker accumulates the map rows it produced into a worker-local
// per-destination-split buffer and deposits one combined bucket per
// flush instead of one bucket per task — collapsing shuffle-board lock
// traffic and the record volume the reduce must sort.  Sound for the
// same reason combine-before-spill is: a combiner must satisfy
// reduce ∘ partial-combine = reduce.
//
// Morsels: with --mrs-morsel-records > 0, a first-stage map task whose
// input exceeds the threshold is split into independently stealable
// morsels.  Morsel outputs are concatenated in morsel order (exactly the
// serial emission order) and combined once per task, so the task's row is
// byte-identical to the serial runner's; when the downstream stage is a
// reduce, each morsel additionally deposits its raw partial buckets
// directly so reduces can start before the task has assembled its row.
//
// Map/Reduce/Combine/Partition functions run concurrently on one shared
// program instance; like a Mrs slave's forked workers they must not
// mutate shared program state (the stock workloads — WordCount, π, PSO,
// k-means — are pure).
#pragma once

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/runner.h"
#include "fs/bucket.h"

namespace mrs {

class MapReduce;

class ThreadRunner final : public Runner {
 public:
  /// `num_workers` <= 0 selects std::thread::hardware_concurrency().
  /// `morsel_records` < 0 reads --mrs-morsel-records from the program's
  /// options (default 0 = no morsel splitting).
  ThreadRunner(MapReduce* program, int num_workers = 0,
               int morsel_records = -1);
  ~ThreadRunner() override;

  void Submit(const DataSetPtr& dataset) override { (void)dataset; }
  Status Wait(const DataSetPtr& dataset) override;
  UrlFetcher fetcher() override { return LocalFetch; }
  std::string name() const override { return "thread"; }

  int num_workers() const {
    return static_cast<int>(pool_->num_threads());
  }
  int morsel_records() const { return morsel_records_; }
  /// Work steals performed by this runner's pool so far (tests/benches).
  int64_t steal_count() const { return pool_->steal_count(); }

 private:
  struct ChainContext;
  struct Stage;
  struct CombineBuffer;
  struct MorselGroup;

  /// Execute the chain of incomplete computing datasets ending at
  /// `dataset` (deepest first), submitting each downstream task the
  /// moment its split's last shuffle deposit arrives.
  Status RunChain(const DataSetPtr& dataset);
  void SubmitTask(const std::shared_ptr<ChainContext>& ctx, Stage* stage,
                  int source);
  void RunTaskBody(const std::shared_ptr<ChainContext>& ctx, Stage* stage,
                   int source);
  Result<std::vector<Bucket>> ExecuteTask(Stage* stage, int source,
                                          const TaskSpillContext* spill);
  /// Record a task failure in the dataset and the chain context.
  void FailTask(const std::shared_ptr<ChainContext>& ctx, Stage* stage,
                int source, Status status);
  /// Deliver a finished task's row (deposit downstream or enter a worker
  /// combine buffer, record arrivals, SetRow) and run stage-close
  /// bookkeeping.  `row` is null for failed/skipped tasks;
  /// `arrivals_delivered` marks tasks whose morsels already deposited;
  /// `spill_file` is the attempt's, for SetRow's over-budget row spill.
  void CompleteTask(const std::shared_ptr<ChainContext>& ctx, Stage* stage,
                    int source, std::vector<Bucket>* row,
                    bool arrivals_delivered, SpillFile* spill_file = nullptr);
  /// Record `n` deposit-arrivals on every split of `consumer`'s board and
  /// submit the tasks of splits that became ready.
  void Arrive(const std::shared_ptr<ChainContext>& ctx, Stage* consumer,
              int n);
  /// Combine and deposit a worker buffer's contents, releasing its
  /// withheld arrivals.
  void FlushCombineBuffer(const std::shared_ptr<ChainContext>& ctx,
                          Stage* consumer, CombineBuffer* buf);
  /// Fan a first-stage map task out into morsels; returns false when the
  /// task does not qualify (then the caller runs it whole).
  bool TryMorselFanOut(const std::shared_ptr<ChainContext>& ctx, Stage* stage,
                       int source);
  void RunMorsel(const std::shared_ptr<ChainContext>& ctx,
                 const std::shared_ptr<MorselGroup>& group, size_t index);
  void FinalizeMorselGroup(const std::shared_ptr<ChainContext>& ctx,
                           const std::shared_ptr<MorselGroup>& group);
  void FinishUnit(const std::shared_ptr<ChainContext>& ctx);

  MapReduce* program_;
  int morsel_records_ = 0;
  std::unique_ptr<WorkStealingPool> pool_;
};

}  // namespace mrs
