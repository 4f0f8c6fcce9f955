#include "core/thread_runner.h"

#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "core/program.h"
#include "core/task.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mrs {

/// The tasks one Wait submitted: how many have yet to finish, and the
/// first failure among them.
struct ThreadRunner::Stage {
  explicit Stage(size_t tasks) : remaining(tasks) {}

  bool failed() {
    MutexLock lock(mu);
    return !error.ok();
  }

  Mutex mu;
  CondVar finished;
  size_t remaining MRS_GUARDED_BY(mu);
  Status error MRS_GUARDED_BY(mu);
};

ThreadRunner::ThreadRunner(MapReduce* program, int num_workers)
    : program_(program) {
  if (num_workers <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  pool_ = std::make_unique<WorkStealingPool>(static_cast<size_t>(num_workers));
}

ThreadRunner::~ThreadRunner() { pool_->Shutdown(); }

Status ThreadRunner::Wait(const DataSetPtr& dataset) {
  if (!dataset) return InvalidArgumentError("null dataset");
  if (dataset->IsSourceData() || dataset->Complete()) return Status::Ok();
  MRS_RETURN_IF_ERROR(Wait(dataset->input()));

  std::vector<int> sources;
  for (int s = 0; s < dataset->num_sources(); ++s) {
    TaskState state = dataset->task_state(s);
    if (state == TaskState::kComplete) continue;
    // A task an earlier Wait left failed runs again, as on the serial
    // runner, so Wait returns OK only once every row is complete.
    if (state != TaskState::kPending) dataset->ResetTask(s);
    sources.push_back(s);
  }
  Stage stage(sources.size());
  DataSet* ds = dataset.get();
  for (int source : sources) {
    auto task = [this, ds, source, &stage] { RunTask(*ds, source, &stage); };
    // A pool that is shutting down (the runner is being destroyed) takes
    // no task; running it here keeps Wait from hanging.
    if (!pool_->Submit(task)) task();
  }
  MutexLock lock(stage.mu);
  while (stage.remaining > 0) stage.finished.Wait(stage.mu);
  return stage.error;
}

void ThreadRunner::RunTask(DataSet& dataset, int source, Stage* stage) {
  static obs::Counter* tasks =
      obs::Registry::Instance().GetCounter("mrs.thread.tasks");
  if (!stage->failed() && dataset.TryClaimTask(source)) {
    // A failed attempt's spill file goes with its context; a completed
    // one belongs to the row SetRow stores.
    std::optional<TaskSpillContext> spill =
        NewTaskSpillContext(name(), dataset.id(), source);
    Result<std::vector<Bucket>> row = [&] {
      obs::ScopedSpan span(dataset.options().op_name,
                           dataset.kind() == DataSetKind::kMap ? "map"
                                                               : "reduce");
      span.set_task(dataset.id(), source);
      return CatchUserExceptions("task", [&] {
        return RunTaskOnDataSet(*program_, dataset, source, LocalFetch,
                                spill ? &*spill : nullptr);
      });
    }();
    if (row.ok()) {
      dataset.SetRow(source, std::move(row).value(),
                     spill ? spill->file.get() : nullptr);
      if (spill) spill->file->Keep();
      tasks->Inc();
    } else {
      dataset.set_task_state(source, TaskState::kFailed);
      MutexLock lock(stage->mu);
      if (stage->error.ok()) stage->error = row.status();
    }
  }
  // Notify under the lock: the Wait that owns `stage` may return, and
  // destroy it, as soon as the lock is released.
  MutexLock lock(stage->mu);
  if (--stage->remaining == 0) stage->finished.NotifyAll();
}

}  // namespace mrs
