#include "core/serial_runner.h"

#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "core/program.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rng/mt19937_64.h"

namespace mrs {

namespace {

// Distinguishes the task-order stream from any stream user code derives.
constexpr uint64_t kMockOrderTag = 0x6d6f636b6f726472ull;  // "mockordr"

/// Shuffle the task order of `dataset` (Fisher-Yates driven by the
/// program's random-stream API, so the order is reproducible for a given
/// seed and dataset but is *not* 0..n-1).
void ShuffleTaskOrder(const MapReduce& program, const DataSet& dataset,
                      std::vector<int>* order) {
  MT19937_64 rng = program.Random(
      {kMockOrderTag, static_cast<uint64_t>(dataset.id())});
  for (size_t i = order->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng.NextBounded(i));
    std::swap((*order)[i - 1], (*order)[j]);
  }
}

}  // namespace

/// The tasks one Wait runs: how many have yet to finish, and the first
/// failure among them.
struct SerialRunner::Stage {
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

Status SerialRunner::Wait(const DataSetPtr& dataset) {
  if (dataset->IsSourceData() || dataset->Complete()) return Status::Ok();
  MRS_RETURN_IF_ERROR(Wait(dataset->input()));

  std::vector<int> sources(static_cast<size_t>(dataset->num_sources()));
  std::iota(sources.begin(), sources.end(), 0);
  if (mock_parallel()) {
    // A correct program must not depend on task execution order (in the
    // master/slave and thread implementations it is nondeterministic), and
    // running tasks shuffled — but reproducibly — flushes out such bugs
    // during debugging.
    ShuffleTaskOrder(*program_, *dataset, &sources);
  }
  std::erase_if(sources, [&](int s) {
    TaskState state = dataset->task_state(s);
    if (state == TaskState::kComplete) return true;
    // A task an earlier Wait left failed runs again, so Wait returns OK
    // only once every row is complete.
    if (state != TaskState::kPending) dataset->ResetTask(s);
    return false;
  });

  Stage stage(sources.size());
  for (int source : sources) {
    auto task = [&, source] { RunTask(*dataset, source, &stage); };
    // Serial and mock parallel have no pool and run the task right here.
    // So does a pool that is shutting down (the runner is being
    // destroyed), which keeps Wait from hanging.
    if (!pool_ || !pool_->Submit(task)) task();
  }
  MutexLock lock(stage.mu);
  while (stage.remaining > 0) stage.finished.Wait(stage.mu);
  return stage.error;
}

void SerialRunner::RunTask(DataSet& dataset, int source, Stage* stage) {
  Status status;
  if (!stage->failed() && dataset.TryClaimTask(source)) {
    status = ExecuteTask(dataset, source);
    if (!status.ok()) dataset.set_task_state(source, TaskState::kFailed);
  }
  // Notify under the lock: the Wait that owns `stage` may return, and
  // destroy it, as soon as the lock is released.
  MutexLock lock(stage->mu);
  if (stage->error.ok()) stage->error = status;
  if (--stage->remaining == 0) stage->finished.NotifyAll();
}

Status SerialRunner::ExecuteTask(DataSet& dataset, int source) {
  static obs::Counter* serial_tasks =
      obs::Registry::Instance().GetCounter("mrs.serial.tasks");
  static obs::Counter* mock_tasks =
      obs::Registry::Instance().GetCounter("mrs.mock.tasks");
  static obs::Counter* thread_tasks =
      obs::Registry::Instance().GetCounter("mrs.thread.tasks");
  // A failed attempt's spill file goes with its context; a completed one
  // belongs to the row SetRow stores.  Mock parallel always has one.
  std::optional<TaskSpillContext> spill =
      NewTaskSpillContext(name(), dataset.id(), source, tmpdir_);
  obs::ScopedSpan span(dataset.options().op_name,
                       dataset.kind() == DataSetKind::kMap ? "map"
                                                           : "reduce");
  span.set_task(dataset.id(), source);
  MRS_ASSIGN_OR_RETURN(
      std::vector<Bucket> row, CatchUserExceptions("task", [&] {
        return RunTaskOnDataSet(*program_, dataset, source, LocalFetch,
                                spill ? &*spill : nullptr);
      }));
  if (mock_parallel()) {
    // Downstream tasks must read the row from disk, as a distributed
    // fault-tolerant run would: every bucket still in memory becomes a
    // FIFO run of the attempt's spill file (a spilled bucket already is
    // runs only; an empty one writes nothing).
    for (Bucket& b : row) {
      if (b.records().empty()) continue;
      MRS_RETURN_IF_ERROR(b.SpillToRun(
          *spill->file, spill->id_prefix + "/" + std::to_string(b.split()),
          /*sorted=*/false));
    }
  }
  dataset.SetRow(source, std::move(row), spill ? spill->file.get() : nullptr);
  if (spill) spill->file->Keep();
  (pool_ ? thread_tasks : mock_parallel() ? mock_tasks : serial_tasks)->Inc();
  return Status::Ok();
}

}  // namespace mrs
