#include "core/serial_runner.h"

#include <numeric>
#include <optional>
#include <utility>

#include "core/program.h"
#include "fs/file_io.h"
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

Status SerialRunner::Wait(const DataSetPtr& dataset) {
  if (dataset->IsSourceData() || dataset->Complete()) return Status::Ok();
  MRS_RETURN_IF_ERROR(Wait(dataset->input()));

  std::string ds_dir = DataSetDir(*dataset);
  std::vector<int> order(static_cast<size_t>(dataset->num_sources()));
  std::iota(order.begin(), order.end(), 0);
  if (mock_parallel()) {
    MRS_RETURN_IF_ERROR(EnsureDir(ds_dir));
    // A correct program must not depend on task execution order (in the
    // master/slave and thread implementations it is nondeterministic), and
    // running tasks shuffled — but reproducibly — flushes out such bugs
    // during debugging.
    ShuffleTaskOrder(*program_, *dataset, &order);
  }

  static obs::Counter* serial_tasks =
      obs::Registry::Instance().GetCounter("mrs.serial.tasks");
  static obs::Counter* mock_tasks =
      obs::Registry::Instance().GetCounter("mrs.mock.tasks");
  for (int source : order) {
    if (dataset->task_state(source) == TaskState::kComplete) continue;
    // A task an earlier Wait left failed runs again, as on the thread
    // runner, so Wait returns OK only once every row is complete.
    dataset->set_task_state(source, TaskState::kRunning);
    std::optional<TaskSpillContext> spill =
        NewTaskSpillContext(name(), dataset->id(), source, ds_dir);
    Result<std::vector<Bucket>> row =
        ExecuteTask(*dataset, source, spill ? &*spill : nullptr);
    if (!row.ok()) {
      dataset->set_task_state(source, TaskState::kFailed);
      return row.status();
    }
    dataset->SetRow(source, std::move(row).value(),
                    spill ? spill->file.get() : nullptr);
    if (spill) spill->file->Keep();
    (mock_parallel() ? mock_tasks : serial_tasks)->Inc();
  }
  return Status::Ok();
}

Result<std::vector<Bucket>> SerialRunner::ExecuteTask(
    DataSet& dataset, int source, const TaskSpillContext* spill) {
  obs::ScopedSpan span(dataset.options().op_name,
                       dataset.kind() == DataSetKind::kMap ? "map"
                                                           : "reduce");
  span.set_task(dataset.id(), source);
  MRS_ASSIGN_OR_RETURN(
      std::vector<Bucket> row, CatchUserExceptions("task", [&] {
        return RunTaskOnDataSet(*program_, dataset, source, LocalFetch, spill);
      }));
  if (!mock_parallel()) return row;
  // Persist each bucket, then drop its records: downstream tasks must read
  // the files, as a distributed fault-tolerant run would.  A spilled
  // bucket is already disk-backed by its runs — persisting it again would
  // defeat the memory bound it exists to honor.
  const std::string ds_dir = DataSetDir(dataset);
  for (int p = 0; p < dataset.num_splits(); ++p) {
    Bucket& b = row[static_cast<size_t>(p)];
    if (b.spilled()) continue;
    MRS_RETURN_IF_ERROR(b.PersistToFile(
        JoinPath(ds_dir, "source_" + std::to_string(source) + "_split_" +
                             std::to_string(p) + ".mrsb")));
    b.Evict();
  }
  return row;
}

std::string SerialRunner::DataSetDir(const DataSet& dataset) const {
  if (!mock_parallel()) return "";
  return JoinPath(tmpdir_, "dataset_" + std::to_string(dataset.id()));
}

void SerialRunner::Discard(const DataSetPtr& dataset) {
  if (mock_parallel()) RemoveTree(DataSetDir(*dataset));
  dataset->Discard();
}

}  // namespace mrs
