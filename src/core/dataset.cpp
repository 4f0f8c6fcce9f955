#include "core/dataset.h"

#include <cassert>
#include <cstdio>
#include <set>
#include <string>

#include "fs/spill.h"

namespace mrs {

std::string_view DataSetKindName(DataSetKind kind) {
  switch (kind) {
    case DataSetKind::kLocal: return "local";
    case DataSetKind::kFile: return "file";
    case DataSetKind::kMap: return "map";
    case DataSetKind::kReduce: return "reduce";
  }
  return "?";
}

DataSet::DataSet(int id, DataSetKind kind, int num_sources, int num_splits)
    : id_(id), kind_(kind), num_sources_(num_sources), num_splits_(num_splits) {
  assert(num_sources >= 1 && num_splits >= 1);
  grid_.reserve(static_cast<size_t>(num_sources) * num_splits);
  for (int s = 0; s < num_sources; ++s) {
    for (int p = 0; p < num_splits; ++p) {
      grid_.emplace_back(s, p);
    }
  }
  task_states_.assign(num_sources, TaskState::kPending);
  row_charged_.assign(num_sources, 0);
}

namespace {

/// Delete every file that holds a spill run of `grid`.
void RemoveSpillFiles(const std::vector<Bucket>& grid) {
  std::set<std::string> files;
  for (const Bucket& b : grid) {
    for (const SpillRun& run : b.spill_runs()) files.insert(run.path);
  }
  for (const std::string& file : files) std::remove(file.c_str());
}

}  // namespace

DataSet::~DataSet() {
  MutexLock lock(mutex_);
  for (int64_t charged : row_charged_) {
    MemoryBudget::Process().Release(charged);
  }
  RemoveSpillFiles(grid_);
}

// The grid vector is sized in the constructor and never resized, so bucket
// addresses are stable for the dataset's lifetime: the returned reference
// stays valid after the lock is dropped.  Concurrent access to a bucket's
// *contents* is serialized by task ownership (a row is written only by the
// task that claimed it) — the lock here covers the container itself.
Bucket& DataSet::bucket(int source, int split) {
  assert(source >= 0 && source < num_sources_);
  assert(split >= 0 && split < num_splits_);
  MutexLock lock(mutex_);
  return grid_[GridIndex(source, split)];
}

const Bucket& DataSet::bucket(int source, int split) const {
  assert(source >= 0 && source < num_sources_);
  assert(split >= 0 && split < num_splits_);
  MutexLock lock(mutex_);
  return grid_[GridIndex(source, split)];
}

std::optional<Bucket> DataSet::CompletedBucket(int source, int split) const {
  assert(source >= 0 && source < num_sources_);
  assert(split >= 0 && split < num_splits_);
  MutexLock lock(mutex_);
  if (task_states_[source] != TaskState::kComplete) return std::nullopt;
  return grid_[GridIndex(source, split)];
}

void DataSet::SetRow(int source, std::vector<Bucket> row,
                     SpillFile* spill_file) {
  assert(static_cast<int>(row.size()) == num_splits_);
  MutexLock lock(mutex_);
  MemoryBudget& budget = MemoryBudget::Process();
  int64_t bytes = 0;
  for (int p = 0; p < num_splits_; ++p) {
    // Normalize addressing regardless of what the producer set.
    Bucket fixed(source, p);
    fixed.set_url(row[p].url());
    *fixed.mutable_records() = std::move(*row[p].mutable_records());
    for (const SpillRun& run : row[p].spill_runs()) {
      fixed.AddSpillRun(run);
    }
    if (row[p].loaded()) fixed.MarkLoaded();
    bytes += static_cast<int64_t>(fixed.ApproxMemoryBytes());
    grid_[GridIndex(source, p)] = std::move(fixed);
  }
  // Budget the retained row.  A re-executed task's old charge is dropped
  // first; if storing this row pushes the process over its limit, the
  // row's in-memory buckets move to disk (sorted runs for map output —
  // multiset semantics — FIFO for anything whose order is observable).
  budget.Release(row_charged_[source]);
  row_charged_[source] = 0;
  budget.Charge(bytes);
  if (spill_file != nullptr && budget.ShouldSpill()) {
    bool sorted = kind_ == DataSetKind::kMap;
    int64_t still_held = 0;
    for (int p = 0; p < num_splits_; ++p) {
      Bucket& b = grid_[GridIndex(source, p)];
      if (b.records().empty()) continue;
      std::string id = std::to_string(id_) + "/" + std::to_string(source) +
                       "/" + std::to_string(p);
      Status st = b.SpillToRun(*spill_file, id, sorted);
      // On spill failure (disk full, ...) the records simply stay in
      // memory: over-budget but correct.
      if (!st.ok()) still_held += static_cast<int64_t>(b.ApproxMemoryBytes());
    }
    budget.Release(bytes - still_held);
    bytes = still_held;
  }
  row_charged_[source] = bytes;
  task_states_[source] = TaskState::kComplete;
}

TaskState DataSet::task_state(int source) const {
  MutexLock lock(mutex_);
  return task_states_[source];
}

void DataSet::set_task_state(int source, TaskState state) {
  MutexLock lock(mutex_);
  task_states_[source] = state;
}

bool DataSet::TryClaimTask(int source) {
  MutexLock lock(mutex_);
  if (task_states_[source] != TaskState::kPending) return false;
  task_states_[source] = TaskState::kRunning;
  return true;
}

void DataSet::ResetTask(int source) {
  MutexLock lock(mutex_);
  task_states_[source] = TaskState::kPending;
}

void DataSet::InvalidateTask(int source) {
  MutexLock lock(mutex_);
  for (int p = 0; p < num_splits_; ++p) {
    grid_[GridIndex(source, p)] = Bucket(source, p);
  }
  MemoryBudget::Process().Release(row_charged_[source]);
  row_charged_[source] = 0;
  task_states_[source] = TaskState::kPending;
}

bool DataSet::Complete() const {
  MutexLock lock(mutex_);
  for (TaskState s : task_states_) {
    if (s != TaskState::kComplete) return false;
  }
  return true;
}

int DataSet::NumCompleteTasks() const {
  MutexLock lock(mutex_);
  int n = 0;
  for (TaskState s : task_states_) {
    if (s == TaskState::kComplete) ++n;
  }
  return n;
}

void DataSet::MarkRejected(Status status) {
  MutexLock lock(mutex_);
  rejected_ = true;
  rejected_status_ = std::move(status);
}

bool DataSet::rejected() const {
  MutexLock lock(mutex_);
  return rejected_;
}

Status DataSet::rejected_status() const {
  MutexLock lock(mutex_);
  return rejected_status_;
}

void DataSet::Discard() {
  MutexLock lock(mutex_);
  for (Bucket& b : grid_) b.Evict();
  for (int s = 0; s < num_sources_; ++s) {
    MemoryBudget::Process().Release(row_charged_[s]);
    row_charged_[s] = 0;
  }
  RemoveSpillFiles(grid_);
}

}  // namespace mrs
