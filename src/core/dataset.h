// Datasets: nodes of the lazy computation DAG.
//
// A dataset is a grid of buckets indexed [source][split]: `source` is the
// task that produced the data, `split` is the partition it belongs to.
// Task s of a computing dataset consumes column s of its input dataset
// (i.e. input buckets [*][s]) and writes row s of its own grid.  This
// matches the Mrs architecture and yields the task dependencies of the
// paper's Figures 1 and 2: all map tasks independent; a reduce task for
// partition p needs every map task's bucket for p.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "fs/bucket.h"
#include "ser/value.h"

namespace mrs {

class DataSet;
using DataSetPtr = std::shared_ptr<DataSet>;

enum class DataSetKind {
  kLocal,   // literal records provided by the program (1 source)
  kFile,    // text files on disk, one split per file: a text+file:// bucket
  kMap,     // map operation over an input dataset
  kReduce,  // sort+group+reduce over an input dataset
};

std::string_view DataSetKindName(DataSetKind kind);

/// Options for computing datasets.
struct DataSetOptions {
  /// Registered operation name ("map", "reduce", or a custom name).
  std::string op_name;
  /// Number of output partitions; 0 lets the Job pick its default
  /// parallelism.
  int num_splits = 0;
  /// Run the program's combiner on map output (map datasets only).
  bool use_combiner = false;
  /// Named combiner operation; empty uses "combine".
  std::string combine_name;
  /// Iterative/BSP mode: a small per-round delta (e.g. k-means centroids,
  /// PSO best positions) made visible to every task of this operation via
  /// MapReduce::Broadcast().  Shipped with the task assignment on the data
  /// plane instead of being baked into the input, so a pinned resident
  /// input never has to be re-shipped between supersteps.
  std::shared_ptr<const Value> broadcast;
};

enum class TaskState : uint8_t { kPending, kRunning, kComplete, kFailed };

class DataSet {
 public:
  DataSet(int id, DataSetKind kind, int num_sources, int num_splits);
  ~DataSet();

  int id() const { return id_; }
  DataSetKind kind() const { return kind_; }
  int num_sources() const { return num_sources_; }
  int num_splits() const { return num_splits_; }

  const DataSetOptions& options() const { return options_; }
  DataSetOptions* mutable_options() { return &options_; }

  const DataSetPtr& input() const { return input_; }
  void set_input(DataSetPtr input) { input_ = std::move(input); }

  /// True for kLocal/kFile datasets whose contents exist a priori.
  bool IsSourceData() const {
    return kind_ == DataSetKind::kLocal || kind_ == DataSetKind::kFile;
  }

  // ---- Residency (iterative/BSP mode) ---------------------------------

  /// A resident dataset is pinned on its executing runner across
  /// supersteps: Job::Discard is a no-op while pinned, and the masterslave
  /// runner caches its decoded splits on slaves so subsequent rounds send
  /// only a cache key instead of re-shipping the records.  Lineage is
  /// unaffected: a pinned dataset lost with a slave is re-derived from its
  /// producing sub-DAG exactly like any other dataset.
  bool resident() const { return resident_.load(std::memory_order_acquire); }
  void set_resident(bool resident) {
    resident_.store(resident, std::memory_order_release);
  }

  // ---- Bucket grid ----------------------------------------------------

  Bucket& bucket(int source, int split);
  const Bucket& bucket(int source, int split) const;
  /// A copy of bucket [source][split] taken under the lock while row
  /// `source` is complete; nullopt while it is not (InvalidateTask sent it
  /// back for re-execution).  Collect reads this copy, so a row that is
  /// invalidated after Wait never reads as an empty bucket.
  std::optional<Bucket> CompletedBucket(int source, int split) const;

  /// Replace row `source` with freshly computed buckets (one per split).
  /// Marks the task complete.  Thread-safe across distinct sources.
  /// Consults the process MemoryBudget: retained in-memory bytes are
  /// charged per row, and when the charge pushes usage over the limit the
  /// row's in-memory buckets are appended to `spill_file` — the spill file
  /// of the attempt that computed the row — as runs (sorted for map
  /// output, FIFO otherwise).  Without a file they stay in memory, over
  /// budget but correct.
  void SetRow(int source, std::vector<Bucket> row,
              SpillFile* spill_file = nullptr);

  // ---- Task/completion state ------------------------------------------

  TaskState task_state(int source) const;
  void set_task_state(int source, TaskState state);
  /// Atomically transition pending -> running; false if already taken.
  bool TryClaimTask(int source);
  /// Reset a task for re-execution (failure recovery).
  void ResetTask(int source);
  /// Lineage recovery: the host of row `source`'s output died.  Drops the
  /// row's buckets entirely (urls and records) and returns the task to
  /// kPending so the scheduler re-executes it from its input lineage.
  void InvalidateTask(int source);

  bool Complete() const;
  int NumCompleteTasks() const;

  // ---- Submit-time rejection ------------------------------------------

  /// Record a static-analysis / validation failure.  A rejected dataset
  /// was never handed to a runner: it has no tasks to run, and Job::Wait
  /// returns `status` instead of executing anything.  Rejection is
  /// sticky — datasets derived from a rejected input inherit its status.
  void MarkRejected(Status status);
  bool rejected() const;
  /// The rejection status (Ok when not rejected).
  Status rejected_status() const;

  /// Job::Discard: drop all in-memory records and delete the spill files
  /// its rows' runs live in.  Urls and run metadata stay, so a late read
  /// fails instead of seeing an empty bucket.  Destruction deletes the
  /// spill files too.
  void Discard();

 private:
  int GridIndex(int source, int split) const {
    return source * num_splits_ + split;
  }

  const int id_;
  const DataSetKind kind_;
  const int num_sources_;
  const int num_splits_;
  DataSetOptions options_;
  DataSetPtr input_;
  std::atomic<bool> resident_{false};

  mutable Mutex mutex_;
  std::vector<Bucket> grid_ MRS_GUARDED_BY(mutex_);  // num_sources * num_splits
  std::vector<TaskState> task_states_ MRS_GUARDED_BY(mutex_);  // per source
  // Bytes charged to the process MemoryBudget per stored row; released on
  // invalidation, eviction, and destruction.
  std::vector<int64_t> row_charged_ MRS_GUARDED_BY(mutex_);
  bool rejected_ MRS_GUARDED_BY(mutex_) = false;
  Status rejected_status_ MRS_GUARDED_BY(mutex_);
};

}  // namespace mrs
