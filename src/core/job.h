// Job: the handle a program's Run method uses to queue MapReduce
// operations.
//
// Supports the Mrs iterative style (paper §IV-A): a program may queue many
// datasets ahead ("each is ready to begin as soon as the previous operation
// finishes"), wait only on the datasets it needs (e.g. a periodic
// convergence check), and discard datasets it is done with so intermediate
// data can be freed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "core/program.h"
#include "core/runner.h"

namespace mrs {

class Job {
 public:
  /// The job borrows the program (owned by Main) and owns the runner.
  Job(MapReduce* program, std::unique_ptr<Runner> runner);

  MapReduce& program() { return *program_; }
  Runner& runner() { return *runner_; }

  /// Default number of output partitions for operations that don't choose
  /// one (set from --mrs-num-slaves * --mrs-tasks-per-slave).
  int default_parallelism() const { return default_parallelism_; }
  void set_default_parallelism(int n) {
    default_parallelism_ = n < 1 ? 1 : n;
  }

  // ---- Dataset constructors -------------------------------------------

  /// Literal records, hash-partitioned into num_splits (0 = default).
  DataSetPtr LocalData(std::vector<KeyValue> records, int num_splits = 0);

  /// Text files: each path may be a file or a directory (expanded
  /// recursively — nested trees like Project Gutenberg load fine).  One
  /// split per file; records are (line number, line).
  Result<DataSetPtr> FileData(const std::vector<std::string>& paths);

  /// Map operation over `input` using options.op_name (default "map").
  DataSetPtr MapData(const DataSetPtr& input, DataSetOptions options = {});

  /// Reduce operation over `input` using options.op_name (default
  /// "reduce").
  DataSetPtr ReduceData(const DataSetPtr& input, DataSetOptions options = {});

  // ---- Execution control ----------------------------------------------

  /// Block until `dataset` is complete.
  Status Wait(const DataSetPtr& dataset);

  /// Wait, then gather all output records (split-major, source order
  /// within a split — deterministic across implementations).
  Result<std::vector<KeyValue>> Collect(const DataSetPtr& dataset);

  /// Declare the program done with a dataset; its buckets may be freed.
  /// A no-op while the dataset is pinned resident (see Pin).
  void Discard(const DataSetPtr& dataset);

  // ---- Iterative/BSP residency ----------------------------------------

  /// Pin `dataset` resident on its executing runner across supersteps:
  /// Discard becomes a no-op until Unpin, and the masterslave runner
  /// caches the dataset's decoded splits on slaves so later rounds ship
  /// only a cache key (plus the per-round broadcast delta) instead of the
  /// records.  Lineage recovery is unaffected — a pinned dataset lost with
  /// a slave is re-derived from its producing sub-DAG.
  void Pin(const DataSetPtr& dataset);

  /// Release residency; the next Discard frees the dataset normally.
  void Unpin(const DataSetPtr& dataset);

 private:
  int NextId() { return next_id_++; }
  int ResolveSplits(int requested) const {
    return requested > 0 ? requested : default_parallelism_;
  }
  /// Append the records of bucket (source, split) of a complete dataset to
  /// `out`.  Waits for the dataset again while the bucket's row is being
  /// re-derived, and asks the runner to re-derive it (a bounded number of
  /// times in all) when its host is gone.
  Status CollectBucket(const DataSetPtr& dataset, int source, int split,
                       const UrlFetcher& fetch, std::vector<KeyValue>* out);

  MapReduce* program_;
  std::unique_ptr<Runner> runner_;
  int next_id_ = 1;
  int default_parallelism_ = 4;
};

}  // namespace mrs
