// The local runner: the serial and mock parallel implementations.
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
//    completion of a real cluster while staying fully reproducible.  For
//    actual concurrency, use ThreadRunner.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/runner.h"

namespace mrs {

class MapReduce;

class SerialRunner final : public Runner {
 public:
  /// An empty `tmpdir` selects serial.  Otherwise `tmpdir` must exist and
  /// the runner is mock parallel: intermediate data goes to
  /// `<tmpdir>/dataset_<id>/source_<s>_split_<p>.mrsb`, and spill runs to
  /// directories beside those files.
  explicit SerialRunner(MapReduce* program, std::string tmpdir = "")
      : program_(program), tmpdir_(std::move(tmpdir)) {}

  void Submit(const DataSetPtr& dataset) override { (void)dataset; }
  Status Wait(const DataSetPtr& dataset) override;
  UrlFetcher fetcher() override { return LocalFetch; }
  std::string name() const override {
    return mock_parallel() ? "mockparallel" : "serial";
  }
  void Discard(const DataSetPtr& dataset) override;

 private:
  bool mock_parallel() const { return !tmpdir_.empty(); }
  /// `<tmpdir>/dataset_<id>` under mock parallel; empty under serial.
  std::string DataSetDir(const DataSet& dataset) const;
  /// Run task `source` of `dataset` and, under mock parallel, persist and
  /// evict its buckets.  User exceptions come back as a Status.
  Result<std::vector<Bucket>> ExecuteTask(DataSet& dataset, int source,
                                          const std::string& ds_dir);

  MapReduce* program_;
  std::string tmpdir_;
};

}  // namespace mrs
