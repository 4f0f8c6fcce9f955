// Task execution: the one code path that computes a row of a dataset's
// bucket grid.
//
// Every implementation — serial, mock parallel, thread, master/slave —
// funnels through RunTaskOnBuckets (directly, or via RunTaskOnDataSet),
// which is how Mrs guarantees that all implementations "produce identical
// answers" (paper §IV-A): only the scheduling and data movement differ,
// never the computation.  Every task reads a column of Buckets, whatever
// its input: a column of a local dataset, a file split (one text+file://
// bucket), or a slave's assignment (InputColumn).  RunTaskOnBuckets is the
// one column-to-row body and the only code that chooses how a reduce
// reads its column; Bucket::EnsureLoaded is the only code that turns a
// URL into records.  Below it, every map and reduce writes its output
// through one row writer (partition, budget charge, spill, tail flush),
// every record sort is SortRecords (ser/record.h) and every reduce groups
// its sorted input with one loop.  Each runner takes its spill context
// from NewTaskSpillContext and guards user code with CatchUserExceptions,
// so budgets and failures behave the same on every runner.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "core/program.h"
#include "fs/bucket.h"
#include "fs/merge.h"
#include "fs/spill.h"

namespace mrs {

/// Where and whether a task attempt may spill its output buckets
/// (fs/spill.h).  A null or disabled context never spills; a disabled one
/// still names the attempt's spill file (mock parallel keeps its rows
/// there).
struct TaskSpillContext {
  std::unique_ptr<SpillFile> file;  // the attempt's one spill file
  std::string id_prefix;            // frame-id prefix, "<dataset>/<source>"
  MemoryBudget* budget = nullptr;

  bool enabled() const {
    return budget != nullptr && budget->active() && file != nullptr;
  }
};

/// The spill context for one attempt of task (`dataset_id`, `source`):
/// the spill file `<label>_ds<dataset>_t<source>_<n>.mrsk` in `parent`
/// (SpillRoot() when empty), created by the attempt's first run, and the
/// task's frame-id prefix.  The file is deleted with the context unless
/// the runner keeps it (SpillFile::Keep) for the row that references its
/// runs, so a failed attempt leaves no spill data behind.  The context is
/// enabled while the process MemoryBudget is active.  Nullopt when the
/// budget is inactive and `parent` is empty, or when SpillRoot() cannot be
/// made — the task then runs in memory, over budget but correct.
std::optional<TaskSpillContext> NewTaskSpillContext(
    const std::string& label, int dataset_id, int source,
    const std::string& parent = "");

/// Run `fn`, which calls user map/reduce/combine code and returns a Status
/// or Result, and turn an exception escaping it into an InternalError
/// naming `where`: a throwing program fails its task, never the process.
template <class Fn>
auto CatchUserExceptions(const char* where, Fn&& fn) -> decltype(fn()) {
  try {
    return std::forward<Fn>(fn)();
  } catch (const std::exception& e) {
    return InternalError(std::string("uncaught exception in ") + where +
                         ": " + e.what());
  } catch (...) {
    return InternalError(std::string("uncaught non-standard exception in ") +
                         where);
  }
}

/// Resolves a URL to raw content ("http://..." across slaves; "file://..."
/// from disk).  Injected so tests can fake remote fetches and inject
/// faults.
using UrlFetcher = std::function<Result<std::string>(const std::string&)>;

/// A fetcher handling file:// and text+file:// URLs only (local), raw.
Result<std::string> LocalFetch(const std::string& url);

/// One input part of a slave's task assignment: either inline records or
/// a URL (any scheme Bucket::EnsureLoaded reads).
struct TaskInputPart {
  std::vector<KeyValue> records;
  std::string url;
  bool inline_records = false;

  static TaskInputPart Inline(std::vector<KeyValue> recs) {
    TaskInputPart p;
    p.records = std::move(recs);
    p.inline_records = true;
    return p;
  }
  static TaskInputPart Url(std::string url) {
    TaskInputPart p;
    p.url = std::move(url);
    return p;
  }
};

/// The input column of an assignment's `parts`, in order: an inline part
/// is a loaded bucket, a URL part a bucket that EnsureLoaded reads.
std::vector<Bucket> InputColumn(const std::vector<TaskInputPart>& parts);

/// Build URL/inline input parts for a remote task (master side).  Buckets
/// that have URLs are passed by reference; in-memory-only buckets are
/// inlined.
Result<std::vector<TaskInputPart>> BuildTaskInputParts(DataSet& input_ds,
                                                       int split);

/// Run one map task: calls the named map function on every input record,
/// partitions emitted pairs into `num_splits` buckets, and optionally
/// applies the combiner per bucket.  Returns the completed bucket row.
/// With an enabled spill context, the buckets are appended to the
/// attempt's spill file as sorted runs whenever the memory budget asks
/// (combined first when a combiner is configured — the classic
/// combine-before-spill policy), and a spilled bucket is returned as runs
/// only.
Result<std::vector<Bucket>> RunMapTask(MapReduce& program,
                                       const DataSetOptions& options,
                                       int num_splits,
                                       const std::vector<KeyValue>& input,
                                       const TaskSpillContext* spill = nullptr);

/// Run one reduce task in memory: sorts input by key (ties by value) with
/// SortRecords, calls the named reduce function once per key, and
/// partitions emitted values by key into `num_splits` buckets.  With an
/// enabled spill context, the output spills as FIFO runs, as in
/// ReduceMergedSources.
Result<std::vector<Bucket>> RunReduceTask(
    MapReduce& program, const DataSetOptions& options, int num_splits,
    std::vector<KeyValue> input, const TaskSpillContext* spill = nullptr);

/// The out-of-core reduce: the same grouping and output as RunReduceTask,
/// read from a k-way merge of (key, value)-sorted sources, so the full
/// input is never materialized.  Produces exactly the rows RunReduceTask
/// would for the same input multiset.
Result<std::vector<Bucket>> ReduceMergedSources(
    MapReduce& program, const DataSetOptions& options, int num_splits,
    std::vector<std::unique_ptr<MergeSource>> sources,
    const TaskSpillContext* spill);

/// Run task `split` against its input dataset — the local runners' whole
/// task body: RunTaskOnBuckets over a copy of column `split` (the dataset
/// keeps its buckets).
Result<std::vector<Bucket>> RunTaskOnDataSet(MapReduce& program, DataSet& ds,
                                             int split, const UrlFetcher& fetch,
                                             const TaskSpillContext* spill);

/// The one column-to-row body: runs a `kind` task over the input column
/// it owns (a copy of a local dataset's column, a slave's InputColumn),
/// moving the buckets' records into the task.  It is the only code that
/// chooses how a reduce reads its column: when any bucket spilled or the
/// task may spill itself, ReduceMergedSources streams the merge of the
/// column's sorted runs and sorted in-memory buckets — a bucket read by
/// URL is first staged as one sorted run of the attempt's spill file when
/// the context is enabled — and the full input is never materialized;
/// otherwise RunReduceTask sorts the concatenated column in memory.  A map
/// task reads the column concatenated in order.
Result<std::vector<Bucket>> RunTaskOnBuckets(MapReduce& program,
                                             DataSetKind kind,
                                             const DataSetOptions& options,
                                             int num_splits,
                                             std::vector<Bucket> column,
                                             const UrlFetcher& fetch,
                                             const TaskSpillContext* spill);

/// Sort records and collapse runs of equal keys via `fn`, collecting what
/// it emits (the map-side combiners).  Groups with the reduce tasks' loop.
Result<std::vector<KeyValue>> SortGroupApply(std::vector<KeyValue> records,
                                             const ReduceFn& fn);

/// Resolve the output partition for `key`: calls the program's Partition
/// and range-checks the result.  An out-of-range result from a buggy user
/// partitioner is remapped to split 0 — as every runner has always done —
/// but no longer silently: the first occurrence logs a warning naming the
/// site and every occurrence increments `mrs.partition.out_of_range`, so
/// skewed-but-"valid" output is detectable.  Shared by map emit, reduce
/// emit, and Job::LocalData so all runners treat bad partitions the same.
int ResolvePartition(const MapReduce& program, const Value& key,
                     int num_splits, const char* site);

}  // namespace mrs
