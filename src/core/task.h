// Task execution: the one code path that computes a row of a dataset's
// bucket grid.
//
// Every implementation — serial, mock parallel, thread, master/slave —
// funnels through RunMapTask / RunReduceTask, which is how Mrs guarantees
// that all implementations "produce identical answers" (paper §IV-A): only
// the scheduling and data movement differ, never the computation.  Each
// task funnel also takes its spill context from NewTaskSpillContext and
// guards user code with CatchUserExceptions, so budgets and failures
// behave the same on every runner.
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

/// Where and whether a task may spill its output buckets (fs/spill.h).
/// A null/inactive context reproduces the pre-spill behavior exactly.
struct TaskSpillContext {
  std::string dir;        // existing directory for run files
  std::string id_prefix;  // frame-id prefix, "<dataset>/<source>"
  MemoryBudget* budget = nullptr;

  bool enabled() const {
    return budget != nullptr && budget->active() && !dir.empty();
  }
};

/// The spill context for one execution of task (`dataset_id`, `source`):
/// a fresh run directory `<label>_ds<dataset>_t<source>_<n>` under
/// `parent` (SpillRoot() when empty) and the task's frame-id prefix.
/// Nullopt when the process MemoryBudget is inactive, or when no directory
/// could be made — the task then runs in memory, over budget but correct.
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

/// A fetcher handling file:// and text+file:// URLs only (local).
Result<std::string> LocalFetch(const std::string& url);

/// One input part for a task: either inline records or a URL to fetch.
/// URL schemes: "file://" (binary/text records), "http://" (ditto, remote),
/// "text+file://" (raw text, converted line-by-line to (lineno, line)).
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

/// Fetch and concatenate all parts, in order.
Result<std::vector<KeyValue>> LoadTaskInput(
    const std::vector<TaskInputPart>& parts, const UrlFetcher& fetch);

/// Gather the input records for task `split` reading from dataset
/// `input_ds` (in-memory/local path used by the serial and mock-parallel
/// runners).  For file datasets this reads the split's file; otherwise it
/// loads column `split` of the grid.
Result<std::vector<KeyValue>> GatherInputRecords(DataSet& input_ds, int split,
                                                 const UrlFetcher& fetch);

/// Build URL/inline input parts for a remote task (master side).  Buckets
/// that have URLs are passed by reference; in-memory-only buckets are
/// inlined.
Result<std::vector<TaskInputPart>> BuildTaskInputParts(DataSet& input_ds,
                                                       int split);

/// Run one map task: calls the named map function on every input record,
/// partitions emitted pairs into `num_splits` buckets, and optionally
/// applies the combiner per bucket.  Returns the completed bucket row.
/// With an enabled spill context, partitions that grow past the memory
/// budget are flushed to disk as sorted runs (combined first when a
/// combiner is configured — the classic combine-before-spill policy) and
/// the returned buckets carry runs instead of records.
Result<std::vector<Bucket>> RunMapTask(MapReduce& program,
                                       const DataSetOptions& options,
                                       int num_splits,
                                       const std::vector<KeyValue>& input,
                                       const TaskSpillContext* spill = nullptr);

/// Run one reduce task: sorts input by key (ties by value), groups, calls
/// the named reduce function per key, and partitions emitted values by key
/// into `num_splits` buckets.
Result<std::vector<Bucket>> RunReduceTask(
    MapReduce& program, const DataSetOptions& options, int num_splits,
    std::vector<KeyValue> input, const TaskSpillContext* spill = nullptr);

/// The out-of-core reduce: consumes a (key, value)-sorted merged stream —
/// never materializing the full input — groups consecutive equal keys,
/// applies the reduce function, and partitions output into buckets,
/// spilling them as FIFO runs under budget pressure.  Produces exactly the
/// rows RunReduceTask would for the same input multiset.
Result<std::vector<Bucket>> ReduceMergedSources(
    MapReduce& program, const DataSetOptions& options, int num_splits,
    std::vector<std::unique_ptr<MergeSource>> sources,
    const TaskSpillContext* spill);

/// Build one sorted MergeSource per input bucket (in the order given):
/// spilled buckets stream their sorted runs from disk; in-memory buckets
/// contribute a sorted copy.  FIFO runs (never reduce input in practice)
/// are materialized and sorted.
Result<std::vector<std::unique_ptr<MergeSource>>> BuildColumnMergeSources(
    const std::vector<Bucket*>& column, const UrlFetcher& fetch);

/// Dispatch on dataset kind (kMap/kReduce).
Result<std::vector<Bucket>> RunTask(MapReduce& program, DataSetKind kind,
                                    const DataSetOptions& options,
                                    int num_splits, std::vector<KeyValue> input,
                                    const TaskSpillContext* spill = nullptr);

/// Run task `split` against its input dataset — the local runners' whole
/// task body.  Reduce tasks whose input column spilled (or that may spill
/// themselves) take the streamed path: per-bucket merge sources feed
/// ReduceMergedSources and the full input is never materialized.
Result<std::vector<Bucket>> RunTaskOnDataSet(MapReduce& program, DataSet& ds,
                                             int split, const UrlFetcher& fetch,
                                             const TaskSpillContext* spill);

/// Same, for a column of buckets already gathered (thread runner's shuffle
/// board, slave-fetched parts staged as buckets).
Result<std::vector<Bucket>> RunTaskOnBuckets(MapReduce& program,
                                             DataSetKind kind,
                                             const DataSetOptions& options,
                                             int num_splits,
                                             std::vector<Bucket> column,
                                             const UrlFetcher& fetch,
                                             const TaskSpillContext* spill);

/// Sort records and collapse runs of equal keys via `fn` (shared by the
/// reduce path and the map-side combiner).
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

/// Resolve the combiner configured on a map dataset ("combine" when
/// `options.combine_name` is empty).  Shared by the in-task combine path,
/// combine-before-spill, and the thread runner's per-worker combiners —
/// one lookup rule, so every layer aggregates with the same function.
Result<ReduceFn> FindCombiner(MapReduce& program,
                              const DataSetOptions& options);

}  // namespace mrs
