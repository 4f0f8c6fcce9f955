#include "core/task.h"

#include <atomic>
#include <iterator>

#include "common/log.h"
#include "common/strings.h"
#include "fs/file_io.h"
#include "obs/metrics.h"
#include "ser/record.h"

namespace mrs {

int ResolvePartition(const MapReduce& program, const Value& key,
                     int num_splits, const char* site) {
  int p = program.Partition(key, num_splits);
  if (p >= 0 && p < num_splits) return p;
  static obs::Counter* out_of_range =
      obs::Registry::Instance().GetCounter("mrs.partition.out_of_range");
  out_of_range->Inc();
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    MRS_LOG(kWarning, "task")
        << "Partition() returned " << p << " for num_splits=" << num_splits
        << " at " << site
        << "; remapping to split 0 (counted in mrs.partition.out_of_range; "
           "further occurrences are not logged)";
  }
  return 0;
}

std::optional<TaskSpillContext> NewTaskSpillContext(const std::string& label,
                                                    int dataset_id, int source,
                                                    const std::string& parent) {
  MemoryBudget& budget = MemoryBudget::Process();
  if (!budget.active() && parent.empty()) return std::nullopt;
  Result<std::string> path = NewSpillFilePath(
      label + "_ds" + std::to_string(dataset_id) + "_t" +
          std::to_string(source),
      parent);
  if (!path.ok()) return std::nullopt;
  return TaskSpillContext{
      std::make_unique<SpillFile>(*std::move(path)),
      std::to_string(dataset_id) + "/" + std::to_string(source), &budget};
}

Result<std::string> LocalFetch(const std::string& url) {
  if (StartsWith(url, "file://")) {
    return ReadFileToString(url.substr(7));
  }
  if (StartsWith(url, "text+file://")) {
    // Raw text; Bucket::EnsureLoaded reads these URLs as lines itself.
    return ReadFileToString(url.substr(12));
  }
  return InvalidArgumentError("LocalFetch cannot resolve url: " + url);
}

std::vector<Bucket> InputColumn(const std::vector<TaskInputPart>& parts) {
  std::vector<Bucket> column(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].inline_records) {
      *column[i].mutable_records() = parts[i].records;
      column[i].MarkLoaded();
    } else {
      column[i].set_url(parts[i].url);
    }
  }
  return column;
}

Result<std::vector<TaskInputPart>> BuildTaskInputParts(DataSet& input_ds,
                                                       int split) {
  std::vector<TaskInputPart> parts;
  for (int s = 0; s < input_ds.num_sources(); ++s) {
    Bucket& b = input_ds.bucket(s, split);
    if (!b.url().empty()) {
      parts.push_back(TaskInputPart::Url(b.url()));
    } else if (b.loaded()) {
      parts.push_back(TaskInputPart::Inline(b.records()));
    } else if (input_ds.kind() == DataSetKind::kLocal) {
      parts.push_back(TaskInputPart::Inline(b.records()));
    } else {
      return FailedPreconditionError(
          "bucket (" + std::to_string(s) + "," + std::to_string(split) +
          ") of dataset " + std::to_string(input_ds.id()) +
          " has neither url nor records");
    }
  }
  return parts;
}

namespace {

/// The one writer of task output.  Each emitted pair goes to the bucket
/// ResolvePartition names.  Under an enabled spill context the writer
/// charges the budget every 32 records and, when the budget asks, appends
/// every non-empty bucket to the attempt's spill file as one run: a sorted
/// run for map output (combined first when the task has a combiner — the
/// classic combine-before-spill policy, sound because a combiner must
/// satisfy reduce∘partial-combine = reduce), a FIFO run for reduce output,
/// which Job::Collect reads in emit order.  The charge is released once the
/// records are on disk or handed to the caller (who re-charges what it
/// keeps), and by the destructor on every other exit.
class RowWriter {
 public:
  RowWriter(const MapReduce& program, int num_splits,
            const TaskSpillContext* spill, const char* site, bool sorted_runs,
            ReduceFn combiner = nullptr)
      : program_(program),
        num_splits_(num_splits),
        spill_(spill != nullptr && spill->enabled() ? spill : nullptr),
        site_(site),
        sorted_runs_(sorted_runs),
        combiner_(std::move(combiner)) {
    row_.reserve(static_cast<size_t>(num_splits));
    for (int p = 0; p < num_splits; ++p) row_.emplace_back(0, p);
  }
  ~RowWriter() { Release(); }
  RowWriter(const RowWriter&) = delete;
  RowWriter& operator=(const RowWriter&) = delete;

  /// Ok until a spill fails; later emits are dropped.
  const Status& status() const { return status_; }

  void Emit(KeyValue kv) {
    if (!status_.ok()) return;
    int p = ResolvePartition(program_, kv.key, num_splits_, site_);
    if (spill_ != nullptr) {
      pending_ += static_cast<int64_t>(ApproxMemoryBytes(kv));
    }
    row_[static_cast<size_t>(p)].Append(std::move(kv));
    if (spill_ != nullptr && ++since_check_ >= 32) ChargePending();
  }

  /// The finished row: a spilled bucket's tail joins its runs (the bucket
  /// leaves the task runs-only), an in-memory bucket is combined and marked
  /// loaded.
  Result<std::vector<Bucket>> Finish() {
    MRS_RETURN_IF_ERROR(status_);
    Release();
    for (Bucket& b : row_) {
      if (b.spilled()) {
        if (!b.records().empty()) MRS_RETURN_IF_ERROR(Spill(b));
        continue;
      }
      MRS_RETURN_IF_ERROR(Combine(b));
      b.MarkLoaded();
    }
    return std::move(row_);
  }

 private:
  void ChargePending() {
    since_check_ = 0;
    spill_->budget->Charge(pending_);
    charged_ += pending_;
    pending_ = 0;
    if (!spill_->budget->ShouldSpill()) return;
    for (Bucket& b : row_) {
      if (b.records().empty()) continue;
      status_ = Spill(b);
      if (!status_.ok()) return;
    }
    Release();
  }

  Status Combine(Bucket& b) {
    if (!combiner_ || b.records().empty()) return Status::Ok();
    MRS_ASSIGN_OR_RETURN(
        *b.mutable_records(),
        SortGroupApply(std::move(*b.mutable_records()), combiner_));
    return Status::Ok();
  }

  Status Spill(Bucket& b) {
    MRS_RETURN_IF_ERROR(Combine(b));
    return b.SpillToRun(*spill_->file,
                        spill_->id_prefix + "/" + std::to_string(b.split()),
                        sorted_runs_);
  }

  void Release() {
    if (charged_ > 0) spill_->budget->Release(charged_);
    charged_ = 0;
  }

  const MapReduce& program_;
  const int num_splits_;
  const TaskSpillContext* const spill_;  // null unless spilling is enabled
  const char* const site_;
  const bool sorted_runs_;
  const ReduceFn combiner_;
  std::vector<Bucket> row_;
  Status status_;
  int64_t charged_ = 0;  // charged to the budget, not yet released
  int64_t pending_ = 0;  // emitted since the last charge
  size_t since_check_ = 0;
};

/// The one grouping loop.  `next()` reads a (key, value)-sorted stream: the
/// next record, which the loop moves from, or null at the end.
/// `apply(key, values)` runs once per run of equal keys.  Only one key's
/// values are resident at a time.  Stops at the first error from either.
template <class Next, class Apply>
Status ForEachKeyGroup(Next&& next, Apply&& apply) {
  ValueList values;
  MRS_ASSIGN_OR_RETURN(KeyValue* kv, next());
  while (kv != nullptr) {
    Value key = std::move(kv->key);
    values.clear();
    values.push_back(std::move(kv->value));
    while (true) {
      MRS_ASSIGN_OR_RETURN(kv, next());
      if (kv == nullptr || kv->key != key) break;
      values.push_back(std::move(kv->value));
    }
    MRS_RETURN_IF_ERROR(apply(key, values));
  }
  return Status::Ok();
}

/// Sorted in-memory records as a stream for ForEachKeyGroup, read in place.
auto SortedVectorStream(std::vector<KeyValue>& records) {
  return [&records, i = size_t{0}]() mutable -> Result<KeyValue*> {
    return i == records.size() ? nullptr : &records[i++];
  };
}

/// Reduce a sorted stream: one reduce call per key, its output through a
/// RowWriter (FIFO runs).
template <class Next>
Result<std::vector<Bucket>> ReduceSortedStream(MapReduce& program,
                                               const DataSetOptions& options,
                                               int num_splits,
                                               const TaskSpillContext* spill,
                                               const char* site, Next next) {
  std::string op = options.op_name.empty() ? "reduce" : options.op_name;
  MRS_ASSIGN_OR_RETURN(ReduceFn fn, program.FindReduce(op));
  BroadcastScope broadcast_scope(options.broadcast.get());
  RowWriter out(program, num_splits, spill, site, /*sorted_runs=*/false);
  MRS_RETURN_IF_ERROR(
      ForEachKeyGroup(next, [&](const Value& key, const ValueList& values) {
        fn(key, values,
           [&](Value v) { out.Emit(KeyValue{key, std::move(v)}); });
        return out.status();
      }));
  return out.Finish();
}

/// One sorted MergeSource per input bucket, in column order: a bucket of
/// sorted runs streams them from disk, through one descriptor per spill
/// file.  Under an enabled spill context, a bucket read by URL is first
/// staged as one sorted run of the attempt's spill file, so only one
/// fetched bucket is resident at a time; any other bucket (in memory, or
/// FIFO runs) gives up its records, sorted.
Result<std::vector<std::unique_ptr<MergeSource>>> ColumnMergeSources(
    std::vector<Bucket>& column, const UrlFetcher& fetch,
    const TaskSpillContext* spill) {
  std::vector<std::unique_ptr<MergeSource>> sources;
  SharedSpillFiles files;
  for (size_t i = 0; i < column.size(); ++i) {
    Bucket& b = column[i];
    bool all_sorted = b.spilled();
    for (const SpillRun& run : b.spill_runs()) all_sorted &= run.sorted;
    if (!all_sorted) {
      const bool by_url = !b.loaded() && !b.spilled() && !b.url().empty();
      MRS_RETURN_IF_ERROR(b.EnsureLoaded(fetch));
      if (!by_url || spill == nullptr || !spill->enabled()) {
        std::vector<KeyValue> recs = std::move(*b.mutable_records());
        SortRecords(recs);
        sources.push_back(std::make_unique<VectorSource>(std::move(recs)));
        continue;
      }
      MRS_RETURN_IF_ERROR(b.SpillToRun(
          *spill->file, spill->id_prefix + "/in" + std::to_string(i),
          /*sorted=*/true));
    }
    // Stream each sorted run straight from disk.  Runs join in write
    // order; equal records are byte-identical (multiset semantics), so
    // source order only matters for determinism, which index tie-break
    // in the merger provides.
    for (const SpillRun& run : b.spill_runs()) {
      sources.push_back(files.Source(run));
    }
  }
  return sources;
}

}  // namespace

Result<std::vector<KeyValue>> SortGroupApply(std::vector<KeyValue> records,
                                             const ReduceFn& fn) {
  SortRecords(records);
  std::vector<KeyValue> out;
  MRS_RETURN_IF_ERROR(ForEachKeyGroup(
      SortedVectorStream(records),
      [&](const Value& key, const ValueList& values) {
        fn(key, values,
           [&](Value v) { out.push_back(KeyValue{key, std::move(v)}); });
        return Status::Ok();
      }));
  return out;
}

Result<std::vector<Bucket>> RunMapTask(MapReduce& program,
                                       const DataSetOptions& options,
                                       int num_splits,
                                       const std::vector<KeyValue>& input,
                                       const TaskSpillContext* spill) {
  std::string op = options.op_name.empty() ? "map" : options.op_name;
  MRS_ASSIGN_OR_RETURN(MapFn fn, program.FindMap(op));
  // Make the operation's broadcast delta (iterative mode) visible to the
  // map function and any combiner invocation inside this task.
  BroadcastScope broadcast_scope(options.broadcast.get());
  ReduceFn combiner;
  if (options.use_combiner) {
    MRS_ASSIGN_OR_RETURN(combiner, program.FindReduce(
                                       options.combine_name.empty()
                                           ? "combine"
                                           : options.combine_name));
  }
  RowWriter out(program, num_splits, spill, "RunMapTask",
                /*sorted_runs=*/true, std::move(combiner));
  Emitter emit = [&out](Value k, Value v) {
    out.Emit(KeyValue{std::move(k), std::move(v)});
  };
  for (const KeyValue& kv : input) {
    fn(kv.key, kv.value, emit);
    if (!out.status().ok()) break;
  }
  return out.Finish();
}

Result<std::vector<Bucket>> RunReduceTask(MapReduce& program,
                                          const DataSetOptions& options,
                                          int num_splits,
                                          std::vector<KeyValue> input,
                                          const TaskSpillContext* spill) {
  SortRecords(input);
  return ReduceSortedStream(program, options, num_splits, spill,
                            "RunReduceTask", SortedVectorStream(input));
}

Result<std::vector<Bucket>> ReduceMergedSources(
    MapReduce& program, const DataSetOptions& options, int num_splits,
    std::vector<std::unique_ptr<MergeSource>> sources,
    const TaskSpillContext* spill) {
  LoserTreeMerger merger(std::move(sources));
  KeyValue kv;
  return ReduceSortedStream(
      program, options, num_splits, spill, "ReduceMergedSources",
      [&]() -> Result<KeyValue*> {
        MRS_ASSIGN_OR_RETURN(bool have, merger.Next(&kv));
        return have ? &kv : nullptr;
      });
}

Result<std::vector<Bucket>> RunTaskOnDataSet(MapReduce& program, DataSet& ds,
                                             int split, const UrlFetcher& fetch,
                                             const TaskSpillContext* spill) {
  DataSet& in = *ds.input();
  if (split < 0 || split >= in.num_splits()) {
    return OutOfRangeError("input split out of range");
  }
  std::vector<Bucket> column;
  for (int s = 0; s < in.num_sources(); ++s) {
    column.push_back(in.bucket(s, split));
  }
  return RunTaskOnBuckets(program, ds.kind(), ds.options(), ds.num_splits(),
                          std::move(column), fetch, spill);
}

Result<std::vector<Bucket>> RunTaskOnBuckets(MapReduce& program,
                                             DataSetKind kind,
                                             const DataSetOptions& options,
                                             int num_splits,
                                             std::vector<Bucket> column,
                                             const UrlFetcher& fetch,
                                             const TaskSpillContext* spill) {
  if (kind != DataSetKind::kMap && kind != DataSetKind::kReduce) {
    return InvalidArgumentError("source datasets have no tasks to run");
  }
  // The only place that chooses how a reduce reads its column.
  if (kind == DataSetKind::kReduce) {
    bool merge = spill != nullptr && spill->enabled();
    for (const Bucket& b : column) merge |= b.spilled();
    if (merge) {
      MRS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<MergeSource>> sources,
                           ColumnMergeSources(column, fetch, spill));
      return ReduceMergedSources(program, options, num_splits,
                                 std::move(sources), spill);
    }
  }
  std::vector<KeyValue> input;
  for (Bucket& b : column) {
    MRS_RETURN_IF_ERROR(b.EnsureLoaded(fetch));
    std::vector<KeyValue> recs = std::move(*b.mutable_records());
    if (input.empty()) {
      input = std::move(recs);
    } else {
      input.insert(input.end(), std::make_move_iterator(recs.begin()),
                   std::make_move_iterator(recs.end()));
    }
  }
  if (kind == DataSetKind::kMap) {
    return RunMapTask(program, options, num_splits, input, spill);
  }
  return RunReduceTask(program, options, num_splits, std::move(input), spill);
}

}  // namespace mrs
