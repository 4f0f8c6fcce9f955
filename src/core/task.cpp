#include "core/task.h"

#include <algorithm>
#include <atomic>

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
  if (!budget.active()) return std::nullopt;
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
    // Handled by LoadTaskInput; raw content here.
    return ReadFileToString(url.substr(12));
  }
  return InvalidArgumentError("LocalFetch cannot resolve url: " + url);
}

namespace {
Result<std::vector<KeyValue>> FetchUrlRecords(const std::string& url,
                                              const UrlFetcher& fetch) {
  if (StartsWith(url, "text+file://")) {
    MRS_ASSIGN_OR_RETURN(std::string raw,
                         ReadFileToString(url.substr(12)));
    return LinesToRecords(raw);
  }
  if (!fetch) return FailedPreconditionError("no fetcher for url " + url);
  MRS_ASSIGN_OR_RETURN(std::string raw, fetch(url));
  // A spilled bucket is served as an mrsk1 frame set (one frame per run);
  // DecodeBucketBody auto-detects.  Decode failures carry the url so the
  // slave's failure report can name the bad input for lineage recovery.
  Result<std::vector<KeyValue>> decoded = DecodeBucketBody(raw);
  if (!decoded.ok()) {
    return DataLossError("bucket " + url + " payload corrupt after " +
                         std::to_string(raw.size()) +
                         " bytes: " + decoded.status().message());
  }
  return decoded;
}

std::string RunFrameId(const TaskSpillContext& sc, int split) {
  return sc.id_prefix + "/" + std::to_string(split);
}
}  // namespace

Result<std::vector<KeyValue>> LoadTaskInput(
    const std::vector<TaskInputPart>& parts, const UrlFetcher& fetch) {
  std::vector<KeyValue> out;
  for (const TaskInputPart& part : parts) {
    if (part.inline_records) {
      out.insert(out.end(), part.records.begin(), part.records.end());
    } else {
      MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> recs,
                           FetchUrlRecords(part.url, fetch));
      out.insert(out.end(), std::make_move_iterator(recs.begin()),
                 std::make_move_iterator(recs.end()));
    }
  }
  return out;
}

Result<std::vector<KeyValue>> GatherInputRecords(DataSet& input_ds, int split,
                                                 const UrlFetcher& fetch) {
  if (split < 0 || split >= input_ds.num_splits()) {
    return OutOfRangeError("input split out of range");
  }
  if (input_ds.kind() == DataSetKind::kFile) {
    const std::string& path = input_ds.file_paths().at(split);
    MRS_ASSIGN_OR_RETURN(std::string raw, ReadFileToString(path));
    return LinesToRecords(raw);
  }
  std::vector<KeyValue> out;
  for (int s = 0; s < input_ds.num_sources(); ++s) {
    Bucket& b = input_ds.bucket(s, split);
    MRS_RETURN_IF_ERROR(b.EnsureLoaded(fetch));
    out.insert(out.end(), b.records().begin(), b.records().end());
  }
  return out;
}

Result<std::vector<TaskInputPart>> BuildTaskInputParts(DataSet& input_ds,
                                                       int split) {
  std::vector<TaskInputPart> parts;
  if (input_ds.kind() == DataSetKind::kFile) {
    parts.push_back(
        TaskInputPart::Url("text+file://" + input_ds.file_paths().at(split)));
    return parts;
  }
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

Result<std::vector<KeyValue>> SortGroupApply(std::vector<KeyValue> records,
                                             const ReduceFn& fn) {
  std::stable_sort(records.begin(), records.end(), KeyValueLess);
  std::vector<KeyValue> out;
  size_t i = 0;
  while (i < records.size()) {
    size_t j = i;
    ValueList values;
    while (j < records.size() && records[j].key == records[i].key) {
      values.push_back(records[j].value);
      ++j;
    }
    const Value& key = records[i].key;
    fn(key, values, [&](Value v) {
      out.push_back(KeyValue{key, std::move(v)});
    });
    i = j;
  }
  return out;
}

Result<ReduceFn> FindCombiner(MapReduce& program,
                              const DataSetOptions& options) {
  std::string combine_op =
      options.combine_name.empty() ? "combine" : options.combine_name;
  return program.FindReduce(combine_op);
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
    MRS_ASSIGN_OR_RETURN(combiner, FindCombiner(program, options));
  }

  const bool spilling = spill != nullptr && spill->enabled();
  std::vector<Bucket> row;
  row.reserve(num_splits);
  for (int p = 0; p < num_splits; ++p) row.emplace_back(0, p);

  // Budget accounting: emitted bytes are charged in batches of 32 records
  // (bounded overshoot), and the whole charge is released once the records
  // are on disk or handed to the caller (who re-charges what it keeps).
  int64_t charged = 0;
  int64_t pending = 0;
  size_t since_check = 0;
  Status spill_status;

  // Flush every non-empty partition as one sorted run (combine first when
  // configured: the classic combine-before-spill policy, sound because a
  // combiner must satisfy reduce∘partial-combine = reduce).
  auto flush_all = [&]() -> Status {
    for (int p = 0; p < num_splits; ++p) {
      Bucket& b = row[static_cast<size_t>(p)];
      if (b.records().empty()) continue;
      if (options.use_combiner) {
        MRS_ASSIGN_OR_RETURN(
            *b.mutable_records(),
            SortGroupApply(std::move(*b.mutable_records()), combiner));
      }
      MRS_RETURN_IF_ERROR(
          b.SpillToRun(*spill->file, RunFrameId(*spill, p), /*sorted=*/true));
    }
    spill->budget->Release(charged);
    charged = 0;
    pending = 0;
    return Status::Ok();
  };

  Emitter emit = [&](Value k, Value v) {
    if (!spill_status.ok()) return;
    int p = ResolvePartition(program, k, num_splits, "RunMapTask");
    KeyValue kv{std::move(k), std::move(v)};
    if (spilling) pending += static_cast<int64_t>(ApproxMemoryBytes(kv));
    row[static_cast<size_t>(p)].Append(std::move(kv));
    if (spilling && ++since_check >= 32) {
      since_check = 0;
      spill->budget->Charge(pending);
      charged += pending;
      pending = 0;
      if (spill->budget->ShouldSpill()) spill_status = flush_all();
    }
  };
  for (const KeyValue& kv : input) {
    fn(kv.key, kv.value, emit);
    if (!spill_status.ok()) break;
  }
  if (spilling && charged > 0) {
    spill->budget->Release(charged);
    charged = 0;
  }
  MRS_RETURN_IF_ERROR(spill_status);

  for (int p = 0; p < num_splits; ++p) {
    Bucket& b = row[static_cast<size_t>(p)];
    if (options.use_combiner && !b.records().empty()) {
      MRS_ASSIGN_OR_RETURN(
          *b.mutable_records(),
          SortGroupApply(std::move(*b.mutable_records()), combiner));
    }
    if (b.spilled() && !b.records().empty()) {
      // Tail flush: a spilled bucket leaves the task runs-only.
      MRS_RETURN_IF_ERROR(
          b.SpillToRun(*spill->file, RunFrameId(*spill, p), /*sorted=*/true));
    }
    if (!b.spilled()) b.MarkLoaded();
  }
  if (spilling) MRS_RETURN_IF_ERROR(spill->file->Sync());
  return row;
}

Result<std::vector<Bucket>> ReduceMergedSources(
    MapReduce& program, const DataSetOptions& options, int num_splits,
    std::vector<std::unique_ptr<MergeSource>> sources,
    const TaskSpillContext* spill) {
  std::string op = options.op_name.empty() ? "reduce" : options.op_name;
  MRS_ASSIGN_OR_RETURN(ReduceFn fn, program.FindReduce(op));
  BroadcastScope broadcast_scope(options.broadcast.get());

  const bool spilling = spill != nullptr && spill->enabled();
  std::vector<Bucket> row;
  row.reserve(num_splits);
  for (int p = 0; p < num_splits; ++p) row.emplace_back(0, p);

  int64_t charged = 0;
  int64_t pending = 0;
  size_t since_check = 0;
  Status spill_status;

  // Output spills preserve emit order (FIFO runs): Job::Collect reads
  // final buckets in raw emit order, which spilling must not disturb.
  auto flush_all = [&]() -> Status {
    for (int p = 0; p < num_splits; ++p) {
      Bucket& b = row[static_cast<size_t>(p)];
      if (b.records().empty()) continue;
      MRS_RETURN_IF_ERROR(
          b.SpillToRun(*spill->file, RunFrameId(*spill, p), /*sorted=*/false));
    }
    spill->budget->Release(charged);
    charged = 0;
    pending = 0;
    return Status::Ok();
  };

  auto partition_emit = [&](const Value& key, Value v) {
    if (!spill_status.ok()) return;
    int p = ResolvePartition(program, key, num_splits, "ReduceMergedSources");
    KeyValue kv{key, std::move(v)};
    if (spilling) pending += static_cast<int64_t>(ApproxMemoryBytes(kv));
    row[static_cast<size_t>(p)].Append(std::move(kv));
    if (spilling && ++since_check >= 32) {
      since_check = 0;
      spill->budget->Charge(pending);
      charged += pending;
      pending = 0;
      if (spill->budget->ShouldSpill()) spill_status = flush_all();
    }
  };

  // Stream sorted records, grouping runs of equal keys.  Only one key's
  // values are ever resident, never the whole input.
  LoserTreeMerger merger(std::move(sources));
  KeyValue kv;
  MRS_ASSIGN_OR_RETURN(bool have, merger.Next(&kv));
  while (have) {
    Value key = kv.key;
    ValueList values;
    values.push_back(std::move(kv.value));
    while (true) {
      MRS_ASSIGN_OR_RETURN(have, merger.Next(&kv));
      if (!have || kv.key != key) break;
      values.push_back(std::move(kv.value));
    }
    fn(key, values, [&](Value v) { partition_emit(key, std::move(v)); });
    MRS_RETURN_IF_ERROR(spill_status);
  }
  if (spilling && charged > 0) {
    spill->budget->Release(charged);
    charged = 0;
  }

  for (int p = 0; p < num_splits; ++p) {
    Bucket& b = row[static_cast<size_t>(p)];
    if (b.spilled() && !b.records().empty()) {
      MRS_RETURN_IF_ERROR(
          b.SpillToRun(*spill->file, RunFrameId(*spill, p), /*sorted=*/false));
    }
    if (!b.spilled()) b.MarkLoaded();
  }
  if (spilling) MRS_RETURN_IF_ERROR(spill->file->Sync());
  return row;
}

Result<std::vector<Bucket>> RunReduceTask(MapReduce& program,
                                          const DataSetOptions& options,
                                          int num_splits,
                                          std::vector<KeyValue> input,
                                          const TaskSpillContext* spill) {
  if (spill != nullptr && spill->enabled()) {
    std::stable_sort(input.begin(), input.end(), KeyValueLess);
    std::vector<std::unique_ptr<MergeSource>> sources;
    sources.push_back(std::make_unique<VectorSource>(std::move(input)));
    return ReduceMergedSources(program, options, num_splits,
                               std::move(sources), spill);
  }
  std::string op = options.op_name.empty() ? "reduce" : options.op_name;
  MRS_ASSIGN_OR_RETURN(ReduceFn fn, program.FindReduce(op));
  BroadcastScope broadcast_scope(options.broadcast.get());
  MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> reduced,
                       SortGroupApply(std::move(input), fn));

  std::vector<Bucket> row;
  row.reserve(num_splits);
  for (int p = 0; p < num_splits; ++p) row.emplace_back(0, p);
  for (KeyValue& kv : reduced) {
    int p = ResolvePartition(program, kv.key, num_splits, "RunReduceTask");
    row[static_cast<size_t>(p)].Append(std::move(kv));
  }
  for (Bucket& b : row) b.MarkLoaded();
  return row;
}

Result<std::vector<Bucket>> RunTask(MapReduce& program, DataSetKind kind,
                                    const DataSetOptions& options,
                                    int num_splits, std::vector<KeyValue> input,
                                    const TaskSpillContext* spill) {
  switch (kind) {
    case DataSetKind::kMap:
      return RunMapTask(program, options, num_splits, input, spill);
    case DataSetKind::kReduce:
      return RunReduceTask(program, options, num_splits, std::move(input),
                           spill);
    case DataSetKind::kLocal:
    case DataSetKind::kFile:
      return InvalidArgumentError("source datasets have no tasks to run");
  }
  return InternalError("unknown dataset kind");
}

Result<std::vector<std::unique_ptr<MergeSource>>> BuildColumnMergeSources(
    const std::vector<Bucket*>& column, const UrlFetcher& fetch) {
  std::vector<std::unique_ptr<MergeSource>> sources;
  for (Bucket* b : column) {
    bool all_sorted = b->spilled();
    for (const SpillRun& run : b->spill_runs()) all_sorted &= run.sorted;
    if (all_sorted) {
      // Stream each sorted run straight from disk.  Runs join in write
      // order; equal records are byte-identical (multiset semantics), so
      // source order only matters for determinism, which index tie-break
      // in the merger provides.
      for (const SpillRun& run : b->spill_runs()) {
        sources.push_back(std::make_unique<SpillRunSource>(run));
      }
      continue;
    }
    MRS_RETURN_IF_ERROR(b->EnsureLoaded(fetch));
    std::vector<KeyValue> recs = b->records();
    std::stable_sort(recs.begin(), recs.end(), KeyValueLess);
    sources.push_back(std::make_unique<VectorSource>(std::move(recs)));
    if (b->spilled()) b->Evict();  // return FIFO-run buckets to disk-backed
  }
  return sources;
}

Result<std::vector<Bucket>> RunTaskOnDataSet(MapReduce& program, DataSet& ds,
                                             int split, const UrlFetcher& fetch,
                                             const TaskSpillContext* spill) {
  DataSet& in = *ds.input();
  if (ds.kind() == DataSetKind::kReduce && in.kind() != DataSetKind::kFile) {
    bool any_spilled = false;
    for (int s = 0; s < in.num_sources(); ++s) {
      any_spilled |= in.bucket(s, split).spilled();
    }
    if (any_spilled || (spill != nullptr && spill->enabled())) {
      std::vector<Bucket*> column;
      column.reserve(static_cast<size_t>(in.num_sources()));
      for (int s = 0; s < in.num_sources(); ++s) {
        column.push_back(&in.bucket(s, split));
      }
      MRS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<MergeSource>> sources,
                           BuildColumnMergeSources(column, fetch));
      return ReduceMergedSources(program, ds.options(), ds.num_splits(),
                                 std::move(sources), spill);
    }
  }
  MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> input,
                       GatherInputRecords(in, split, fetch));
  return RunTask(program, ds.kind(), ds.options(), ds.num_splits(),
                 std::move(input), spill);
}

Result<std::vector<Bucket>> RunTaskOnBuckets(MapReduce& program,
                                             DataSetKind kind,
                                             const DataSetOptions& options,
                                             int num_splits,
                                             std::vector<Bucket> column,
                                             const UrlFetcher& fetch,
                                             const TaskSpillContext* spill) {
  if (kind == DataSetKind::kReduce) {
    bool any_spilled = false;
    for (const Bucket& b : column) any_spilled |= b.spilled();
    if (any_spilled || (spill != nullptr && spill->enabled())) {
      std::vector<Bucket*> ptrs;
      ptrs.reserve(column.size());
      for (Bucket& b : column) ptrs.push_back(&b);
      MRS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<MergeSource>> sources,
                           BuildColumnMergeSources(ptrs, fetch));
      return ReduceMergedSources(program, options, num_splits,
                                 std::move(sources), spill);
    }
  }
  std::vector<KeyValue> input;
  for (Bucket& b : column) {
    MRS_RETURN_IF_ERROR(b.EnsureLoaded(fetch));
    input.insert(input.end(), b.records().begin(), b.records().end());
  }
  return RunTask(program, kind, options, num_splits, std::move(input), spill);
}

}  // namespace mrs
